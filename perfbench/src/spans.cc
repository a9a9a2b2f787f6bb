#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int> tOpen;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(
                static_cast<int>(i));
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Children clipped to the parent, merged into disjoint runs.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const int c : children[i]) {
            const Span &k = spans[static_cast<std::size_t>(c)];
            const auto a = std::max(k.start, s.start);
            const auto b = std::min(k.end, s.end);
            if (a < b)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        for (std::size_t j = 0; j < iv.size();) {
            auto a = iv[j].first, b = iv[j].second;
            for (++j; j < iv.size() && iv[j].first <= b; ++j)
                b = std::max(b, iv[j].second);
            covered += usBetween(a, b);
        }
        self[i] = std::max(0.0, usBetween(s.start, s.end) - covered);
    }
    return self;
}

int
SpanLog::open(std::string_view name, std::int64_t request)
{
    if (!enabled_)
        return -1;
    const int parent = tOpen.empty() ? -1 : tOpen.back();
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(s);
        // Stamp last, so lock wait is not charged to the span.
        spans_.back().start = Clock::now();
    }
    tOpen.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    const auto now = Clock::now();
    if (tOpen.empty() || tOpen.back() != id)
        throw std::logic_error("span closed out of order");
    tOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

int
SpanLog::add(std::string_view name, Clock::time_point start,
             Clock::time_point end, int parent, std::int64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {spans_.begin(), spans_.end()};
}

void
SpanLog::writeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimesUs(all);
    const Clock::time_point origin =
        all.empty() ? Clock::time_point{} : all.front().start;

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
    std::map<std::string_view, std::pair<std::size_t, double>> byName;
    std::fprintf(f, "{\"schema\": \"perfbench.trace/1\",\n\"spans\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s{\"id\": %zu, \"name\": \"%.*s\", "
                     "\"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"parent\": %d, \"request\": %lld, "
                     "\"self_us\": %.3f}\n",
                     i ? "," : "", i, static_cast<int>(s.name.size()),
                     s.name.data(), usBetween(origin, s.start),
                     usBetween(origin, s.end), s.parent,
                     static_cast<long long>(s.request), self[i]);
        auto &agg = byName[s.name];
        agg.first += 1;
        agg.second += self[i];
    }
    std::fprintf(f, "],\n\"self_ms_by_name\": {");
    bool first = true;
    for (const auto &[name, agg] : byName) {
        std::fprintf(f, "%s\n  \"%.*s\": {\"count\": %zu, \"self_ms\": %.6f}",
                     first ? "" : ",", static_cast<int>(name.size()),
                     name.data(), agg.first, agg.second / 1000.0);
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write trace file " + path);
}

} // namespace perfbench
