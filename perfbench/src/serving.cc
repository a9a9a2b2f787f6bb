#include "serving.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "stats.h"
#include "workload.h"

namespace perfbench {

aib::serve::BatchPolicy
fixedBatchPolicy()
{
    aib::serve::BatchPolicy p;
    p.maxBatch = 8;
    p.maxDelayUs = 200;
    return p;
}

std::vector<Phase>
planPhases(std::uint64_t seed, double seconds, double lightQps,
           double heavyQps)
{
    std::vector<Phase> out;
    const struct {
        double qps, share;
    } spec[] = {{lightQps, 0.1}, {lightQps, 0.4}, {heavyQps, 0.4}}; // warmup, light, heavy
    std::uint64_t stream = 100;
    for (const auto &s : spec) {
        auto count = static_cast<std::size_t>(std::llround(s.qps * s.share * seconds));
        if (!out.empty()) // a measured phase
            count = std::max(count, kMinPhaseRequests);
        out.push_back({poissonScheduleUs(deriveSeed(seed, stream++), s.qps, count)});
    }
    return out;
}

std::vector<double>
latenciesMs(const std::vector<RequestRecord> &recs)
{
    std::vector<double> out;
    out.reserve(recs.size());
    for (const RequestRecord &r : recs)
        if (r.ok)
            out.push_back(msBetween(r.due, r.done));
    return out;
}

void
countPhase(Report &report, const std::string &name,
           const std::vector<RequestRecord> &recs)
{
    PhaseCount c;
    c.phase = name;
    for (const RequestRecord &r : recs) {
        c.sent += 1;
        (r.ok ? c.succeeded : c.failed) += 1;
    }
    report.phase(c);
}

std::vector<RequestRecord>
quietWindows(const std::vector<RequestRecord> &recs)
{
    constexpr std::size_t kWindows = 8;
    constexpr double kQuietShare = 0.05;
    const std::size_t per = recs.size() / kWindows;
    if (per == 0)
        return recs;
    // Window w is [w * per, end(w)); the last takes the remainder.
    const auto slice = [&](std::size_t w) {
        const std::size_t end = w + 1 == kWindows ? recs.size() : (w + 1) * per;
        return std::vector<RequestRecord>(recs.begin() + static_cast<std::ptrdiff_t>(w * per),
                                          recs.begin() + static_cast<std::ptrdiff_t>(end));
    };
    std::vector<std::pair<double, std::size_t>> share; // (late share, window)
    for (std::size_t w = 0; w < kWindows; ++w) {
        const std::vector<RequestRecord> one = slice(w);
        share.emplace_back(lateness({&one}).share, w);
    }
    std::stable_sort(share.begin(), share.end());
    std::size_t keep = 0;
    while (keep < kWindows && share[keep].first <= kQuietShare)
        ++keep;
    keep = std::max(keep, kWindows / 2);
    std::vector<std::size_t> windows;
    for (std::size_t i = 0; i < keep; ++i)
        windows.push_back(share[i].second);
    std::sort(windows.begin(), windows.end());
    std::vector<RequestRecord> out;
    for (const std::size_t w : windows) {
        const std::vector<RequestRecord> one = slice(w);
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

Lateness
lateness(const std::vector<const std::vector<RequestRecord> *> &phases)
{
    Lateness out;
    std::vector<double> ms;
    std::size_t late = 0;
    for (const auto *recs : phases) {
        for (const RequestRecord &r : *recs) {
            const double us =
                std::chrono::duration<double, std::micro>(r.sent - r.due).count();
            late += us > kLateUs ? 1 : 0;
            ms.push_back(us / 1000.0);
        }
    }
    if (ms.empty())
        return out;
    out.share = static_cast<double>(late) / static_cast<double>(ms.size());
    out.maxMs = percentile(ms, 100.0);
    out.p99Ms = percentile(ms, 99.0);
    return out;
}

Measured
measured(Report &report, const std::string &workload, const std::vector<RequestRecord> &light,
         const std::vector<RequestRecord> &heavy)
{
    Measured m;
    m.light = quietWindows(light);
    m.heavy = quietWindows(heavy);
    m.all = lateness({&light, &heavy});
    const Lateness kept = lateness({&m.light, &m.heavy});
    note("generator: %.4f%% of sends more than %.0f us late (p99 %.3f ms, max %.3f ms); "
         "kept windows: light %zu/%zu, heavy %zu/%zu requests, %.4f%% late",
         100.0 * m.all.share, kLateUs, m.all.p99Ms, m.all.maxMs, m.light.size(), light.size(),
         m.heavy.size(), heavy.size(), 100.0 * kept.share);
    report.check(kept.share <= kMaxLateShare,
                 workload + ": generator kept its schedule in the measured windows (late share " +
                     std::to_string(kept.share) + " <= " + std::to_string(kMaxLateShare) + ")");
    return m;
}

double
batchSizeMean(const std::vector<RequestRecord> &recs)
{
    double requests = 0.0, batches = 0.0;
    for (const RequestRecord &r : recs) {
        if (r.ok && r.batchSize > 0) {
            requests += 1.0;
            batches += 1.0 / r.batchSize;
        }
    }
    return batches > 0.0 ? requests / batches : 0.0;
}

void
emitServingEndToEnd(Report &report, const std::vector<RequestRecord> &light,
                    const std::vector<RequestRecord> &heavy,
                    const std::vector<double> &cpuMsPerReq, const std::vector<double> &setupS)
{
    const Summary l = summarize(latenciesMs(light), kServeTailPct);
    const Summary h = summarize(latenciesMs(heavy), kServeTailPct);
    note("light: n=%zu p50 %.4f ms p%g %.4f ms (highest supported p%g)", l.n, l.p50,
         l.tailPct, l.tail, highestSupportedPercentile(l.n));
    note("heavy: n=%zu p50 %.4f ms p%g %.4f ms (highest supported p%g)", h.n, h.p50,
         h.tailPct, h.tail, highestSupportedPercentile(h.n));
    note("setup: n=%zu median %.4f s", setupS.size(), median(setupS));
    note("program CPU per request: light %.6f ms, heavy %.6f ms", cpuMsPerReq.at(1),
         cpuMsPerReq.at(2));
    report.metric("setup_s", median(setupS), "s");
    report.metric("cpu_ms_per_unit.heavy", cpuMsPerReq.at(2), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.metric("ok_ratio", report.okRatio(), "ratio");
}

void
emitServingTails(Report &report, const std::vector<RequestRecord> &light,
                 const std::vector<RequestRecord> &heavy, double lightCpuMsPerReq)
{
    report.metric("cpu_ms_per_unit.light", lightCpuMsPerReq, "ms");
    const Summary l = summarize(latenciesMs(light), kServeTailPct);
    const Summary h = summarize(latenciesMs(heavy), kServeTailPct);
    report.metric("lat_p50_ms.light", l.p50, "ms");
    report.metric("lat_tail_ms.light", l.tail, "ms");
    report.metric("lat_p50_ms.heavy", h.p50, "ms");
    report.metric("lat_tail_ms.heavy", h.tail, "ms");
}

std::chrono::microseconds
spinLead()
{
    return std::chrono::microseconds(generatorCpuReserved() ? 300 : 0);
}

void
waitUntil(Clock::time_point t)
{
    std::this_thread::sleep_until(t - spinLead());
    while (Clock::now() < t) {
    }
}

} // namespace perfbench
