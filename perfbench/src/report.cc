#include "report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void
note(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fputc('\n', stdout);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    note("check %-4s %s", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
}

std::uint64_t
Report::attempted() const
{
    std::uint64_t n = 0;
    for (const PhaseCount &p : phases_)
        n += p.sent;
    return n;
}

std::uint64_t
Report::failed() const
{
    std::uint64_t n = 0;
    for (const PhaseCount &p : phases_)
        n += p.failed;
    return n;
}

double
Report::okRatio() const
{
    const std::uint64_t n = attempted();
    return n == 0 ? 0.0
                  : static_cast<double>(n - failed()) /
                        static_cast<double>(n);
}

void
Report::printSummary() const
{
    note("%-10s %10s %10s %10s", "phase", "sent", "succeeded", "failed");
    for (const PhaseCount &p : phases_)
        note("%-10s %10llu %10llu %10llu", p.phase.c_str(),
             static_cast<unsigned long long>(p.sent),
             static_cast<unsigned long long>(p.succeeded),
             static_cast<unsigned long long>(p.failed));
    for (const Metric &m : metrics_)
        note("metric %-32s %14.6g %s", m.name.c_str(), m.value,
             m.unit.c_str());
}

std::string
Report::json() const
{
    char buf[64];
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted());
    out += ", \"failed\": " + std::to_string(failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
