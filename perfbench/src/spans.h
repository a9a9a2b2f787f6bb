/**
 * @file
 * In-memory span log for the traced run. The benchmark opens a span
 * around each call it makes into a layer's public functions; spans
 * carry a name, start, end, parent and request id, stay in memory
 * while the workload runs and are written as one JSON file at exit.
 * A disabled log records nothing, so the timed runs pay only a
 * branch per call site.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string_view name;    ///< a string literal
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;          ///< index of the causing span, -1 = root
    std::int64_t request = -1; ///< request id, -1 = none
};

/**
 * Self time of every span in @p spans, in microseconds: its duration
 * minus the part of its interval covered by the union of its
 * children's intervals.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /**
     * Open a span on the calling thread, child of the innermost span
     * this thread has open. Returns its id, or -1 when disabled.
     */
    int open(std::string_view name, std::int64_t request = -1);

    /** Close span @p id (no-op for -1); must be the innermost. */
    void close(int id);

    /** Record a finished span with an explicit parent; returns its id. */
    int add(std::string_view name, Clock::time_point start,
            Clock::time_point end, int parent, std::int64_t request);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Write every span, its self time and per-name totals as JSON to
     * @p path. Throws std::runtime_error when the file cannot be
     * written.
     */
    void writeJson(const std::string &path) const;

  private:
    const bool enabled_;
    mutable std::mutex mutex_;
    std::deque<Span> spans_; ///< guarded by mutex_
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string_view name,
               std::int64_t request = -1)
        : log_(log), id_(log.open(name, request))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    const int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
