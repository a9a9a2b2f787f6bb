/**
 * @file
 * Result of one benchmark run: per-phase request accounting, the
 * metrics it emits and the human-readable lines that precede the
 * final JSON line.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Attempts and outcomes of one phase (warmup, light, heavy...). */
struct PhaseCount {
    std::string phase;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0; ///< shed, Error frames, timeouts, misses
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    /** Record a phase; its counts enter attempted/failed/ok_ratio. */
    void phase(PhaseCount count) { phases_.push_back(std::move(count)); }

    /** Emit a metric into the final JSON line. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A correctness check; a failed one fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return correct_; }
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    /** Succeeded share of all attempts (1 when nothing failed). */
    double okRatio() const;

    /** Print the per-phase table and every metric (stdout). */
    void printSummary() const;

    /** The final JSON line (no trailing newline). */
    std::string json() const;

  private:
    std::vector<PhaseCount> phases_;
    std::vector<Metric> metrics_;
    bool correct_ = true;
};

/** Print one human-readable line to stdout (never the last line). */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
