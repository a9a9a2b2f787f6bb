/**
 * @file
 * What every workload shares: its arguments, the seed derivation, the
 * open-loop arrival schedule and process-level measurements.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its span log. */
    std::string traceOut;
};

/**
 * Global tensor pool width. More than one thread, so parallelFor
 * really forks; not all four cores, because on a shared 4-vCPU host
 * a parallel region waits for its slowest vCPU: DC-AI-C9 epoch times
 * spread about +-20% between identical runs at width 4 and about
 * +-3% at width 2.
 */
constexpr int kPoolWidth = 2;

/**
 * Set-ups per batch. A run times one batch before its measured work
 * and one after it, and setup_s is the median of both batches, so a
 * run samples the host at two moments --seconds apart: on a shared
 * 4-vCPU host one batch's set-ups all read about 11 ms or all about
 * 18 ms, by the host's state at the time.
 */
constexpr int kSetups = 9;

void runTrain(const RunArgs &args, Report &report);
void runServeNet(const RunArgs &args, Report &report);
void runServePipeline(const RunArgs &args, Report &report);

/** Independent 64-bit stream @p stream of the run seed (splitmix64). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Open-loop Poisson schedule: @p count arrival offsets in
 * microseconds at mean rate @p qps, from the benchmark's own
 * generator so the schedule never depends on program code.
 */
std::vector<double> poissonScheduleUs(std::uint64_t seed, double qps,
                                      std::size_t count);

/** Process CPU time (user + system, all threads) in seconds. */
double processCpuSeconds();

/** CPU time of the calling thread in seconds. */
double threadCpuSeconds();

/** Peak resident set size of the process (VmHWM) in MiB. */
double peakRssMb();

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Split the CPUs between the program and the load generator: keep
 * the calling thread (and every thread it creates later) off the last
 * allowed CPU, and remember that CPU for GeneratorCpu. Does nothing
 * when fewer than two CPUs are allowed. Call before the program
 * starts any thread.
 */
void reserveGeneratorCpu();

/** True when reserveGeneratorCpu kept a CPU for the generator. */
bool generatorCpuReserved();

/**
 * While alive, runs the calling thread on the CPU reserveGeneratorCpu
 * kept free, so a generator never waits behind the server's threads;
 * restores the thread's CPU set on destruction.
 */
class GeneratorCpu
{
  public:
    GeneratorCpu();
    ~GeneratorCpu();
    GeneratorCpu(const GeneratorCpu &) = delete;
    GeneratorCpu &operator=(const GeneratorCpu &) = delete;

  private:
    bool pinned_ = false;
};

/**
 * Ask the kernel for microsecond timer precision on the calling
 * thread, so an open-loop generator wakes close to each scheduled
 * send instead of up to the default 50 us slack late.
 */
void tightenTimerSlack();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
