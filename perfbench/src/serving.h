/**
 * @file
 * Open-loop phases shared by the two serving workloads: the phase
 * plan (warmup, light, heavy), per-request records and the
 * end-to-end metrics computed from them.
 */

#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "serve/batcher.h"
#include "spans.h"

namespace perfbench {

/**
 * The batch policy of both serving workloads: dispatch at 8 requests
 * or 200 us after the oldest, well below the measured latencies, so
 * the delay does not set the light-load latency by itself.
 */
aib::serve::BatchPolicy fixedBatchPolicy();

/** One request as the generator saw it. */
struct RequestRecord {
    Clock::time_point due{};   ///< scheduled send time
    Clock::time_point sent{};  ///< handed to the program
    Clock::time_point done{};  ///< reply / completion observed
    double serverUs = 0.0;     ///< program-reported submit->served
    int batchSize = 0;
    bool answered = false;     ///< a reply or an error came back
    bool ok = false;           ///< served correctly
};

/** A fixed-rate open-loop phase. */
struct Phase {
    std::vector<double> offsetsUs; ///< due time of each request
    std::size_t count() const { return offsetsUs.size(); }
};

/**
 * Fewest requests in a measured phase. quietWindows keeps at least 4
 * of its 8 windows, so at least 1000 requests, the fewest that put 10
 * samples beyond the p99 (kServeTailPct).
 */
constexpr std::size_t kMinPhaseRequests = 2000;

/**
 * The phase plan of a run of @p seconds: warmup at the light rate
 * (10% of the time, unmeasured but counted), then light and heavy at
 * 40% each, each of at least kMinPhaseRequests requests (a measured
 * phase runs longer when its rate gives fewer). Schedules come from
 * the run seed.
 */
std::vector<Phase> planPhases(std::uint64_t seed, double seconds,
                              double lightQps, double heavyQps);

/** The tail percentile of the serving phases. */
constexpr double kServeTailPct = 99.0;

/** Latency from the scheduled send to completion, ms, ok requests. */
std::vector<double> latenciesMs(const std::vector<RequestRecord> &recs);

/** Count a phase's outcomes into @p report. */
void countPhase(Report &report, const std::string &name,
                const std::vector<RequestRecord> &recs);

/** Lateness of the generator: the share of sends more than this
 *  late, and the run is invalid when that share, over the windows it
 *  measures, passes the limit. */
constexpr double kLateUs = 1000.0;
constexpr double kMaxLateShare = 0.10;

/**
 * The requests a phase's latency is measured on. The phase is cut
 * into 8 windows of equal request count. A window whose generator
 * sent more than 5% of its requests over kLateUs late was disturbed
 * by the host, not by the program: the generator runs alone on its
 * CPU (see GeneratorCpu), so the program cannot delay it. Windows
 * within 5% are kept; when fewer than half are, the least-late half
 * is kept. In a quiet run every window is kept.
 */
std::vector<RequestRecord> quietWindows(const std::vector<RequestRecord> &recs);

struct Lateness {
    double share = 0.0;  ///< sends more than kLateUs late
    double maxMs = 0.0;
    double p99Ms = 0.0;
};
Lateness lateness(const std::vector<const std::vector<RequestRecord> *> &phases);

/** A pass's light and heavy requests, cut to their quiet windows. */
struct Measured {
    std::vector<RequestRecord> light, heavy;
    Lateness all; ///< over every light and heavy send
};

/**
 * Cut @p light and @p heavy to their quiet windows, print the
 * generator's lateness over all sends and over the kept windows, and
 * check the kept windows' late share against kMaxLateShare.
 */
Measured measured(Report &report, const std::string &workload,
                  const std::vector<RequestRecord> &light,
                  const std::vector<RequestRecord> &heavy);

/** Mean batch size: requests over batches (each batch of b counts
 *  1/b per member). */
double batchSizeMean(const std::vector<RequestRecord> &recs);

/**
 * Print each measured phase's p50 and p99 (from raw samples, at least
 * 10 beyond) with its sample count and program CPU per request
 * (@p cpuMsPerReq: warmup, light, heavy), and emit the end-to-end
 * metrics of a serving run: heavy-phase CPU per request, set-up, peak
 * RSS and the ok share. Latencies and light-phase CPU are not
 * emitted: on a shared host they moved more than any usable bound
 * between sets of identical runs (see README.md); the traced run
 * reports them.
 */
void emitServingEndToEnd(Report &report, const std::vector<RequestRecord> &light,
                         const std::vector<RequestRecord> &heavy,
                         const std::vector<double> &cpuMsPerReq,
                         const std::vector<double> &setupS);

/** The traced run's report of what emitServingEndToEnd only prints. */
void emitServingTails(Report &report, const std::vector<RequestRecord> &light,
                      const std::vector<RequestRecord> &heavy, double lightCpuMsPerReq);

/**
 * How early a generator on its own CPU (see GeneratorCpu) stops
 * sleeping and spins until a due time. Waking a halted vCPU on a
 * shared host took over 1 ms for 5-20% of sends; spinning on a CPU
 * the program does not use brought that under 1%. Without a CPU of
 * its own the generator only sleeps: spinning there lost to the
 * server's threads under the fair scheduler and ran later.
 */
std::chrono::microseconds spinLead();

/** Sleep until spinLead() before @p t, then spin until @p t. */
void waitUntil(Clock::time_point t);

} // namespace perfbench

#endif // PERFBENCH_SERVING_H
