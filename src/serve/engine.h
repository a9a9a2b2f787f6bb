/**
 * @file
 * In-process serving runs (paper Sec. 4.2.1's online-inference
 * metrics: latency, tail latency, throughput, energy per query).
 *
 * @c serveBenchmark is a load driver over @c ServingEndpoint in
 * dynamic-batching mode — the same server code @c netserve runs —
 * so its numbers include what a deployed endpoint experiences:
 * admission queueing and shedding, dynamic batching (dispatch at
 * maxBatch or maxDelayUs, whichever first) and a pool of workers,
 * each owning a private task replica built from the same seed.
 *
 * Two live drive modes:
 *  - open loop: seeded Poisson arrivals at a target QPS, real
 *    sleeps; queueing delay and load shedding are visible.
 *  - closed loop: a fixed number of in-flight requests, each
 *    completion immediately admitting the next; measures peak
 *    sustainable throughput.
 *
 * @c replayTrace is the deterministic counterpart: a fixed arrival
 * trace is planned into batches by the pure policy function, every
 * batch is really executed (output digests), and latencies come from
 * a discrete-event simulation with gpusim-projected service times —
 * fully deterministic under a fixed seed and trace, regardless of
 * wall clock.
 */

#ifndef AIB_SERVE_ENGINE_H
#define AIB_SERVE_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "gpusim/device.h"
#include "serve/batcher.h"
#include "serve/report.h"

namespace aib::serve {

/** How the load generator drives a live serving run. */
enum class DriveMode {
    OpenLoop,
    ClosedLoop,
};

/** Options for one serving run. */
struct ServingOptions {
    int workers = 3;          ///< serving workers (task replicas)
    BatchPolicy policy;       ///< dynamic batching policy
    int queueCapacity = 64;   ///< admission high-water mark
    int queries = 120;        ///< total queries to issue
    int warmupQueries = 2;    ///< per-replica, not measured
    DriveMode mode = DriveMode::ClosedLoop;
    double qps = 200.0;       ///< open-loop target arrival rate
    /** Closed-loop in-flight target; 0 = 2 x maxBatch x workers. */
    int concurrency = 0;
    /** Train this many epochs before serving (0 = fresh weights). */
    int trainEpochs = 0;
    std::uint64_t seed = 42;
    gpusim::DeviceSpec device = gpusim::titanXp();
};

/** Result of executing one batch in replay mode. */
struct ReplayBatch {
    std::vector<int> ids;   ///< composition, arrival order
    double digest = 0.0;    ///< serveBatch output digest
    double serviceUs = 0.0; ///< simulated service time
};

/** Deterministic replay result. */
struct ReplayResult {
    std::vector<ReplayBatch> batches;
    /** Per-request latency in us, indexed by request id. */
    std::vector<double> latencyUs;
    ServingReport report;
};

/**
 * Run a live (open- or closed-loop) serving session of @p benchmark
 * on a @c ServingEndpoint and return its report. The simulated
 * columns come from the serving kernels only (replica build, training
 * and warmup are not traced). Throws std::invalid_argument on
 * nonsensical options (queries < 1, open loop without a positive
 * qps, or anything @c ServingEndpoint rejects), and rethrows a
 * serving worker's failure.
 */
ServingReport serveBenchmark(const core::ComponentBenchmark &benchmark,
                             const ServingOptions &options);

/**
 * Deterministically replay @p arrivalUs (non-decreasing offsets, one
 * per request) against @p benchmark: plan batches with
 * @c planBatches, execute every batch across the worker replicas
 * (digests), and derive the latency stream from a k-server FCFS
 * event simulation using gpusim-projected batch service times.
 * Batch composition and digests are independent of the worker
 * count; the latency stream is a pure function of (benchmark, seed,
 * trace, options).
 */
ReplayResult replayTrace(const core::ComponentBenchmark &benchmark,
                         const std::vector<double> &arrivalUs,
                         const ServingOptions &options);

} // namespace aib::serve

#endif // AIB_SERVE_ENGINE_H
