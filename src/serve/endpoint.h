/**
 * @file
 * Push-driven serving endpoint: the one serving core.
 *
 * Callers @c submit() requests from any thread; a bounded
 * AdmissionQueue, the dynamic batcher and a pool of worker replicas
 * serve them, and a completion callback fires per request on the
 * worker that served it. The network server (docs/NETSERVE.md) and
 * the in-process load driver @c serveBenchmark both sit on it, so
 * in-process and networked numbers come from the same server code.
 *
 * Two batching modes:
 *
 *  - @c Dynamic: the live path — bounded admission queue (shedding
 *    by rejection), batches closed at maxBatch or maxDelayUs. Batch
 *    composition depends on arrival timing, so digests are real but
 *    not reproducible run-to-run.
 *
 *  - @c Planned: batch composition is fixed up front from a
 *    @c planBatches plan both sides can derive (seeded arrival
 *    trace). Requests are buffered per planned batch and a batch
 *    dispatches when its last member arrives, so the executed
 *    compositions — and therefore the per-batch digests and their
 *    batch-order fold — are bitwise identical to @c replayTrace on
 *    the same trace, no matter how network timing interleaves the
 *    arrivals. This is what lets a loopback netbench run be gated
 *    against the in-process replay digest in CI.
 *
 * Worker replicas are built with the same seed discipline as
 * @c replayTrace's, and worker loops run inside a dedicated
 * ThreadPool parallel region so every tensor op executes inline on
 * its worker.
 *
 * Tracing follows the convention of core::ThreadPool and
 * dag::Executor: if a profiler::TraceSession is active on the
 * constructing thread, each worker records its serving kernels into
 * a private session, and @c drain() merges those into the
 * constructing thread's session in worker order. Replica
 * build/train/warmup runs with no session active, so only serving
 * work is counted; with no session active nothing is recorded.
 */

#ifndef AIB_SERVE_ENDPOINT_H
#define AIB_SERVE_ENDPOINT_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/benchmark.h"
#include "serve/batcher.h"
#include "serve/histogram.h"

namespace aib::profiler {
class TraceSession;
} // namespace aib::profiler

namespace aib::serve {

/** How an endpoint composes batches. */
enum class BatchingMode {
    Dynamic, ///< admission queue + maxBatch/maxDelayUs batcher
    Planned, ///< fixed plan; dispatch when a batch's members arrived
};

/** Configuration of one endpoint. */
struct EndpointOptions {
    int workers = 2;          ///< serving replicas
    BatchPolicy policy;       ///< dynamic-mode batching policy
    int queueCapacity = 256;  ///< dynamic-mode admission high-water
    int trainEpochs = 0;      ///< pre-serving training per replica
    int warmupQueries = 2;    ///< unmeasured warmup per replica
    std::uint64_t seed = 42;
    BatchingMode batching = BatchingMode::Dynamic;
    /** Planned mode: the fixed batch composition (ids per batch). */
    std::vector<BatchPlan> plan;
};

/** Verdict of @c ServingEndpoint::submit. */
enum class SubmitResult {
    Accepted,
    Shed,      ///< dynamic mode: admission queue at capacity
    Closed,    ///< endpoint is draining / drained
    UnknownId, ///< planned mode: id outside the plan (or duplicate)
};

/** Delivered to the completion callback, once per served request. */
struct EndpointCompletion {
    int id = 0;                 ///< the request's exemplar id
    double batchDigest = 0.0;   ///< digest of the batch it rode in
    long batchIndex = -1;       ///< planned-mode batch number
    int batchSize = 0;
    /** Enqueue -> batch served, server clock; one timestamp per
     *  batch, taken before any member's callback runs. */
    double serverLatencyUs = 0;
};

/**
 * Per-request completion hook. Runs on the serving worker that
 * executed the batch, possibly concurrently with other workers'
 * callbacks — the callee synchronizes its own state.
 */
using EndpointCallback = std::function<void(const EndpointCompletion &)>;

/**
 * Build one serving replica: reseed the global RNG, construct,
 * optionally train and warm up. Replicas built with equal arguments
 * are bitwise clones — the digest-parity contract between live
 * serving, replay and the network endpoint. Must be called from one
 * thread at a time (the global RNG is process state).
 */
std::unique_ptr<core::TrainableTask>
buildReplica(const core::ComponentBenchmark &benchmark,
             std::uint64_t seed, int trainEpochs, int warmupQueries);

class ServingEndpoint
{
  public:
    /**
     * Build replicas (sequentially, on the calling thread) and start
     * the worker pool. Throws std::invalid_argument on nonsensical
     * options (workers < 1, maxBatch < 1, maxDelayUs < 0,
     * queueCapacity < 1, planned mode without a plan...). If a trace
     * session is active on the calling thread, it must outlive the
     * endpoint's drain.
     */
    ServingEndpoint(const core::ComponentBenchmark &benchmark,
                    EndpointOptions options, EndpointCallback onComplete);

    /** Drains (joining all workers) if the caller did not. */
    ~ServingEndpoint();

    ServingEndpoint(const ServingEndpoint &) = delete;
    ServingEndpoint &operator=(const ServingEndpoint &) = delete;

    /**
     * Admit one request from any thread. @c request.id is the
     * exemplar id; @c request.enqueue should be the caller's receive
     * timestamp (used for the server-side latency histogram).
     */
    SubmitResult submit(const Request &request) AIB_EXCLUDES(mutex_);

    /**
     * Stop admitting; everything already admitted is still served
     * (planned mode flushes partially-arrived batches so a dead
     * client cannot wedge the drain). Does not wait, so a completion
     * callback may call it. Idempotent.
     */
    void close() AIB_EXCLUDES(mutex_);

    /**
     * Block until the endpoint stopped admitting: @c close() or
     * @c drain() was called, or a worker failed.
     */
    void awaitClosed() AIB_EXCLUDES(mutex_);

    /**
     * @c close(), join the workers, merge their accounting (and
     * traces, see the file comment), and rethrow the first worker
     * exception, if any. Idempotent.
     */
    void drain();

    // ---- post-drain accounting (stable once drain() returned) ----

    std::uint64_t completed() const { return completed_; }
    std::uint64_t rejected() const;
    int peakQueueDepth() const;
    std::uint64_t batches() const { return batchesServed_; }
    /** Submit->served latency across all requests (server clock). */
    const LatencyHistogram &latency() const { return latency_; }
    /** batchSizeCounts[s] = batches dispatched with size s+1. */
    const std::vector<std::uint64_t> &batchSizeCounts() const
    {
        return batchSizeCounts_;
    }
    /**
     * Fold of per-batch digests. Planned mode: strictly in batch
     * index order — bitwise equal to folding @c replayTrace batch
     * digests on the same plan. Dynamic mode: dispatch order, real
     * but timing-dependent.
     */
    double sessionDigest() const { return sessionDigest_; }

    const EndpointOptions &options() const { return options_; }

  private:
    struct WorkerState;
    struct PlannedBatch;

    void workerLoop(WorkerState &w);
    /** Deliver one served batch: accounting, then the callbacks. */
    void complete(WorkerState &w, const std::vector<Request> &members,
                  double digest, long batchIndex, int batchSize);
    bool nextPlannedBatch(int *batchIndex,
                          std::vector<Request> *members)
        AIB_EXCLUDES(mutex_);
    void finish();

    const core::ComponentBenchmark &benchmark_;
    const EndpointOptions options_;
    const EndpointCallback onComplete_;
    /** The constructing thread's trace session, or nullptr. */
    profiler::TraceSession *const trace_;
    /** Planned mode: request id -> batch index; fixed at construction. */
    std::unordered_map<int, int> plannedBatchOf_;

    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::unique_ptr<AdmissionQueue> queue_; ///< dynamic mode
    std::thread coordinator_;

    mutable core::Mutex mutex_;
    /** Signals growth of ready_ and the setting of closed_. */
    std::condition_variable stateCv_;
    /** Planned mode: arrival buffers, one per planned batch. */
    std::vector<PlannedBatch> pending_ AIB_GUARDED_BY(mutex_);
    std::deque<int> ready_ AIB_GUARDED_BY(mutex_);
    bool closed_ AIB_GUARDED_BY(mutex_) = false;
    std::uint64_t plannedRejected_ AIB_GUARDED_BY(mutex_) = 0;

    /**
     * Planned mode: per-batch digest slots. Slot b is written only by
     * the worker that executed batch b (each ready_ entry is popped
     * exactly once), and read after the pool joined — distinct slots,
     * no lock. unsigned char, not bool: vector<bool> is bit-packed
     * and concurrent writes to distinct indices would race.
     */
    std::vector<double> plannedDigestSlots_;
    std::vector<unsigned char> plannedRanSlots_;

    bool drained_ = false;
    std::exception_ptr workerError_;

    // Merged after the pool joined; read-only afterwards.
    std::uint64_t completed_ = 0;
    std::uint64_t batchesServed_ = 0;
    double sessionDigest_ = 0.0;
    LatencyHistogram latency_;
    std::vector<std::uint64_t> batchSizeCounts_;
};

} // namespace aib::serve

#endif // AIB_SERVE_ENDPOINT_H
