#include "serve/endpoint.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/thread_pool.h"
#include "profiler/trace.h"
#include "tensor/random.h"

namespace aib::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Unbinds this thread's trace session for the scope's lifetime. */
class NoTraceScope
{
  public:
    NoTraceScope() : previous_(profiler::exchangeActiveSession(nullptr))
    {}
    ~NoTraceScope() { profiler::exchangeActiveSession(previous_); }

    NoTraceScope(const NoTraceScope &) = delete;
    NoTraceScope &operator=(const NoTraceScope &) = delete;

  private:
    profiler::TraceSession *previous_;
};

} // namespace

std::unique_ptr<core::TrainableTask>
buildReplica(const core::ComponentBenchmark &benchmark,
             std::uint64_t seed, int trainEpochs, int warmupQueries)
{
    seedGlobalRng(seed);
    std::unique_ptr<core::TrainableTask> task = benchmark.makeTask(seed);
    for (int e = 0; e < trainEpochs; ++e)
        task->runEpoch();
    for (int q = 0; q < warmupQueries; ++q)
        task->forwardOnce();
    return task;
}

/** Private serving state of one worker; never shared across workers. */
struct ServingEndpoint::WorkerState {
    std::unique_ptr<core::TrainableTask> task;
    LatencyHistogram latency;
    std::vector<std::uint64_t> batchSizeCounts;
    /** Serving kernels; recorded only when the endpoint traces. */
    profiler::TraceSession trace;
    std::uint64_t served = 0;
    std::uint64_t batches = 0;
    /** Dynamic mode: digest fold in this worker's dispatch order. */
    double digestFold = 0.0;
};

struct ServingEndpoint::PlannedBatch {
    std::vector<Request> arrived;
    int expected = 0;
    bool enqueued = false; ///< pushed to ready_ (complete or flushed)
};

ServingEndpoint::ServingEndpoint(
    const core::ComponentBenchmark &benchmark, EndpointOptions options,
    EndpointCallback onComplete)
    : benchmark_(benchmark), options_(std::move(options)),
      onComplete_(std::move(onComplete)),
      trace_(profiler::activeSession())
{
    if (options_.workers < 1)
        throw std::invalid_argument("endpoint: workers must be >= 1");
    if (options_.policy.maxBatch < 1)
        throw std::invalid_argument("endpoint: maxBatch must be >= 1");
    if (options_.policy.maxDelayUs < 0)
        throw std::invalid_argument("endpoint: negative maxDelayUs");
    if (options_.queueCapacity < 1)
        throw std::invalid_argument(
            "endpoint: queueCapacity must be >= 1");
    if (options_.batching == BatchingMode::Planned) {
        if (options_.plan.empty())
            throw std::invalid_argument(
                "endpoint: planned batching needs a non-empty plan");
        pending_.resize(options_.plan.size());
        for (std::size_t b = 0; b < options_.plan.size(); ++b) {
            if (options_.plan[b].ids.empty())
                throw std::invalid_argument(
                    "endpoint: plan contains an empty batch");
            pending_[b].expected =
                static_cast<int>(options_.plan[b].ids.size());
            for (const int id : options_.plan[b].ids)
                if (!plannedBatchOf_.emplace(id, static_cast<int>(b))
                         .second)
                    throw std::invalid_argument(
                        "endpoint: plan repeats id " +
                        std::to_string(id));
        }
    } else {
        queue_ = std::make_unique<AdmissionQueue>(
            options_.queueCapacity);
    }

    int maxSize = options_.policy.maxBatch;
    for (const BatchPlan &p : options_.plan)
        maxSize = std::max(maxSize, static_cast<int>(p.ids.size()));
    batchSizeCounts_.assign(static_cast<std::size_t>(maxSize), 0);

    const int workers = options_.workers;
    plannedDigestSlots_.assign(options_.plan.size(), 0.0);
    plannedRanSlots_.assign(options_.plan.size(), 0);
    workers_.reserve(static_cast<std::size_t>(workers));
    {
        // Replicas are built sequentially here (constructors and
        // runEpoch draw from the process-global RNG), and untraced:
        // build, training and warmup are not serving work.
        NoTraceScope untraced;
        for (int w = 0; w < workers; ++w) {
            auto state = std::make_unique<WorkerState>();
            state->task = buildReplica(benchmark_, options_.seed,
                                       options_.trainEpochs,
                                       options_.warmupQueries);
            state->batchSizeCounts.assign(
                static_cast<std::size_t>(maxSize), 0);
            workers_.push_back(std::move(state));
        }
    }

    // The worker loops run as chunks of one parallel region on a
    // dedicated pool: every tensor op inside a loop executes inline
    // on its worker, giving inter-query parallelism without
    // oversubscribing the global tensor pool.
    coordinator_ = std::thread([this, workers] {
        try {
            core::ThreadPool pool(workers);
            pool.parallelForChunked(
                0, workers, 1,
                [this](int chunk, std::int64_t, std::int64_t) {
                    WorkerState &w =
                        *workers_[static_cast<std::size_t>(chunk)];
                    try {
                        std::optional<profiler::ScopedTrace> scope;
                        if (trace_)
                            scope.emplace(w.trace);
                        workerLoop(w);
                    } catch (...) {
                        close(); // unblock peers before propagating
                        throw;
                    }
                });
        } catch (...) {
            workerError_ = std::current_exception();
        }
    });
}

ServingEndpoint::~ServingEndpoint()
{
    try {
        drain();
    } catch (...) {
        // Destructor swallows what drain() would have reported.
    }
}

SubmitResult
ServingEndpoint::submit(const Request &request)
{
    if (options_.batching == BatchingMode::Dynamic) {
        {
            core::MutexLock lock(mutex_);
            if (closed_)
                return SubmitResult::Closed;
        }
        return queue_->push(request) ? SubmitResult::Accepted
                                     : SubmitResult::Shed;
    }

    int readyIndex = -1;
    {
        core::MutexLock lock(mutex_);
        if (closed_)
            return SubmitResult::Closed;
        const auto found = plannedBatchOf_.find(request.id);
        if (found == plannedBatchOf_.end()) {
            plannedRejected_ += 1;
            return SubmitResult::UnknownId;
        }
        const int batch = found->second;
        PlannedBatch &p = pending_[static_cast<std::size_t>(batch)];
        for (const Request &r : p.arrived)
            if (r.id == request.id) {
                plannedRejected_ += 1;
                return SubmitResult::UnknownId; // duplicate
            }
        if (p.enqueued) {
            plannedRejected_ += 1;
            return SubmitResult::Closed; // batch already flushed
        }
        p.arrived.push_back(request);
        if (static_cast<int>(p.arrived.size()) == p.expected) {
            p.enqueued = true;
            ready_.push_back(batch);
            readyIndex = batch;
        }
    }
    if (readyIndex >= 0)
        stateCv_.notify_all();
    return SubmitResult::Accepted;
}

bool
ServingEndpoint::nextPlannedBatch(int *batchIndex,
                                  std::vector<Request> *members)
{
    core::MutexLock lock(mutex_);
    while (!closed_ && ready_.empty())
        stateCv_.wait(lock.native());
    if (ready_.empty())
        return false; // closed and drained
    const int bi = ready_.front();
    ready_.pop_front();
    PlannedBatch &p = pending_[static_cast<std::size_t>(bi)];
    *batchIndex = bi;
    *members = std::move(p.arrived);
    p.arrived.clear();
    return true;
}

void
ServingEndpoint::workerLoop(WorkerState &w)
{
    std::vector<Request> members;
    std::vector<int> ids;
    if (options_.batching == BatchingMode::Dynamic) {
        while (queue_->popBatch(options_.policy, &members)) {
            ids.clear();
            for (const Request &r : members)
                ids.push_back(r.id);
            const double digest = w.task->serveBatch(ids);
            w.digestFold += digest;
            complete(w, members, digest, -1,
                     static_cast<int>(ids.size()));
        }
        return;
    }

    int bi = -1;
    while (nextPlannedBatch(&bi, &members)) {
        const auto &planned =
            options_.plan[static_cast<std::size_t>(bi)].ids;
        if (members.size() == planned.size()) {
            // Complete batch: execute the exact planned composition,
            // in plan order — the replay-digest contract.
            ids = planned;
        } else {
            // Drain-flushed partial batch: the arrived subset, in
            // plan order (deterministic given who arrived).
            ids.clear();
            for (const int id : planned)
                for (const Request &r : members)
                    if (r.id == id) {
                        ids.push_back(id);
                        break;
                    }
        }
        const double digest = w.task->serveBatch(ids);
        // Slot bi belongs to the worker that popped batch bi.
        plannedDigestSlots_[static_cast<std::size_t>(bi)] = digest;
        plannedRanSlots_[static_cast<std::size_t>(bi)] = 1;
        complete(w, members, digest, bi, static_cast<int>(ids.size()));
    }
}

void
ServingEndpoint::complete(WorkerState &w,
                          const std::vector<Request> &members,
                          double digest, long batchIndex, int batchSize)
{
    // One timestamp for the whole batch, before any callback runs: a
    // slow callback (a socket send) must not count against the
    // latency of the members after it.
    const auto end = Clock::now();
    w.batchSizeCounts[static_cast<std::size_t>(batchSize - 1)] += 1;
    w.batches += 1;
    w.served += members.size();
    for (const Request &r : members) {
        const double lat =
            std::chrono::duration<double, std::micro>(end - r.enqueue)
                .count();
        w.latency.record(lat);
        if (onComplete_)
            onComplete_({r.id, digest, batchIndex, batchSize, lat});
    }
}

void
ServingEndpoint::finish()
{
    for (const auto &w : workers_) {
        latency_.merge(w->latency);
        for (std::size_t s = 0; s < w->batchSizeCounts.size(); ++s)
            batchSizeCounts_[s] += w->batchSizeCounts[s];
        completed_ += w->served;
        batchesServed_ += w->batches;
        if (trace_)
            trace_->merge(w->trace);
    }
    if (options_.batching == BatchingMode::Planned) {
        // Batch-index-order fold, regardless of execution order.
        sessionDigest_ = 0.0;
        for (std::size_t b = 0; b < plannedDigestSlots_.size(); ++b)
            if (plannedRanSlots_[b])
                sessionDigest_ += plannedDigestSlots_[b];
    } else {
        for (const auto &w : workers_)
            sessionDigest_ += w->digestFold;
    }
}

void
ServingEndpoint::close()
{
    {
        core::MutexLock lock(mutex_);
        closed_ = true;
        // Flush partially-arrived planned batches: a connection that
        // died mid-trace must not wedge the drain. Empty batches are
        // simply skipped.
        for (std::size_t b = 0; b < pending_.size(); ++b) {
            PlannedBatch &p = pending_[b];
            if (!p.enqueued && !p.arrived.empty()) {
                p.enqueued = true;
                ready_.push_back(static_cast<int>(b));
            }
        }
    }
    if (queue_)
        queue_->close();
    stateCv_.notify_all();
}

void
ServingEndpoint::awaitClosed()
{
    core::MutexLock lock(mutex_);
    while (!closed_)
        stateCv_.wait(lock.native());
}

void
ServingEndpoint::drain()
{
    if (drained_)
        return;
    close();
    if (coordinator_.joinable())
        coordinator_.join();
    finish();
    drained_ = true;
    if (workerError_)
        std::rethrow_exception(workerError_);
}

std::uint64_t
ServingEndpoint::rejected() const
{
    if (queue_)
        return queue_->rejected();
    core::MutexLock lock(mutex_);
    return plannedRejected_;
}

int
ServingEndpoint::peakQueueDepth() const
{
    return queue_ ? queue_->peakDepth() : 0;
}

} // namespace aib::serve
