#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.h"
#include "gpusim/kernel_model.h"
#include "profiler/trace.h"
#include "serve/endpoint.h"
#include "serve/loadgen.h"

namespace aib::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Per-worker replay state; never shared across workers. */
struct WorkerState {
    std::unique_ptr<core::TrainableTask> task;
    std::vector<std::uint64_t> batchSizeCounts;
    profiler::TraceSession trace;
    double energyJoules = 0.0;
    std::uint64_t served = 0;
};

/** A report carrying the run's options, before any results. */
ServingReport
reportHeader(const core::ComponentBenchmark &benchmark,
             const ServingOptions &options, const char *mode)
{
    ServingReport report;
    report.benchmarkId = benchmark.info.id;
    report.mode = mode;
    report.workers = options.workers;
    report.maxBatch = options.policy.maxBatch;
    report.maxDelayUs = options.policy.maxDelayUs;
    report.seed = options.seed;
    return report;
}

/** The simulated-device columns from the run's serving kernels. */
void
setSimulatedColumns(ServingReport *report,
                    const profiler::TraceSession &trace,
                    const gpusim::DeviceSpec &device)
{
    if (report->completed <= 0 || trace.totalLaunches() == 0)
        return;
    const gpusim::TraceSimResult sim =
        gpusim::simulateTrace(trace, device);
    const auto completed = static_cast<double>(report->completed);
    report->energyPerQueryMj =
        gpusim::simulatedEnergyJoules(sim, device) * 1e3 / completed;
    report->simServiceMsPerQuery = sim.totalTimeSec * 1e3 / completed;
}

} // namespace

ServingReport
serveBenchmark(const core::ComponentBenchmark &benchmark,
               const ServingOptions &options)
{
    if (options.queries < 1)
        throw std::invalid_argument("serve: queries must be >= 1");
    const bool closed = options.mode == DriveMode::ClosedLoop;
    if (!closed && options.qps <= 0.0)
        throw std::invalid_argument("serve: open loop needs qps > 0");
    const int queries = options.queries;
    const int concurrency = std::min(
        options.concurrency > 0
            ? options.concurrency
            : 2 * options.policy.maxBatch * options.workers,
        queries);

    EndpointOptions eopts;
    eopts.workers = options.workers;
    eopts.policy = options.policy;
    // A closed loop never sheds: its in-flight bound is the queue
    // bound. An open loop sheds at the configured high-water mark.
    eopts.queueCapacity =
        closed ? std::max(options.queueCapacity, concurrency)
               : options.queueCapacity;
    eopts.trainEpochs = options.trainEpochs;
    eopts.warmupQueries = options.warmupQueries;
    eopts.seed = options.seed;

    // The endpoint records its serving kernels into this session and
    // merges them at drain; they feed the simulated columns.
    profiler::TraceSession trace;
    profiler::ScopedTrace scope(trace);

    std::atomic<int> nextId{0};
    std::atomic<int> done{0};
    Clock::time_point run_start;

    // Closed loop: admit the request with the next unissued id, if
    // any. Issue order is the id order; arrivalUs is logical time
    // since run start.
    const auto admitNext = [&](ServingEndpoint &endpoint) {
        const int id = nextId.fetch_add(1, std::memory_order_relaxed);
        if (id >= queries)
            return;
        Request r;
        r.id = id;
        r.enqueue = Clock::now();
        r.arrivalUs =
            std::chrono::duration<double, std::micro>(r.enqueue -
                                                      run_start)
                .count();
        (void)endpoint.submit(r);
    };
    // Completions arrive on the workers. The closed loop replaces
    // each one and stops admitting once every query completed.
    ServingEndpoint endpoint(
        benchmark, eopts, [&](const EndpointCompletion &) {
            if (!closed)
                return;
            admitNext(endpoint);
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                queries)
                endpoint.close();
        });

    run_start = Clock::now();
    if (closed) {
        for (int i = 0; i < concurrency; ++i)
            admitNext(endpoint);
        // Every query completed, or a worker failed; drain() below
        // rethrows the failure.
        endpoint.awaitClosed();
    } else {
        const std::vector<double> arrivals =
            poissonTrace(options.seed, options.qps, queries);
        for (int i = 0; i < queries; ++i) {
            const double at = arrivals[static_cast<std::size_t>(i)];
            std::this_thread::sleep_until(
                run_start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(
                                    at)));
            Request r;
            r.id = i;
            r.arrivalUs = at;
            r.enqueue = Clock::now();
            if (endpoint.submit(r) == SubmitResult::Closed)
                break; // a worker failed; drain() rethrows it
        }
    }
    endpoint.drain();
    const double wall =
        std::chrono::duration<double>(Clock::now() - run_start)
            .count();

    ServingReport report =
        reportHeader(benchmark, options, closed ? "closed" : "open");
    report.issued = queries;
    report.completed = static_cast<int>(endpoint.completed());
    report.rejected = static_cast<int>(endpoint.rejected());
    report.peakQueueDepth = endpoint.peakQueueDepth();
    report.wallSeconds = wall;
    report.throughputQps =
        wall > 0.0 ? static_cast<double>(report.completed) / wall
                   : 0.0;
    if (!closed)
        report.openLoopQps = options.qps;
    report.latency = endpoint.latency();
    report.batchSizeCounts = endpoint.batchSizeCounts();
    setSimulatedColumns(&report, trace, options.device);
    return report;
}

ReplayResult
replayTrace(const core::ComponentBenchmark &benchmark,
            const std::vector<double> &arrivalUs,
            const ServingOptions &options)
{
    const int workers = options.workers;
    if (workers < 1)
        throw std::invalid_argument("replay: workers must be >= 1");
    const std::vector<BatchPlan> plans =
        planBatches(arrivalUs, options.policy);
    const auto n_batches = static_cast<std::int64_t>(plans.size());

    // Replicas are built sequentially on the calling thread: task
    // constructors and runEpoch draw from the process-global RNG.
    std::vector<WorkerState> state(static_cast<std::size_t>(workers));
    for (WorkerState &w : state) {
        w.task = buildReplica(benchmark, options.seed,
                              options.trainEpochs,
                              options.warmupQueries);
        w.batchSizeCounts.assign(
            static_cast<std::size_t>(options.policy.maxBatch), 0);
    }

    ReplayResult result;
    result.batches.resize(plans.size());

    // Execute every batch for real: composition comes from the pure
    // plan, inputs are pure functions of request ids, and replicas
    // are bitwise-identical — so digests are independent of which
    // worker runs which batch. Chunk c executes a contiguous batch
    // range on replica c; per-batch traces feed the simulated
    // service time and energy.
    core::ThreadPool pool(workers);
    pool.parallelForChunked(
        0, n_batches, 1,
        [&](int chunk, std::int64_t b0, std::int64_t b1) {
            WorkerState &w = state[static_cast<std::size_t>(chunk)];
            for (std::int64_t b = b0; b < b1; ++b) {
                const BatchPlan &plan =
                    plans[static_cast<std::size_t>(b)];
                ReplayBatch &out =
                    result.batches[static_cast<std::size_t>(b)];
                out.ids = plan.ids;
                profiler::TraceSession batch_trace;
                {
                    profiler::ScopedTrace scope(batch_trace);
                    out.digest = w.task->serveBatch(plan.ids);
                }
                const gpusim::TraceSimResult sim =
                    gpusim::simulateTrace(batch_trace,
                                          options.device);
                out.serviceUs = sim.totalTimeSec * 1e6;
                w.energyJoules += gpusim::simulatedEnergyJoules(
                    sim, options.device);
                w.trace.merge(batch_trace);
                w.batchSizeCounts[plan.ids.size() - 1] += 1;
                w.served += plan.ids.size();
            }
        });

    // Discrete-event simulation: k identical servers, FCFS in batch
    // order, each batch starting when both it and the
    // earliest-free server are ready. Deterministic in (trace,
    // policy, workers, device).
    result.latencyUs.assign(arrivalUs.size(), 0.0);
    std::vector<double> worker_free(
        static_cast<std::size_t>(workers), 0.0);
    double makespan_us = 0.0;
    for (std::size_t b = 0; b < plans.size(); ++b) {
        std::size_t k = 0;
        for (std::size_t i = 1; i < worker_free.size(); ++i)
            if (worker_free[i] < worker_free[k])
                k = i;
        const double start =
            std::max(plans[b].closeUs, worker_free[k]);
        const double end = start + result.batches[b].serviceUs;
        worker_free[k] = end;
        makespan_us = std::max(makespan_us, end);
        for (const int id : plans[b].ids)
            result.latencyUs[static_cast<std::size_t>(id)] =
                end - arrivalUs[static_cast<std::size_t>(id)];
    }

    ServingReport report = reportHeader(benchmark, options, "replay");
    report.batchSizeCounts.assign(
        static_cast<std::size_t>(options.policy.maxBatch), 0);
    profiler::TraceSession merged;
    std::uint64_t completed = 0;
    for (const WorkerState &w : state) {
        for (std::size_t s = 0; s < w.batchSizeCounts.size(); ++s)
            report.batchSizeCounts[s] += w.batchSizeCounts[s];
        merged.merge(w.trace);
        completed += w.served;
    }
    report.completed = static_cast<int>(completed);
    setSimulatedColumns(&report, merged, options.device);
    report.issued = static_cast<int>(arrivalUs.size());
    report.rejected = 0;
    report.wallSeconds = makespan_us / 1e6;
    report.throughputQps =
        makespan_us > 0.0
            ? static_cast<double>(report.completed) * 1e6 /
                  makespan_us
            : 0.0;
    // Latency histogram from the simulated stream, recorded in id
    // order (order-invariant anyway).
    for (const double us : result.latencyUs)
        report.latency.record(us);
    // Replay energy was accumulated per batch; prefer that exact sum
    // over the merged-trace estimate (identical totals, but keep the
    // per-batch path authoritative).
    double energy_joules = 0.0;
    for (const WorkerState &w : state)
        energy_joules += w.energyJoules;
    if (report.completed > 0)
        report.energyPerQueryMj =
            energy_joules * 1e3 /
            static_cast<double>(report.completed);
    result.report = std::move(report);
    return result;
}

} // namespace aib::serve
