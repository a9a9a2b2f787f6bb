/**
 * @file
 * The `serve-pipeline` workload: the SCN-MEDIA scenario (DC-AI-C1 ->
 * DC-AI-C12 DAG) behind an in-process serve::ServingEndpoint with
 * dynamic batching. The benchmark calls submit() on a seeded
 * open-loop schedule at a light and a heavy rate and times each
 * request from its scheduled time to its completion callback.
 * No-grad conv forward kernels and the dag executor do nearly all
 * the work; no net code and no backward pass run.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/registry.h"
#include "dag/scenario.h"
#include "profiler/trace.h"
#include "serve/endpoint.h"
#include "serve/engine.h"
#include "serving.h"
#include "stats.h"
#include "tensor/alloctrack.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace aib;

constexpr const char *kScenario = "SCN-MEDIA";
constexpr double kLightQps = 300.0;
constexpr double kHeavyQps = 800.0;
constexpr int kWorkers = 2;
constexpr int kPlannedQueries = 48;

const core::ComponentBenchmark &
lookup(const char *id)
{
    const core::ComponentBenchmark *b = std::strncmp(id, "SCN-", 4) == 0
                                            ? dag::findScenario(id)
                                            : core::findBenchmark(id);
    if (!b)
        throw std::runtime_error(std::string("unknown benchmark ") + id);
    return *b;
}

/**
 * Completion slots, one per request id, written once by the worker
 * that served the request and read by the generator after it saw the
 * completion count (release/acquire) reach the phase's total.
 */
struct Completions {
    explicit Completions(std::size_t n) : recs(n) {}
    std::vector<RequestRecord> recs;
    std::atomic<std::uint64_t> count{0};
};

serve::EndpointOptions
endpointOptions(std::uint64_t seed)
{
    serve::EndpointOptions o;
    o.workers = kWorkers;
    o.policy = fixedBatchPolicy();
    o.seed = seed;
    o.batching = serve::BatchingMode::Dynamic;
    return o;
}

std::unique_ptr<serve::ServingEndpoint>
makeEndpoint(std::uint64_t seed, Completions &done)
{
    return std::make_unique<serve::ServingEndpoint>(
        lookup(kScenario), endpointOptions(seed),
        [&done](const serve::EndpointCompletion &c) {
            RequestRecord &r = done.recs[static_cast<std::size_t>(c.id)];
            r.done = Clock::now();
            r.serverUs = c.serverLatencyUs;
            r.batchSize = c.batchSize;
            r.answered = true;
            r.ok = true;
            done.count.fetch_add(1, std::memory_order_release);
        });
}

/**
 * Drive one phase: submit request ids firstId.. on schedule and wait
 * (up to 5 s after the last due time) until all accepted ones
 * completed. Returns the phase's records.
 */
std::vector<RequestRecord>
runPhase(serve::ServingEndpoint &ep, Completions &done, const Phase &phase,
         std::size_t firstId, std::uint64_t *expected, SpanLog &log)
{
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < phase.count(); ++i) {
        const std::size_t id = firstId + i;
        const auto due = start + std::chrono::nanoseconds(
                                     static_cast<long long>(phase.offsetsUs[i] * 1000.0));
        waitUntil(due);
        RequestRecord &r = done.recs[id];
        r.due = due;
        serve::Request req;
        req.id = static_cast<int>(id);
        req.arrivalUs = phase.offsetsUs[i];
        req.enqueue = Clock::now();
        r.sent = req.enqueue;
        const int span = log.open("serve.submit", static_cast<std::int64_t>(id));
        const serve::SubmitResult verdict = ep.submit(req);
        log.close(span);
        if (verdict == serve::SubmitResult::Accepted)
            *expected += 1;
        else
            r.answered = true; // refused: counted as failed, ok stays false
    }
    const auto deadline = start + std::chrono::nanoseconds(static_cast<long long>(
                                      (phase.count() ? phase.offsetsUs.back() : 0.0) * 1000.0)) +
                          std::chrono::seconds(5);
    while (done.count.load(std::memory_order_acquire) < *expected && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (done.count.load(std::memory_order_acquire) < *expected)
        throw std::runtime_error("serve-pipeline: completions timed out");
    return {done.recs.begin() + static_cast<std::ptrdiff_t>(firstId),
            done.recs.begin() + static_cast<std::ptrdiff_t>(firstId + phase.count())};
}

struct PassResult {
    std::vector<std::vector<RequestRecord>> recs; ///< per phase
    std::vector<double> cpuMsPerReq; ///< per phase, program only
};

PassResult
runPass(serve::ServingEndpoint &ep, Completions &done, const std::vector<Phase> &phases,
        std::size_t *nextId, std::uint64_t *expected, SpanLog &log)
{
    GeneratorCpu pin;
    PassResult out;
    for (const Phase &p : phases) {
        const double c0 = processCpuSeconds(), g0 = threadCpuSeconds();
        out.recs.push_back(runPhase(ep, done, p, *nextId, expected, log));
        // The program's CPU: the process minus the generator thread.
        out.cpuMsPerReq.push_back((processCpuSeconds() - c0 - (threadCpuSeconds() - g0)) *
                                  1000.0 / static_cast<double>(p.count()));
        *nextId += p.count();
    }
    return out;
}

std::size_t
totalRequests(const std::vector<Phase> &phases)
{
    std::size_t n = 0;
    for (const Phase &p : phases)
        n += p.count();
    return n;
}

/**
 * A planned-batch pass through the endpoint: its batch-order digest
 * fold must equal serve::replayTrace's on the same plan bitwise.
 */
void
checkPlannedReplay(Report &report, std::uint64_t seed, std::uint64_t endpointSeed)
{
    const std::vector<double> trace =
        poissonScheduleUs(deriveSeed(seed, 5), kHeavyQps, kPlannedQueries);
    serve::EndpointOptions o = endpointOptions(endpointSeed);
    o.batching = serve::BatchingMode::Planned;
    o.plan = serve::planBatches(trace, o.policy);
    double digest = 0.0;
    std::size_t batches = 0;
    {
        serve::ServingEndpoint ep(lookup(kScenario), o, [](const serve::EndpointCompletion &) {});
        for (int i = 0; i < kPlannedQueries; ++i) {
            serve::Request r;
            r.id = i;
            r.arrivalUs = trace[static_cast<std::size_t>(i)];
            r.enqueue = Clock::now();
            if (ep.submit(r) != serve::SubmitResult::Accepted)
                throw std::runtime_error("planned endpoint refused a request");
        }
        ep.drain();
        digest = ep.sessionDigest();
        batches = ep.batches();
    }
    serve::ServingOptions so;
    so.workers = kWorkers;
    so.policy = o.policy;
    so.queries = kPlannedQueries;
    so.seed = endpointSeed;
    const serve::ReplayResult replay = serve::replayTrace(lookup(kScenario), trace, so);
    double fold = 0.0;
    bool samePlan = replay.batches.size() == o.plan.size();
    for (std::size_t b = 0; b < replay.batches.size(); ++b) {
        fold += replay.batches[b].digest;
        samePlan = samePlan && b < o.plan.size() && replay.batches[b].ids == o.plan[b].ids;
    }
    report.check(samePlan && batches == o.plan.size() &&
                     std::memcmp(&fold, &digest, sizeof(double)) == 0,
                 "serve-pipeline: planned pass of " + std::to_string(o.plan.size()) +
                     " batches folds to the serve::replayTrace digest bitwise");
}

/** Median of @p reps timings of @p fn, in ms. */
template <typename Fn>
double
medianMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(ms);
}

std::vector<int>
idsOf(int n, int base)
{
    std::vector<int> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(base + i);
    return ids;
}

/** The traced run's standalone layer probes and the metrics they give. */
void
emitLayerProbes(Report &report, std::uint64_t seed, const std::vector<RequestRecord> &heavy,
                SpanLog &log)
{
    auto c1 = serve::buildReplica(lookup("DC-AI-C1"), seed, 0, 2);
    auto c12 = serve::buildReplica(lookup("DC-AI-C12"), seed, 0, 2);
    auto scnTask = serve::buildReplica(lookup(kScenario), seed, 0, 2);
    auto *scn = dynamic_cast<dag::ScenarioTask *>(scnTask.get());
    if (!scn)
        throw std::runtime_error("SCN-MEDIA replica is not a ScenarioTask");
    constexpr int kReps = 15;

    for (const auto &[key, task] : {std::pair{"c1", c1.get()}, std::pair{"c12", c12.get()}}) {
        for (const int b : {1, 8}) {
            const std::vector<int> ids = idsOf(b, 0);
            const double ms = medianMs(kReps, [&] {
                ScopedSpan span(log, "models.serve_batch", b);
                task->serveBatch(ids);
            });
            report.metric(std::string("models.serve_batch_ms.") + key + ".b" + std::to_string(b),
                          ms, "ms");
        }
    }

    // dag overhead: the pipeline's executeBatch minus its two
    // components' serveBatch on the same ids, median over reps.
    std::vector<double> overhead;
    for (int r = 0; r < kReps; ++r) {
        const std::vector<int> ids = idsOf(1, r);
        const auto t0 = Clock::now();
        {
            ScopedSpan span(log, "dag.execute_batch", r);
            scn->executeBatch(ids);
        }
        const auto t1 = Clock::now();
        c1->serveBatch(ids);
        c12->serveBatch(ids);
        overhead.push_back(msBetween(t0, t1) - msBetween(t1, Clock::now()));
    }
    report.metric("dag.overhead_ms", median(overhead), "ms");

    // Service time per batch size, to split server latency into
    // queue wait + service (both from the benchmark's clock).
    std::vector<double> serviceMs(9, 0.0);
    std::vector<std::uint64_t> sizeCount(9, 0);
    for (const RequestRecord &r : heavy)
        if (r.ok && r.batchSize >= 1 && r.batchSize <= 8)
            sizeCount[static_cast<std::size_t>(r.batchSize)] += 1;
    aib::profiler::TraceSession kernels;
    double launches = 0, allocs = 0, queries = 0;
    for (int b = 1; b <= 8; ++b) {
        const std::vector<int> ids = idsOf(b, 100);
        serviceMs[static_cast<std::size_t>(b)] = medianMs(5, [&] {
            ScopedSpan span(log, "serve.service_probe", b);
            scn->serveBatch(ids);
        });
        // Kernel launches and tensor allocations of one batch of b,
        // weighted by how many heavy-phase requests rode in batches of b.
        kernels.clear();
        const auto before = aib::alloctrack::snapshot().totalTensors;
        {
            aib::profiler::ScopedTrace trace(kernels);
            scn->serveBatch(ids);
        }
        const double perQuery = static_cast<double>(sizeCount[static_cast<std::size_t>(b)]) / b;
        launches += perQuery * static_cast<double>(kernels.totalLaunches());
        allocs += perQuery *
                  static_cast<double>(aib::alloctrack::snapshot().totalTensors - before);
        queries += static_cast<double>(sizeCount[static_cast<std::size_t>(b)]);
    }
    std::vector<double> wait;
    for (const RequestRecord &r : heavy)
        if (r.ok && r.batchSize >= 1 && r.batchSize <= 8)
            wait.push_back(std::max(
                0.0, r.serverUs / 1000.0 - serviceMs[static_cast<std::size_t>(r.batchSize)]));
    report.metric("serve.queue_wait_p50_ms", median(wait), "ms");
    report.metric("serve.batch_size_mean", batchSizeMean(heavy), "count");
    report.metric("tensor.launches_per_query", launches / queries, "count");
    report.metric("tensor.allocs_per_query", allocs / queries, "count");
}

} // namespace

void
runServePipeline(const RunArgs &args, Report &report)
{
    tightenTimerSlack();
    const std::uint64_t endpointSeed = deriveSeed(args.seed, 1);
    const double passSeconds = args.trace ? args.seconds / 2 : args.seconds;
    const std::vector<Phase> plainPhases =
        planPhases(deriveSeed(args.seed, 2), passSeconds, kLightQps, kHeavyQps);
    std::vector<Phase> tracedPhases;
    if (args.trace)
        tracedPhases = planPhases(deriveSeed(args.seed, 3), passSeconds, kLightQps, kHeavyQps);
    Completions done(totalRequests(plainPhases) + totalRequests(tracedPhases));

    std::vector<double> setupS;
    std::unique_ptr<serve::ServingEndpoint> ep;
    const auto timeSetups = [&] {
        for (int i = 0; i < kSetups; ++i) {
            if (ep)
                ep->drain();
            ep.reset();
            const auto t0 = Clock::now();
            ep = makeEndpoint(endpointSeed, done);
            setupS.push_back(secondsBetween(t0, Clock::now()));
        }
    };
    timeSetups();

    SpanLog off(false);
    SpanLog log(args.trace);
    std::size_t nextId = 0;
    std::uint64_t expected = 0;
    const PassResult plain = runPass(*ep, done, plainPhases, &nextId, &expected, off);
    const std::size_t tracedFirst = nextId;
    PassResult traced;
    if (args.trace)
        traced = runPass(*ep, done, tracedPhases, &nextId, &expected, log);
    ep->drain();
    const std::uint64_t rejected = ep->rejected();
    const std::uint64_t completed = ep->completed();
    ep.reset();
    timeSetups(); // these endpoints serve nothing
    ep->drain();
    ep.reset();

    const PassResult &shown = args.trace ? traced : plain;
    const char *names[] = {"warmup", "light", "heavy"};
    for (std::size_t p = 0; p < shown.recs.size(); ++p)
        countPhase(report, names[p], shown.recs[p]);
    report.check(completed + rejected == nextId,
                 "serve-pipeline: endpoint completed+rejected = submitted (" +
                     std::to_string(completed) + "+" + std::to_string(rejected) + ")");
    const Measured m = measured(report, "serve-pipeline", shown.recs[1], shown.recs[2]);
    checkPlannedReplay(report, args.seed, endpointSeed);

    if (!args.trace) {
        emitServingEndToEnd(report, m.light, m.heavy, plain.cpuMsPerReq, setupS);
        return;
    }

    // Request spans: scheduled time -> completion, with the server's
    // own submit->served interval as a child.
    for (std::size_t id = tracedFirst; id < nextId; ++id) {
        const RequestRecord &r = done.recs[id];
        if (!r.ok)
            continue;
        const auto req = static_cast<std::int64_t>(id);
        const int root = log.add("serve.request", r.due, r.done, -1, req);
        log.add("serve.server", r.sent,
                r.sent + std::chrono::nanoseconds(static_cast<long long>(r.serverUs * 1000.0)),
                root, req);
    }
    emitLayerProbes(report, endpointSeed, m.heavy, log);
    report.metric("client.late_ratio", m.all.share, "ratio");
    report.metric("client.max_late_ms", m.all.maxMs, "ms");
    emitServingTails(report, m.light, m.heavy, plain.cpuMsPerReq.at(1));
    const double untraced = median(latenciesMs(quietWindows(plain.recs[2])));
    report.metric("trace.overhead_pct",
                  100.0 * (median(latenciesMs(m.heavy)) - untraced) / untraced, "%");
    if (!args.traceOut.empty())
        log.writeJson(args.traceOut);
}

} // namespace perfbench
