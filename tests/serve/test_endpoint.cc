/**
 * @file
 * ServingEndpoint driven directly: the planned-mode digest fold
 * against replayTrace, the submit verdicts (UnknownId, duplicate,
 * flushed batch), shedding accounting in dynamic mode, option
 * validation, the per-batch completion timestamp, and the tracing
 * convention (serving kernels merged into the constructing thread's
 * session at drain; replica construction untraced).
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "profiler/trace.h"
#include "serve/endpoint.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

using namespace aib;
using serve::BatchingMode;
using serve::EndpointCompletion;
using serve::EndpointOptions;
using serve::Request;
using serve::ServingEndpoint;
using serve::SubmitResult;

namespace {

using Clock = std::chrono::steady_clock;

const core::ComponentBenchmark &
c1()
{
    const auto *b = core::findBenchmark("DC-AI-C1");
    EXPECT_NE(b, nullptr);
    return *b;
}

Request
requestAt(int id, Clock::time_point enqueue)
{
    Request r;
    r.id = id;
    r.enqueue = enqueue;
    return r;
}

EndpointOptions
plannedOptions(std::vector<serve::BatchPlan> plan)
{
    EndpointOptions o;
    o.workers = 2;
    o.batching = BatchingMode::Planned;
    o.plan = std::move(plan);
    return o;
}

/** Spin (yielding) until @p count reaches @p target. */
void
waitFor(const std::atomic<int> &count, int target)
{
    while (count.load(std::memory_order_acquire) < target)
        std::this_thread::yield();
}

} // namespace

TEST(ServingEndpoint, PlannedFoldEqualsReplayFoldBitwise)
{
    const std::vector<double> trace =
        serve::poissonTrace(/*seed=*/11, /*qps=*/4000.0,
                            /*queries=*/24);
    EndpointOptions o;
    o.workers = 2;
    o.seed = 5;
    o.policy.maxBatch = 4;
    o.policy.maxDelayUs = 1500;
    o.batching = BatchingMode::Planned;
    o.plan = serve::planBatches(trace, o.policy);

    ServingEndpoint endpoint(c1(), o, nullptr);
    // Reverse arrival order: the plan, not the arrival interleaving,
    // fixes each batch's composition.
    for (int id = 23; id >= 0; --id)
        ASSERT_EQ(endpoint.submit(requestAt(id, Clock::now())),
                  SubmitResult::Accepted);
    endpoint.drain();
    EXPECT_EQ(endpoint.completed(), 24u);
    EXPECT_EQ(endpoint.batches(), o.plan.size());

    serve::ServingOptions so;
    so.workers = 2;
    so.seed = 5;
    so.policy = o.policy;
    const serve::ReplayResult replay = serve::replayTrace(c1(), trace, so);
    ASSERT_EQ(replay.batches.size(), o.plan.size());
    double fold = 0.0;
    for (const serve::ReplayBatch &b : replay.batches)
        fold += b.digest;
    const double digest = endpoint.sessionDigest();
    EXPECT_EQ(std::memcmp(&fold, &digest, sizeof(double)), 0);
}

TEST(ServingEndpoint, PlannedVerdictsAndFlush)
{
    std::atomic<int> done{0};
    std::vector<EndpointCompletion> seen(4);
    ServingEndpoint endpoint(
        c1(), plannedOptions({{{0, 1}, 0.0}, {{2, 3}, 0.0}}),
        [&](const EndpointCompletion &c) {
            seen[static_cast<std::size_t>(c.id)] = c;
            done.fetch_add(1, std::memory_order_release);
        });
    const auto now = Clock::now();

    EXPECT_EQ(endpoint.submit(requestAt(99, now)),
              SubmitResult::UnknownId);
    EXPECT_EQ(endpoint.submit(requestAt(0, now)), SubmitResult::Accepted);
    EXPECT_EQ(endpoint.submit(requestAt(0, now)),
              SubmitResult::UnknownId); // duplicate
    EXPECT_EQ(endpoint.submit(requestAt(1, now)), SubmitResult::Accepted);
    // Batch 0 is complete; once served, a member arriving again
    // meets a batch that has already been dispatched.
    waitFor(done, 2);
    EXPECT_EQ(endpoint.submit(requestAt(1, now)), SubmitResult::Closed);

    // Batch 1 is only half there: drain flushes the arrived member.
    EXPECT_EQ(endpoint.submit(requestAt(2, now)), SubmitResult::Accepted);
    endpoint.drain();
    EXPECT_EQ(endpoint.submit(requestAt(3, now)), SubmitResult::Closed);

    EXPECT_EQ(endpoint.completed(), 3u);
    EXPECT_EQ(endpoint.batches(), 2u);
    EXPECT_EQ(endpoint.rejected(), 3u);
    EXPECT_EQ(seen[0].batchIndex, 0);
    EXPECT_EQ(seen[1].batchSize, 2);
    EXPECT_EQ(seen[2].batchIndex, 1);
    EXPECT_EQ(seen[2].batchSize, 1);
    EXPECT_EQ(endpoint.batchSizeCounts()[0], 1u);
    EXPECT_EQ(endpoint.batchSizeCounts()[1], 1u);
}

TEST(ServingEndpoint, DynamicSheddingAccountsForEverySubmit)
{
    // One worker held inside its first completion callback, a queue
    // of two: at most three of the 40 submits can be admitted, and
    // every submit is either served or shed.
    EndpointOptions o;
    o.workers = 1;
    o.queueCapacity = 2;
    o.policy.maxBatch = 1;
    o.policy.maxDelayUs = 0;
    std::atomic<bool> release{false};
    ServingEndpoint endpoint(c1(), o, [&](const EndpointCompletion &) {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });

    int accepted = 0, shed = 0;
    for (int id = 0; id < 40; ++id) {
        const SubmitResult verdict =
            endpoint.submit(requestAt(id, Clock::now()));
        EXPECT_NE(verdict, SubmitResult::Closed);
        (verdict == SubmitResult::Accepted ? accepted : shed) += 1;
    }
    release.store(true, std::memory_order_release);
    endpoint.drain();

    EXPECT_GT(shed, 0);
    EXPECT_LE(accepted, 3);
    EXPECT_EQ(endpoint.completed(), static_cast<std::uint64_t>(accepted));
    EXPECT_EQ(endpoint.rejected(), static_cast<std::uint64_t>(shed));
    EXPECT_EQ(endpoint.completed() + endpoint.rejected(), 40u);
    EXPECT_LE(endpoint.peakQueueDepth(), 2);
}

TEST(ServingEndpoint, RejectsInvalidOptions)
{
    const auto rejects = [](EndpointOptions o) {
        EXPECT_THROW(ServingEndpoint(c1(), std::move(o), nullptr),
                     std::invalid_argument);
    };
    EndpointOptions o;
    o.workers = 0;
    rejects(o);
    o = EndpointOptions();
    o.policy.maxBatch = 0;
    rejects(o);
    o = EndpointOptions();
    o.policy.maxDelayUs = -1;
    rejects(o);
    o = EndpointOptions();
    o.queueCapacity = 0;
    rejects(o);
    rejects(plannedOptions({}));
    rejects(plannedOptions({{{}, 0.0}}));
    rejects(plannedOptions({{{0, 1}, 0.0}, {{1}, 0.0}}));
}

TEST(ServingEndpoint, SlowCallbackDoesNotInflateLaterMembersLatency)
{
    // Three requests with one enqueue time, served as one batch; the
    // callback of the first member sleeps. Each member's latency is
    // taken from the batch's completion, not after its predecessors'
    // callbacks, so all three are bitwise equal.
    constexpr auto kSleep = std::chrono::milliseconds(50);
    for (const BatchingMode mode :
         {BatchingMode::Dynamic, BatchingMode::Planned}) {
        EndpointOptions o;
        o.workers = 1;
        o.policy.maxBatch = 3;
        o.policy.maxDelayUs = 10'000'000; // dispatch only when full
        o.batching = mode;
        if (mode == BatchingMode::Planned)
            o.plan = {{{0, 1, 2}, 0.0}};
        std::vector<double> latencyUs(3, 0.0);
        std::atomic<int> calls{0};
        ServingEndpoint endpoint(c1(), o, [&](const EndpointCompletion &c) {
            if (calls.fetch_add(1) == 0)
                std::this_thread::sleep_for(kSleep);
            latencyUs[static_cast<std::size_t>(c.id)] = c.serverLatencyUs;
        });
        const auto t0 = Clock::now();
        for (int id = 0; id < 3; ++id)
            ASSERT_EQ(endpoint.submit(requestAt(id, t0)),
                      SubmitResult::Accepted);
        endpoint.drain();
        ASSERT_EQ(endpoint.batches(), 1u);
        EXPECT_EQ(latencyUs[1], latencyUs[0]);
        EXPECT_EQ(latencyUs[2], latencyUs[0]);
        EXPECT_EQ(endpoint.latency().maxUs(), latencyUs[0]);
    }
}

TEST(ServingEndpoint, MergesServingKernelsIntoTheCallerSessionAtDrain)
{
    const std::vector<serve::BatchPlan> plan = {{{0, 1, 2}, 0.0},
                                                {{3, 4}, 0.0}};
    profiler::TraceSession outer;
    {
        profiler::ScopedTrace scope(outer);
        std::atomic<int> done{0};
        ServingEndpoint endpoint(
            c1(), plannedOptions(plan),
            [&](const EndpointCompletion &) { done.fetch_add(1); });
        EXPECT_EQ(outer.totalLaunches(), 0u)
            << "replica build, training and warmup are not serving work";
        for (int id = 0; id < 5; ++id)
            ASSERT_EQ(endpoint.submit(requestAt(id, Clock::now())),
                      SubmitResult::Accepted);
        waitFor(done, 5);
        EXPECT_EQ(outer.totalLaunches(), 0u)
            << "workers record privately until drain";
        endpoint.drain();
        EXPECT_EQ(profiler::activeSession(), &outer);
    }

    // The merged kernels are exactly those of serving the plan's
    // batches on one replica.
    profiler::TraceSession reference;
    {
        const auto task = serve::buildReplica(c1(), 42, 0, 2);
        profiler::ScopedTrace scope(reference);
        for (const serve::BatchPlan &b : plan)
            (void)task->serveBatch(b.ids);
    }
    ASSERT_GT(reference.totalLaunches(), 0u);
    EXPECT_EQ(outer.totalLaunches(), reference.totalLaunches());
    EXPECT_DOUBLE_EQ(outer.totalFlops(), reference.totalFlops());
    EXPECT_EQ(outer.kernelCount(), reference.kernelCount());
}

TEST(ServingEndpoint, RecordsNothingWithoutACallerSession)
{
    ASSERT_EQ(profiler::activeSession(), nullptr);
    ServingEndpoint endpoint(c1(), plannedOptions({{{0, 1}, 0.0}}),
                             nullptr);
    // A session bound only after construction is not the endpoint's.
    profiler::TraceSession late;
    {
        profiler::ScopedTrace scope(late);
        for (int id = 0; id < 2; ++id)
            ASSERT_EQ(endpoint.submit(requestAt(id, Clock::now())),
                      SubmitResult::Accepted);
        endpoint.drain();
    }
    EXPECT_EQ(endpoint.completed(), 2u);
    EXPECT_EQ(late.totalLaunches(), 0u);
    EXPECT_EQ(profiler::activeSession(), nullptr);
}
