/**
 * @file
 * ServingEngine behaviour: closed-loop accounting, open-loop
 * overload shedding, option validation, per-model simulated service
 * cost at batch 1, and the determinism guarantees of replay mode —
 * identical batch composition and bitwise-identical model outputs
 * regardless of worker count, a repeatable latency stream, and the
 * >= 2x dynamic-batching win on the simulated device (DC-AI-C1).
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

using namespace aib;
using serve::DriveMode;
using serve::ReplayResult;
using serve::ServingOptions;
using serve::ServingReport;

namespace {

const core::ComponentBenchmark &
c1()
{
    const auto *b = core::findBenchmark("DC-AI-C1");
    EXPECT_NE(b, nullptr);
    return *b;
}

/** Completed queries implied by the batch-size distribution. */
std::uint64_t
queriesInBatches(const ServingReport &report)
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < report.batchSizeCounts.size(); ++s)
        total += report.batchSizeCounts[s] * (s + 1);
    return total;
}

} // namespace

TEST(ServingEngine, RejectsNonsensicalOptions)
{
    ServingOptions options;
    options.workers = 0;
    EXPECT_THROW(serve::serveBenchmark(c1(), options),
                 std::invalid_argument);

    options = ServingOptions();
    options.queries = 0;
    EXPECT_THROW(serve::serveBenchmark(c1(), options),
                 std::invalid_argument);

    options = ServingOptions();
    options.mode = DriveMode::OpenLoop;
    options.qps = 0.0;
    EXPECT_THROW(serve::serveBenchmark(c1(), options),
                 std::invalid_argument);

    // The endpoint's own checks reach serveBenchmark's caller.
    options = ServingOptions();
    options.mode = DriveMode::OpenLoop;
    options.queueCapacity = 0;
    EXPECT_THROW(serve::serveBenchmark(c1(), options),
                 std::invalid_argument);
}

TEST(ServingEngine, ClosedLoopServesEveryQuery)
{
    ServingOptions options;
    options.mode = DriveMode::ClosedLoop;
    options.workers = 2;
    options.queries = 24;
    options.policy.maxBatch = 4;

    const ServingReport report =
        serve::serveBenchmark(c1(), options);
    EXPECT_EQ(report.mode, "closed");
    EXPECT_EQ(report.issued, 24);
    EXPECT_EQ(report.completed, 24);
    EXPECT_EQ(report.rejected, 0);
    EXPECT_EQ(report.latency.count(), 24u);
    EXPECT_EQ(queriesInBatches(report), 24u);
    EXPECT_GT(report.throughputQps, 0.0);
    EXPECT_GT(report.energyPerQueryMj, 0.0);
    EXPECT_GT(report.simServiceMsPerQuery, 0.0);
    EXPECT_GE(report.latency.maxUs(), report.latency.minUs());
}

TEST(ServingEngine, OpenLoopOverloadShedsInsteadOfQueueing)
{
    // A flood (effectively simultaneous arrivals) against a
    // one-worker engine with a tiny admission queue: the engine must
    // reject the excess at admission, never queue it unboundedly,
    // and account for every issued request exactly once.
    ServingOptions options;
    options.mode = DriveMode::OpenLoop;
    options.qps = 1e6;
    options.queries = 40;
    options.workers = 1;
    options.queueCapacity = 4;
    options.policy.maxBatch = 2;
    options.policy.maxDelayUs = 100;

    const ServingReport report =
        serve::serveBenchmark(c1(), options);
    EXPECT_EQ(report.mode, "open");
    EXPECT_EQ(report.issued, 40);
    EXPECT_GT(report.rejected, 0);
    EXPECT_EQ(report.completed + report.rejected, report.issued);
    EXPECT_LE(report.peakQueueDepth, options.queueCapacity);
    EXPECT_EQ(report.latency.count(),
              static_cast<std::uint64_t>(report.completed));
    EXPECT_DOUBLE_EQ(report.openLoopQps, 1e6);
}

TEST(ServingEngine, ReplayCompositionAndDigestsIgnoreWorkerCount)
{
    const std::vector<double> trace =
        serve::poissonTrace(/*seed=*/11, /*qps=*/4000.0,
                            /*queries=*/24);

    ServingOptions options;
    options.seed = 5;
    options.policy.maxBatch = 4;
    options.policy.maxDelayUs = 1500;

    ReplayResult reference;
    bool have_reference = false;
    for (const int workers : {1, 2, 4}) {
        options.workers = workers;
        const ReplayResult run =
            serve::replayTrace(c1(), trace, options);
        ASSERT_EQ(run.report.completed, 24) << workers;
        if (!have_reference) {
            reference = run;
            have_reference = true;
            continue;
        }
        ASSERT_EQ(run.batches.size(), reference.batches.size())
            << workers;
        for (std::size_t b = 0; b < run.batches.size(); ++b) {
            EXPECT_EQ(run.batches[b].ids, reference.batches[b].ids)
                << "workers=" << workers << " batch=" << b;
            // Bitwise: replicas are built from the same seed and
            // inputs are pure functions of the request ids, so the
            // digest must not depend on which worker ran the batch.
            EXPECT_EQ(run.batches[b].digest,
                      reference.batches[b].digest)
                << "workers=" << workers << " batch=" << b;
        }
    }
}

TEST(ServingEngine, ReplayLatencyStreamIsRepeatable)
{
    const std::vector<double> trace =
        serve::poissonTrace(/*seed=*/23, /*qps=*/2500.0,
                            /*queries=*/16);

    ServingOptions options;
    options.workers = 2;
    options.seed = 9;
    options.policy.maxBatch = 4;

    const ReplayResult a = serve::replayTrace(c1(), trace, options);
    const ReplayResult b = serve::replayTrace(c1(), trace, options);
    ASSERT_EQ(a.latencyUs.size(), trace.size());
    ASSERT_EQ(b.latencyUs.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << "request " << i;
        EXPECT_GT(a.latencyUs[i], 0.0) << "request " << i;
    }
    EXPECT_EQ(a.report.latency.percentileUs(99.0),
              b.report.latency.percentileUs(99.0));
    EXPECT_EQ(a.report.energyPerQueryMj, b.report.energyPerQueryMj);
}

TEST(ServingEngine, DynamicBatchingHalvesSimulatedServiceTime)
{
    // The acceptance bar: on the simulated device (the domain the
    // paper's energy-per-query metric lives in, where per-kernel
    // launch overhead is explicit) dynamic batching must be at least
    // 2x cheaper per query than forced batch-1 serving under a
    // saturating burst. C1 has a real batched forward path.
    const std::vector<double> trace =
        serve::uniformTrace(/*qps=*/1e5, /*queries=*/32);

    ServingOptions options;
    options.workers = 2;
    options.policy.maxDelayUs = 2000;

    options.policy.maxBatch = 8;
    const ReplayResult batched =
        serve::replayTrace(c1(), trace, options);
    EXPECT_DOUBLE_EQ(batched.report.meanBatchSize(), 8.0);

    options.policy.maxBatch = 1;
    const ReplayResult unbatched =
        serve::replayTrace(c1(), trace, options);
    EXPECT_DOUBLE_EQ(unbatched.report.meanBatchSize(), 1.0);

    ASSERT_GT(batched.report.simServiceMsPerQuery, 0.0);
    EXPECT_GE(unbatched.report.simServiceMsPerQuery,
              2.0 * batched.report.simServiceMsPerQuery)
        << "dynamic batching must amortize per-kernel overhead";
    EXPECT_GE(unbatched.report.energyPerQueryMj,
              2.0 * batched.report.energyPerQueryMj);
}

TEST(ServingEngine, HeavierModelHasHigherSimulatedServiceTime)
{
    // Batch-1 closed loop, one worker: the per-query simulated
    // service time is the single-query inference cost on the device.
    ServingOptions options;
    options.mode = DriveMode::ClosedLoop;
    options.workers = 1;
    options.policy.maxBatch = 1;
    options.concurrency = 1;
    options.queries = 4;
    const ServingReport light = serve::serveBenchmark(
        *core::findBenchmark("DC-AI-C16"), options);
    const ServingReport heavy = serve::serveBenchmark(
        *core::findBenchmark("DC-AI-C9"), options);
    ASSERT_EQ(light.completed, 4);
    ASSERT_EQ(heavy.completed, 4);
    EXPECT_GT(light.simServiceMsPerQuery, 0.0);
    EXPECT_GT(heavy.simServiceMsPerQuery, light.simServiceMsPerQuery);
}

TEST(ServingEngine, DefaultServePathCoversUnbatchedTasks)
{
    // Benchmarks without a batched forward still serve correctly
    // through the default per-request loop (C2 is a GAN task with no
    // supportsBatchedServe override).
    const auto *b = core::findBenchmark("DC-AI-C2");
    ASSERT_NE(b, nullptr);
    ServingOptions options;
    options.workers = 2;
    options.queries = 12;
    options.policy.maxBatch = 4;
    const ServingReport report = serve::serveBenchmark(*b, options);
    EXPECT_EQ(report.completed, 12);
    EXPECT_EQ(report.rejected, 0);
    EXPECT_EQ(report.latency.count(), 12u);
}
