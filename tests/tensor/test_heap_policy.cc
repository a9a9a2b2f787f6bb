/**
 * @file
 * Page-fault regression for tensor storage (arena.h, "Heap policy").
 *
 * Once glibc's mmap and trim thresholds are pinned, a training step's
 * tensor buffers are recycled inside the heap instead of being mapped
 * (or trimmed) and zero-faulted again every step. After one warm-up
 * epoch of DC-AI-C9 at pool width 2, two more epochs must add fewer
 * than 2,000 minor page faults; with glibc's dynamic thresholds they
 * add about 42,000. The policy is glibc's and sanitizers replace the
 * allocator, so the test is skipped elsewhere.
 */

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/thread_pool.h"

namespace {

using aib::core::ThreadPool;

/** Restore the default global pool size after the test. */
struct PoolGuard {
    ~PoolGuard() { ThreadPool::setGlobalThreads(0); }
};

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

TEST(HeapPolicy, SteadyStateEpochsDoNotRefaultTensorMemory)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "the pinned heap policy is glibc's";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "a sanitizer replaces the allocator";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "a sanitizer replaces the allocator";
#endif
#endif
    PoolGuard restore;
    ThreadPool::setGlobalThreads(2);
    const auto *benchmark = aib::core::findBenchmark("DC-AI-C9");
    ASSERT_NE(benchmark, nullptr);
    auto task = benchmark->makeTask(42);
    task->runEpoch(); // warm-up: the heap grows to its working set

    const long before = minorFaults();
    task->runEpoch();
    task->runEpoch();
    const long added = minorFaults() - before;
    EXPECT_LT(added, 2000) << "minor page faults in two epochs";
}

} // namespace
