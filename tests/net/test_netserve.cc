/**
 * @file
 * End-to-end loopback sessions: a real NetServer on an ephemeral
 * port, a real multi-connection netbench client (in-thread workers —
 * processes=0 — so the whole exchange runs under one sanitizer), and
 * the contracts the subsystem exists for: the planned-mode network
 * digest equals the in-process replayTrace fold BITWISE, per-worker
 * histograms merge in the parent, both IO models serve the same
 * bytes, scenarios (SCN-*) serve like component benchmarks, dynamic
 * mode sheds under pressure instead of collapsing, and a config
 * fingerprint mismatch dies at the handshake.
 */

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "dag/scenario.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/report.h"
#include "net/server.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

using namespace aib;
using namespace aib::net;

namespace {

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

const core::ComponentBenchmark &
target(const char *id)
{
    if (const auto *b = core::findBenchmark(id))
        return *b;
    const auto *s = dag::findScenario(id);
    EXPECT_NE(s, nullptr) << id;
    return *s;
}

struct SessionConfig {
    const char *benchmarkId = "DC-AI-C1";
    IoMode io = IoMode::Epoll;
    serve::BatchingMode batching = serve::BatchingMode::Planned;
    LoadMode load = LoadMode::Open;
    int queries = 48;
    double qps = 1200.0;
    int connections = 8;
    int workers = 2;
    int queueCapacity = 256;
    int inflight = 4;
    std::uint64_t clientSeed = 42; // != 42 forges a config mismatch
};

struct SessionOutcome {
    NetBenchResult client;
    NetServerStats server;
};

/** The netbench options of @p cfg's client against @p port. */
NetBenchOptions
clientOptions(const SessionConfig &cfg, int port)
{
    NetBenchOptions co;
    co.benchmarkId = cfg.benchmarkId;
    co.port = port;
    co.processes = 0; // in-thread workers: sanitizer-visible
    co.connections = cfg.connections;
    co.queries = cfg.queries;
    co.qps = cfg.qps;
    co.mode = cfg.load;
    co.inflight = cfg.inflight;
    co.seed = cfg.clientSeed;
    co.batching = cfg.batching;
    return co;
}

/** One full loopback session; throws what runNetBench throws. */
SessionOutcome
runLoopback(const SessionConfig &cfg)
{
    const core::ComponentBenchmark &bench = target(cfg.benchmarkId);

    NetServerOptions so;
    so.io = cfg.io;
    so.exitAfterLastClient = true;
    so.endpoint.workers = cfg.workers;
    so.endpoint.queueCapacity = cfg.queueCapacity;
    so.endpoint.seed = 42;
    so.endpoint.batching = cfg.batching;
    if (cfg.batching == serve::BatchingMode::Planned) {
        so.endpoint.plan = serve::planBatches(
            serve::poissonTrace(42, cfg.qps, cfg.queries),
            so.endpoint.policy);
        so.helloQueries = static_cast<std::uint32_t>(cfg.queries);
        so.helloQps = cfg.qps;
    }

    NetServer server(bench, std::move(so));
    server.start();

    SessionOutcome out;
    try {
        out.client = runNetBench(clientOptions(cfg, server.boundPort()));
    } catch (...) {
        server.requestStop();
        server.stop();
        throw;
    }
    server.waitStopped();
    out.server = server.stop();
    return out;
}

/** The in-process ground truth for a planned session's digest. */
double
replayFold(const SessionConfig &cfg)
{
    serve::ServingOptions sopts;
    sopts.workers = cfg.workers;
    sopts.queries = cfg.queries;
    sopts.qps = cfg.qps;
    sopts.seed = 42;
    const serve::ReplayResult replay = serve::replayTrace(
        target(cfg.benchmarkId),
        serve::poissonTrace(42, cfg.qps, cfg.queries), sopts);
    double fold = 0.0;
    for (const serve::ReplayBatch &b : replay.batches)
        fold += b.digest;
    return fold;
}

} // namespace

TEST(NetServe, EpollPlannedDigestMatchesReplayBitwise)
{
    SessionConfig cfg;
    const SessionOutcome out = runLoopback(cfg);

    // Every query made it there and back.
    EXPECT_EQ(out.client.sent, 48u);
    EXPECT_EQ(out.client.replies, 48u);
    EXPECT_EQ(out.client.errors, 0u);
    EXPECT_EQ(out.client.latency.count(), 48u);

    // >= 2 worker histograms merged in the parent (the acceptance
    // criterion: percentiles come from a real merge, not one worker).
    EXPECT_EQ(out.client.workersMerged, 2);

    // The tentpole contract: the fold of per-batch digests observed
    // over TCP is bit-identical to the in-process replay.
    ASSERT_TRUE(out.client.digestComplete);
    EXPECT_EQ(bitsOf(out.client.digest), bitsOf(replayFold(cfg)));

    // Server-side accounting agrees.
    EXPECT_EQ(out.server.completed, 48u);
    EXPECT_EQ(out.server.shed, 0u);
    EXPECT_EQ(bitsOf(out.server.sessionDigest),
              bitsOf(out.client.digest));
    EXPECT_EQ(out.server.serverLatency.count(), 48u);
    ASSERT_EQ(out.server.connections.size(), 8u);
    for (const ConnectionStats &c : out.server.connections) {
        EXPECT_TRUE(c.helloOk);
        EXPECT_TRUE(c.sawBye);
        EXPECT_FALSE(c.faultKilled);
        EXPECT_EQ(c.queries, c.replies);
        EXPECT_GT(c.bytesIn, 0u);
        EXPECT_GT(c.bytesOut, 0u);
    }
}

TEST(NetServe, ThreadsIoServesTheSameDigest)
{
    SessionConfig cfg;
    cfg.io = IoMode::Threads;
    cfg.connections = 6;
    const SessionOutcome out = runLoopback(cfg);

    EXPECT_EQ(out.client.replies, 48u);
    ASSERT_TRUE(out.client.digestComplete);
    EXPECT_EQ(bitsOf(out.client.digest), bitsOf(replayFold(cfg)));
    EXPECT_EQ(out.server.connections.size(), 6u);
}

TEST(NetServe, ScenarioServesOverTheWire)
{
    SessionConfig cfg;
    cfg.benchmarkId = "SCN-MEDIA";
    cfg.queries = 24;
    cfg.connections = 4;
    const SessionOutcome out = runLoopback(cfg);

    EXPECT_EQ(out.client.replies, 24u);
    ASSERT_TRUE(out.client.digestComplete);
    EXPECT_EQ(bitsOf(out.client.digest), bitsOf(replayFold(cfg)));
}

TEST(NetServe, BaselineRunsWithTheServersWorkerCount)
{
    SessionConfig cfg;
    cfg.workers = 1;
    cfg.connections = 2;
    const SessionOutcome out = runLoopback(cfg);
    EXPECT_EQ(out.client.serverWorkers, 1);

    // The in-process baseline is built with the count the HelloAck
    // carried, and the report says which count that was.
    const NetserveReport report = buildNetserveReport(
        target(cfg.benchmarkId), clientOptions(cfg, 0), out.client,
        "epoll", true);
    ASSERT_TRUE(report.haveInprocess);
    EXPECT_EQ(report.inprocess.workers, 1);
    EXPECT_TRUE(report.digestMatch);
    EXPECT_NE(netserveReportToJson(report).find(
                  "\"server_workers\": 1,"),
              std::string::npos);
}

TEST(NetServe, DynamicClosedLoopShedsInsteadOfCollapsing)
{
    SessionConfig cfg;
    cfg.batching = serve::BatchingMode::Dynamic;
    cfg.load = LoadMode::Closed;
    cfg.queries = 64;
    cfg.connections = 4;
    cfg.workers = 1;
    cfg.queueCapacity = 1; // force admission-control shedding
    cfg.inflight = 16;
    const SessionOutcome out = runLoopback(cfg);

    // Every request was resolved one way or the other, some by a
    // typed Shed error, and both sides agree on the split.
    EXPECT_EQ(out.client.replies + out.client.shed, 64u);
    EXPECT_GT(out.client.shed, 0u);
    EXPECT_EQ(out.client.errors, 0u);
    EXPECT_EQ(out.server.shed, out.client.shed);
    EXPECT_EQ(out.server.completed, out.client.replies);
}

TEST(NetServe, ConfigMismatchDiesAtHandshake)
{
    SessionConfig cfg;
    cfg.connections = 2;
    cfg.clientSeed = 43; // plan would diverge; server must refuse
    EXPECT_THROW(runLoopback(cfg), std::runtime_error);
}

TEST(NetServe, ForkedWorkersMatchInThreadWorkers)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "fork from a threaded process under a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "fork from a threaded process under a sanitizer";
#endif
#endif
    // The fork + pipe + blob-merge path must agree with the
    // in-thread path (same options) on everything deterministic.
    const SessionConfig cfg;
    const core::ComponentBenchmark &bench = target(cfg.benchmarkId);

    NetServerOptions so;
    so.exitAfterLastClient = true;
    so.endpoint.workers = 2;
    so.endpoint.batching = serve::BatchingMode::Planned;
    so.endpoint.plan = serve::planBatches(
        serve::poissonTrace(42, cfg.qps, cfg.queries),
        so.endpoint.policy);
    so.helloQueries = static_cast<std::uint32_t>(cfg.queries);
    so.helloQps = cfg.qps;
    NetServer server(bench, std::move(so));
    server.start();

    NetBenchOptions co;
    co.benchmarkId = cfg.benchmarkId;
    co.port = server.boundPort();
    co.processes = 2; // real forks, one pipe each
    co.connections = 4;
    co.queries = cfg.queries;
    co.qps = cfg.qps;
    const NetBenchResult result = runNetBench(co);
    server.waitStopped();
    server.stop();

    EXPECT_EQ(result.workersMerged, 2);
    EXPECT_EQ(result.replies, 48u);
    EXPECT_EQ(result.latency.count(), 48u);
    ASSERT_TRUE(result.digestComplete);
    EXPECT_EQ(bitsOf(result.digest), bitsOf(replayFold(cfg)));
}

// ---- exit-after-last-client linger ----
//
// Regression for a shutdown race: a multi-connection client's first
// connection can finish its whole session (fastest case: a handshake
// refusal or a pure hello/bye) while later connections still sit
// un-accepted in the listen backlog. exitAfterLastClient used to
// stop the server the instant open connections hit zero, stranding
// the backlog — and a stranded client hung forever on its handshake
// read. The fix is twofold: the exit is armed for a linger window a
// fresh accept cancels, and once the server truly stops it closes
// the listen socket so anything left in the backlog is reset instead
// of silently ignored.

namespace {

/** Poll-then-read so a regression fails the test instead of
 *  hanging it. */
bool
readFrameWithin(int fd, Frame *frame, int timeoutMs)
{
    pollfd pfd{fd, POLLIN, 0};
    for (;;) {
        const int n = ::poll(&pfd, 1, timeoutMs);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        return readFrame(fd, frame) == IoStatus::Ok;
    }
}

} // namespace

class NetServeLinger : public ::testing::TestWithParam<IoMode> {};

TEST_P(NetServeLinger, AdmitsAConnectionArrivingAfterTheLastClientLeft)
{
    const core::ComponentBenchmark &bench = target("DC-AI-C1");

    NetServerOptions so;
    so.io = GetParam();
    so.exitAfterLastClient = true;
    so.endpoint.workers = 1;
    so.endpoint.seed = 42;
    so.endpoint.batching = serve::BatchingMode::Dynamic;

    HelloMsg hello;
    hello.benchmarkId = "DC-AI-C1";
    hello.seed = 42;
    hello.batching = 0;
    hello.maxBatch =
        static_cast<std::uint32_t>(so.endpoint.policy.maxBatch);
    hello.maxDelayUs =
        static_cast<std::uint64_t>(so.endpoint.policy.maxDelayUs);

    NetServer server(bench, std::move(so));
    server.start();

    // Session A: hello + bye, over in microseconds — the "last
    // client" as far as an instant exit is concerned.
    {
        std::string err;
        const int fd =
            connectTcp("127.0.0.1", server.boundPort(), &err);
        ASSERT_GE(fd, 0) << err;
        ASSERT_EQ(writeFrame(fd, encodeHello(hello)), IoStatus::Ok);
        Frame f;
        ASSERT_TRUE(readFrameWithin(fd, &f, 5000));
        ASSERT_EQ(f.type, FrameType::HelloAck);
        ASSERT_EQ(writeFrame(fd, encodeBye({0})), IoStatus::Ok);
        ASSERT_TRUE(readFrameWithin(fd, &f, 5000));
        ASSERT_EQ(f.type, FrameType::ByeAck);
        ::close(fd);
    }

    // Well inside the linger window a late connection shows up; it
    // must be accepted and served a real query.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        std::string err;
        const int fd =
            connectTcp("127.0.0.1", server.boundPort(), &err);
        ASSERT_GE(fd, 0) << err;
        ASSERT_EQ(writeFrame(fd, encodeHello(hello)), IoStatus::Ok);
        Frame f;
        ASSERT_TRUE(readFrameWithin(fd, &f, 5000));
        ASSERT_EQ(f.type, FrameType::HelloAck);

        QueryMsg q;
        q.requestId = 1; // exemplar 0 + 1: 0 is connection-fatal
        q.exemplar = 0;
        ASSERT_EQ(writeFrame(fd, encodeQuery(q)), IoStatus::Ok);
        ASSERT_TRUE(readFrameWithin(fd, &f, 5000));
        ASSERT_EQ(f.type, FrameType::Reply);
        ReplyMsg r;
        ASSERT_TRUE(decodeReply(f.payload, &r));
        EXPECT_EQ(r.requestId, 1u);

        ASSERT_EQ(writeFrame(fd, encodeBye({1})), IoStatus::Ok);
        for (;;) {
            ASSERT_TRUE(readFrameWithin(fd, &f, 5000));
            if (f.type == FrameType::ByeAck)
                break;
        }
        ::close(fd);
    }

    server.waitStopped();
    const NetServerStats stats = server.stop();
    EXPECT_EQ(stats.accepted, 2u);
    ASSERT_EQ(stats.connections.size(), 2u);
    EXPECT_TRUE(stats.connections[0].helloOk);
    EXPECT_TRUE(stats.connections[1].helloOk);
    EXPECT_EQ(stats.connections[1].replies, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BothIoModes, NetServeLinger,
    ::testing::Values(IoMode::Epoll, IoMode::Threads),
    [](const ::testing::TestParamInfo<IoMode> &info) {
        return std::string(ioModeName(info.param));
    });
