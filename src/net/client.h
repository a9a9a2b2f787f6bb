/**
 * @file
 * aibench netbench: a memtier/redis-benchmark-style traffic
 * generator for the aib.net/1 serving protocol.
 *
 * Topology: M total queries spread over N concurrent connections,
 * the connections spread over P worker processes (forked before any
 * thread exists, one pipe each). Every connection runs in its own
 * thread inside its worker: open-loop mode paces sends along the
 * shared seeded Poisson trace (@c serve::poissonTrace — the same
 * trace the server's planned batcher and the in-process replay
 * derive), closed-loop mode keeps a fixed number of queries in
 * flight per connection. Latency is measured from the *scheduled*
 * arrival time (open loop), so queueing delay the client itself
 * introduces by falling behind schedule is visible, not hidden.
 *
 * Each worker records into a private @c serve::LatencyHistogram and
 * serializes it — plus its counters and the per-batch digests it saw
 * — into a binary result blob written to its pipe; the parent
 * decodes and merges all blobs (histogram merge is associative and
 * byte-exact, see serve/histogram.h). With @c processes == 0 the
 * same worker code runs on in-process threads instead of forks,
 * which is what the sanitizer-tiered tests use.
 *
 * The client-side saturation check: before the run, the cost of one
 * send iteration (frame encode + clock read) is measured idle-loop
 * style; the per-connection inter-arrival gap divided by that cost
 * is the headroom ratio, and headroom below @c minHeadroom decides
 * @c clientBottleneck — a run whose generator cannot hold the
 * schedule measures the client, not the server, and the
 * aib.netserve/1 report says so. The observed late-send fraction is
 * reported alongside as a diagnostic (on a shared box the server's
 * own worker threads cause scheduling lateness even with ample
 * client headroom, so lateness alone is not a verdict).
 */

#ifndef AIB_NET_CLIENT_H
#define AIB_NET_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batcher.h"
#include "serve/endpoint.h"
#include "serve/histogram.h"

namespace aib::net {

enum class LoadMode {
    Open,   ///< seeded Poisson arrivals at qps (paced, open loop)
    Closed, ///< fixed in-flight per connection (peak throughput)
};

struct NetBenchOptions {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string benchmarkId;

    int processes = 2;   ///< forked workers; 0 = in-thread workers
    int connections = 8; ///< total concurrent connections
    int queries = 256;   ///< M, total across all connections
    LoadMode mode = LoadMode::Open;
    double qps = 500.0;  ///< open-loop offered rate (whole client)
    int inflight = 4;    ///< closed-loop in-flight per connection

    std::uint64_t seed = 42;
    serve::BatchPolicy policy; ///< must match the server's
    serve::BatchingMode batching = serve::BatchingMode::Planned;

    /** A send later than schedule by more than this counts late. */
    double lateThresholdUs = 1000.0;
    /** Calibration headroom below this flags a client bottleneck. */
    double minHeadroom = 10.0;
    /** Give up on missing replies after this long (safety net). */
    long replyTimeoutMs = 30000;
};

/** Merged outcome of one netbench run. */
struct NetBenchResult {
    serve::LatencyHistogram latency; ///< merged across all workers
    int workersMerged = 0;           ///< histograms merged in parent
    /** The server's serving-worker count, from its HelloAck; the
     *  in-process baseline of the report runs with the same count. */
    int serverWorkers = 0;

    std::uint64_t sent = 0;
    std::uint64_t replies = 0;
    std::uint64_t shed = 0;   ///< request-scoped Error frames
    std::uint64_t errors = 0; ///< connection-fatal failures
    double wallSeconds = 0.0; ///< longest worker wall time

    /** Planned mode: fold of per-batch digests in batch-index order;
     *  digestComplete only when every planned batch was observed and
     *  no two replies disagreed about a batch's digest. */
    double digest = 0.0;
    bool digestComplete = false;

    std::uint64_t lateSends = 0;
    double maxLatenessUs = 0.0;
    double lateFraction = 0.0;

    double calibrationOpUs = 0.0; ///< cost of one send iteration
    double meanGapUs = 0.0;       ///< per-connection schedule gap
    double headroom = 0.0;        ///< meanGapUs / calibrationOpUs
    bool clientBottleneck = false;
};

/**
 * Run one traffic-generation session against a listening netserve.
 * Throws std::invalid_argument on nonsensical options and
 * std::runtime_error when the server is unreachable or the
 * handshake fails on every connection.
 */
NetBenchResult runNetBench(const NetBenchOptions &options);

} // namespace aib::net

#endif // AIB_NET_CLIENT_H
