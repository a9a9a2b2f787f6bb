/**
 * @file
 * The `serve-net` workload: DC-AI-C16 behind an in-process
 * net::NetServer (epoll IO, dynamic batching, 2 serving workers),
 * driven over loopback TCP by the benchmark's own open-loop load
 * generator at a light and a heavy fixed rate. The model costs a few
 * microseconds per query, so nearly all the time is the net/serve IO,
 * admission and reply path.
 *
 * The generator is one thread polling all of its connections. It
 * speaks aib.net/1 through the public codec and framing only, sends
 * on a seeded Poisson schedule and times each request from its
 * scheduled send time, so a stalled server or generator is charged
 * to the requests behind it.
 */

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <memory>
#include <poll.h>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "core/registry.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serving.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace aib;

constexpr const char *kBenchmark = "DC-AI-C16";
constexpr double kLightQps = 1000.0;
constexpr double kHeavyQps = 5000.0;
/** Generator connections; with the server's IO thread and its two
 *  serving workers the run uses 4 busy threads. */
constexpr int kConnections = 4;

/** Per-request wire timestamps, kept only in the traced run. */
struct WireTimes {
    Clock::time_point sendStart{}, sendEnd{}, recvStart{}, recvEnd{};
};

class NetLoadGen
{
  public:
    NetLoadGen(int port, const net::HelloMsg &hello)
    {
        for (int i = 0; i < kConnections; ++i) {
            std::string err;
            const int fd = net::connectTcp("127.0.0.1", port, &err);
            if (fd < 0)
                throw std::runtime_error("connect: " + err);
            conns_.push_back(std::make_unique<Conn>());
            conns_.back()->fd = fd;
            if (net::writeFrame(fd, net::encodeHello(hello), &err) != net::IoStatus::Ok)
                throw std::runtime_error("hello: " + err);
            net::Frame f;
            if (net::readFrame(fd, &f, &err) != net::IoStatus::Ok ||
                f.type != net::FrameType::HelloAck)
                throw std::runtime_error("handshake refused " + err);
            if (!net::setNonBlocking(fd, true))
                throw std::runtime_error("cannot make socket non-blocking");
        }
    }

    ~NetLoadGen()
    {
        for (const auto &c : conns_)
            ::close(c->fd);
    }

    NetLoadGen(const NetLoadGen &) = delete;
    NetLoadGen &operator=(const NetLoadGen &) = delete;

    /**
     * Send @p phase's schedule with request ids firstId+1.. (exemplar
     * firstId+i for request i), and wait up to 5 s after the last
     * due time for every reply.
     */
    void run(const Phase &phase, std::uint64_t firstId,
             std::vector<RequestRecord> *recs, std::vector<WireTimes> *wire);

    /** Bye on every connection; false when a ByeAck disagrees with
     *  what this generator sent and received on that connection. */
    bool bye();

    std::uint64_t bytes() const { return bytes_; }

  private:
    struct Conn {
        int fd = -1;
        net::FrameParser parser;
        std::string out;
        std::size_t outPos = 0;
        std::uint64_t sent = 0, answered = 0;
    };

    void flush(Conn &c);
    void handle(const net::Frame &f, Clock::time_point now, std::uint64_t firstId,
                std::vector<RequestRecord> *recs, std::vector<WireTimes> *wire,
                Clock::time_point readStart, Conn &c, std::size_t *answered);

    std::vector<std::unique_ptr<Conn>> conns_;
    std::uint64_t bytes_ = 0;
};

void
NetLoadGen::flush(Conn &c)
{
    while (c.outPos < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.outPos, c.out.size() - c.outPos);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            throw std::runtime_error("write failed");
        }
        c.outPos += static_cast<std::size_t>(n);
        bytes_ += static_cast<std::uint64_t>(n);
    }
    c.out.clear();
    c.outPos = 0;
}

void
NetLoadGen::handle(const net::Frame &f, Clock::time_point now, std::uint64_t firstId,
                   std::vector<RequestRecord> *recs, std::vector<WireTimes> *wire,
                   Clock::time_point readStart, Conn &c, std::size_t *answered)
{
    std::uint64_t requestId = 0;
    net::ReplyMsg reply;
    const bool isReply = f.type == net::FrameType::Reply;
    if (isReply) {
        if (!net::decodeReply(f.payload, &reply))
            throw std::runtime_error("malformed reply");
        requestId = reply.requestId;
    } else if (f.type == net::FrameType::Error) {
        net::ErrorMsg e;
        if (!net::decodeError(f.payload, &e))
            throw std::runtime_error("malformed error frame");
        if (e.requestId == 0)
            throw std::runtime_error("connection-fatal error: " + e.message);
        requestId = e.requestId;
    } else {
        throw std::runtime_error("unexpected frame type");
    }
    if (requestId <= firstId || requestId - firstId > recs->size())
        throw std::runtime_error("reply for a request never sent");
    const std::size_t i = requestId - firstId - 1;
    RequestRecord &r = (*recs)[i];
    if (r.answered)
        throw std::runtime_error("second reply for one request");
    r.answered = true;
    r.done = now;
    // The exemplar must match the request's (firstId + i).
    r.ok = isReply && reply.exemplar == firstId + i;
    r.serverUs = reply.serverLatencyUs;
    r.batchSize = static_cast<int>(reply.batchSize);
    if (wire) {
        (*wire)[i].recvStart = readStart;
        (*wire)[i].recvEnd = Clock::now();
    }
    c.answered += 1;
    *answered += 1;
}

void
NetLoadGen::run(const Phase &phase, std::uint64_t firstId,
                std::vector<RequestRecord> *recs, std::vector<WireTimes> *wire)
{
    const std::size_t n = phase.count();
    recs->assign(n, RequestRecord{});
    if (wire)
        wire->assign(n, WireTimes{});
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < n; ++i)
        (*recs)[i].due = start + std::chrono::nanoseconds(
                                     static_cast<long long>(phase.offsetsUs[i] * 1000.0));
    const auto deadline = (n ? (*recs)[n - 1].due : start) + std::chrono::seconds(5);

    std::vector<pollfd> fds(conns_.size());
    char buf[1 << 16];
    std::size_t next = 0, answered = 0;
    while (answered < n) {
        auto now = Clock::now();
        for (; next < n && (*recs)[next].due <= now; ++next) {
            Conn &c = *conns_[next % conns_.size()];
            net::QueryMsg q;
            q.requestId = firstId + next + 1;
            q.exemplar = static_cast<std::uint32_t>(firstId + next);
            const auto t0 = Clock::now();
            c.out += net::encodeQuery(q);
            flush(c);
            (*recs)[next].sent = t0;
            if (wire) {
                (*wire)[next].sendStart = t0;
                (*wire)[next].sendEnd = Clock::now();
            }
            c.sent += 1;
        }
        now = Clock::now();
        if (next == n && now >= deadline)
            break; // the unanswered rest count as timeouts
        const auto wake = next < n ? (*recs)[next].due - spinLead() : deadline;
        const auto ns = std::max<long long>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
        const timespec ts{static_cast<time_t>(ns / 1000000000),
                          static_cast<long>(ns % 1000000000)};
        for (std::size_t k = 0; k < conns_.size(); ++k) {
            fds[k].fd = conns_[k]->fd;
            fds[k].events = static_cast<short>(
                POLLIN | (conns_[k]->outPos < conns_[k]->out.size() ? POLLOUT : 0));
            fds[k].revents = 0;
        }
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
            throw std::runtime_error("ppoll failed");
        for (std::size_t k = 0; k < conns_.size(); ++k) {
            Conn &c = *conns_[k];
            if (fds[k].revents & POLLOUT)
                flush(c);
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            for (;;) {
                const auto readStart = Clock::now();
                const ssize_t got = ::read(c.fd, buf, sizeof(buf));
                if (got == 0)
                    throw std::runtime_error("server closed a connection");
                if (got < 0) {
                    if (errno == EINTR)
                        continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    throw std::runtime_error("read failed");
                }
                const auto t = Clock::now();
                bytes_ += static_cast<std::uint64_t>(got);
                c.parser.feed(buf, static_cast<std::size_t>(got));
                net::Frame f;
                for (;;) {
                    const auto res = c.parser.next(&f);
                    if (res == net::FrameParser::Result::NeedMore)
                        break;
                    if (res == net::FrameParser::Result::Corrupt)
                        throw std::runtime_error("corrupt stream: " + c.parser.error());
                    handle(f, t, firstId, recs, wire, readStart, c, &answered);
                }
            }
        }
    }
}

bool
NetLoadGen::bye()
{
    bool ok = true;
    for (const auto &c : conns_) {
        std::string err;
        if (!net::setNonBlocking(c->fd, false) ||
            net::writeFrame(c->fd, net::encodeBye({c->sent}), &err) != net::IoStatus::Ok)
            return false;
        net::Frame f;
        net::ByeAckMsg ack;
        if (net::readFrame(c->fd, &f, &err) != net::IoStatus::Ok ||
            f.type != net::FrameType::ByeAck || !net::decodeByeAck(f.payload, &ack))
            return false;
        ok = ok && ack.served + ack.shed == c->sent && c->answered == c->sent;
    }
    return ok;
}

struct Live {
    std::unique_ptr<net::NetServer> server;
    std::unique_ptr<NetLoadGen> gen;
};

Live
startServer(std::uint64_t seed)
{
    const core::ComponentBenchmark *b = core::findBenchmark(kBenchmark);
    if (!b)
        throw std::runtime_error("unknown benchmark DC-AI-C16");
    net::NetServerOptions o;
    o.io = net::IoMode::Epoll;
    o.endpoint.workers = 2;
    o.endpoint.policy = fixedBatchPolicy();
    o.endpoint.seed = seed;
    o.endpoint.batching = serve::BatchingMode::Dynamic;
    Live live;
    live.server = std::make_unique<net::NetServer>(*b, o);
    live.server->start();
    net::HelloMsg hello;
    hello.benchmarkId = kBenchmark;
    hello.seed = seed;
    hello.maxBatch = static_cast<std::uint32_t>(o.endpoint.policy.maxBatch);
    hello.maxDelayUs = static_cast<std::uint64_t>(o.endpoint.policy.maxDelayUs);
    hello.batching = 0;
    live.gen = std::make_unique<NetLoadGen>(live.server->boundPort(), hello);
    return live;
}

/** Records of one pass over the phase plan. */
struct PassResult {
    std::vector<std::vector<RequestRecord>> recs; ///< per phase
    std::vector<std::vector<WireTimes>> wire;
    std::vector<double> cpuMsPerReq; ///< per phase, program only
};

PassResult
runPass(NetLoadGen &gen, const std::vector<Phase> &phases, std::uint64_t *nextId,
        bool traced)
{
    GeneratorCpu pin;
    PassResult out;
    for (const Phase &p : phases) {
        out.recs.emplace_back();
        out.wire.emplace_back();
        const double c0 = processCpuSeconds(), g0 = threadCpuSeconds();
        gen.run(p, *nextId, &out.recs.back(), traced ? &out.wire.back() : nullptr);
        // The server's CPU: the process minus the generator thread.
        out.cpuMsPerReq.push_back((processCpuSeconds() - c0 - (threadCpuSeconds() - g0)) *
                                  1000.0 / static_cast<double>(p.count()));
        *nextId += p.count();
    }
    return out;
}

void
writeSpans(SpanLog &log, const PassResult &pass, std::uint64_t firstId)
{
    std::uint64_t id = firstId;
    for (std::size_t p = 0; p < pass.recs.size(); ++p) {
        for (std::size_t i = 0; i < pass.recs[p].size(); ++i, ++id) {
            const RequestRecord &r = pass.recs[p][i];
            const WireTimes &w = pass.wire[p][i];
            const auto req = static_cast<std::int64_t>(id + 1);
            const int root = log.add("client.request", r.due, r.done, -1, req);
            if (r.sent > r.due)
                log.add("client.late", r.due, r.sent, root, req);
            log.add("net.send", w.sendStart, w.sendEnd, root, req);
            if (r.answered)
                log.add("net.recv", w.recvStart, w.recvEnd, root, req);
        }
    }
}

} // namespace

void
runServeNet(const RunArgs &args, Report &report)
{
    tightenTimerSlack();
    const std::uint64_t serverSeed = deriveSeed(args.seed, 1);

    std::vector<double> setupS;
    Live live;
    const auto timeSetups = [&] {
        for (int i = 0; i < kSetups; ++i) {
            if (live.server) {
                live.gen.reset();
                live.server->stop();
            }
            const auto t0 = Clock::now();
            live = startServer(serverSeed);
            setupS.push_back(secondsBetween(t0, Clock::now()));
        }
    };
    timeSetups();

    const double passSeconds = args.trace ? args.seconds / 2 : args.seconds;
    std::uint64_t nextId = 0;
    const PassResult plain =
        runPass(*live.gen, planPhases(deriveSeed(args.seed, 2), passSeconds, kLightQps, kHeavyQps),
                &nextId, false);
    SpanLog log(args.trace);
    PassResult traced;
    const std::uint64_t tracedFirstId = nextId;
    if (args.trace)
        traced = runPass(*live.gen,
                         planPhases(deriveSeed(args.seed, 3), passSeconds, kLightQps, kHeavyQps),
                         &nextId, true);

    const bool byeOk = live.gen->bye();
    const std::uint64_t bytes = live.gen->bytes();
    live.gen.reset();
    const net::NetServerStats stats = live.server->stop();
    timeSetups(); // these servers serve no requests
    live.gen.reset();
    live.server->stop();

    const PassResult &shown = args.trace ? traced : plain;
    const char *names[] = {"warmup", "light", "heavy"};
    std::uint64_t sent = 0, answered = 0, okCount = 0;
    for (const PassResult *pass : {&plain, static_cast<const PassResult *>(&traced)}) {
        for (std::size_t p = 0; p < pass->recs.size(); ++p) {
            if (pass == &shown)
                countPhase(report, names[p], pass->recs[p]);
            for (const RequestRecord &r : pass->recs[p]) {
                sent += 1;
                answered += r.answered ? 1 : 0;
                okCount += r.ok ? 1 : 0;
            }
        }
    }
    report.check(answered == sent && okCount == answered,
                 "serve-net: every request answered, every reply's exemplar "
                 "matches its request (" + std::to_string(okCount) + "/" +
                     std::to_string(sent) + ")");
    report.check(byeOk, "serve-net: each connection's ByeAck served+shed = sent");
    report.check(stats.completed + stats.shed == sent,
                 "serve-net: server completed+shed = sent (" +
                     std::to_string(stats.completed) + "+" + std::to_string(stats.shed) + ")");
    const Measured m = measured(report, "serve-net", shown.recs[1], shown.recs[2]);

    if (!args.trace) {
        emitServingEndToEnd(report, m.light, m.heavy, plain.cpuMsPerReq, setupS);
        return;
    }

    writeSpans(log, traced, tracedFirstId);
    double rttP50 = 0.0, serverP50 = 0.0;
    for (const auto &[name, recs] : {std::pair{"light", &m.light}, std::pair{"heavy", &m.heavy}}) {
        std::vector<double> rtt, server;
        for (const RequestRecord &r : *recs) {
            if (!r.ok)
                continue;
            rtt.push_back(msBetween(r.sent, r.done));
            server.push_back(r.serverUs / 1000.0);
        }
        rttP50 = median(rtt);
        serverP50 = median(server);
        note("%s: rtt p50 %.4f ms, server p50 %.4f ms, batch mean %.3f", name, rttP50, serverP50,
             batchSizeMean(*recs));
    }
    // The layer metrics are those of the last (heavy) phase.
    report.metric("net.rtt_p50_ms", rttP50, "ms");
    report.metric("serve.server_p50_ms", serverP50, "ms");
    report.metric("net.tax_p50_ms", rttP50 - serverP50, "ms");
    report.metric("serve.batch_size_mean", batchSizeMean(m.heavy), "count");
    report.metric("net.bytes_per_req", static_cast<double>(bytes) / static_cast<double>(sent),
                  "B");
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
