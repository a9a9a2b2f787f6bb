/**
 * @file
 * The `train` workload: entire training sessions, first epoch to the
 * registry target, of MLPerf-Transformer (light: the launch-overhead-
 * bound model) and DC-AI-C9 (heavy: GEMM/im2col-bound detection),
 * repeated in rounds with fresh session seeds until the run's seconds
 * are spent. The unit of work is one epoch: runEpoch() then
 * evaluate(), the step time-to-quality is summed from. The traced run
 * adds one DC-AI-C1 session and the per-layer probes.
 *
 * The session loop mirrors core::trainToQuality (reseed the global
 * RNG, makeTask, epochs until metTarget), which the benchmark must
 * drive itself to time set-up, epochs and evaluation apart; every run
 * cross-checks one session against core::trainToQuality bitwise.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/registry.h"
#include "core/runner.h"
#include "core/thread_pool.h"
#include "profiler/trace.h"
#include "stats.h"
#include "tensor/alloctrack.h"
#include "tensor/random.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kMaxEpochs = 40;
/** Tail percentile of the train phases: ~40-130 epochs per phase
 *  support p75 with 10 samples beyond it, not p90 for every seed. */
constexpr double kTailPct = 75.0;
constexpr std::size_t kMinEpochs = 40;

struct Model {
    const char *key; ///< metric suffix
    const char *id;  ///< registry id
};
constexpr Model kLight{"transformer", "MLPerf-Transformer"};
constexpr Model kHeavy{"c9", "DC-AI-C9"};
constexpr Model kC1{"c1", "DC-AI-C1"};

/** Everything one session measured. */
struct Session {
    const Model *model = nullptr;
    std::uint64_t seed = 0;
    bool reached = false;
    int epochs = 0;
    double setupMs = 0.0;
    std::vector<double> quality;
    std::vector<double> epochMs;  ///< runEpoch + evaluate
    std::vector<double> runMs;    ///< runEpoch alone
    std::vector<double> evalMs;   ///< evaluate alone
    std::vector<double> epochCpuMs;
    double ttqS() const;
    double cpuS() const;
};

double
Session::ttqS() const
{
    double s = 0.0;
    for (const double ms : epochMs)
        s += ms / 1000.0;
    return s;
}

double
Session::cpuS() const
{
    double s = 0.0;
    for (const double ms : epochCpuMs)
        s += ms / 1000.0;
    return s;
}

/** Kernel and allocation counts of one model's runEpoch calls. */
struct LayerCounts {
    aib::profiler::TraceSession kernels;
    std::uint64_t allocs = 0;
    int epochs = 0;
    double runMs = 0.0;
};

const aib::core::ComponentBenchmark &
benchmark(const Model &m)
{
    const aib::core::ComponentBenchmark *b = aib::core::findBenchmark(m.id);
    if (!b)
        throw std::runtime_error(std::string("unknown benchmark ") + m.id);
    return *b;
}

/**
 * One entire session. With @p counts, runEpoch runs under a kernel
 * trace and allocation census (the traced pass only).
 */
Session
runSession(const Model &m, std::uint64_t seed, SpanLog &log,
           LayerCounts *counts)
{
    const aib::core::ComponentBenchmark &b = benchmark(m);
    Session s;
    s.model = &m;
    s.seed = seed;
    ScopedSpan session(log, "core.session", static_cast<std::int64_t>(seed));
    aib::seedGlobalRng(seed);
    std::unique_ptr<aib::core::TrainableTask> task;
    {
        ScopedSpan span(log, "models.make_task");
        const auto t0 = Clock::now();
        task = b.makeTask(seed);
        s.setupMs = msBetween(t0, Clock::now());
    }
    for (int epoch = 1; epoch <= kMaxEpochs; ++epoch) {
        const double c0 = processCpuSeconds();
        const auto t0 = Clock::now();
        {
            ScopedSpan span(log, "models.run_epoch");
            if (counts) {
                const auto before = aib::alloctrack::snapshot().totalTensors;
                aib::profiler::ScopedTrace trace(counts->kernels);
                task->runEpoch();
                counts->allocs +=
                    aib::alloctrack::snapshot().totalTensors - before;
            } else {
                task->runEpoch();
            }
        }
        const auto t1 = Clock::now();
        double q;
        {
            ScopedSpan span(log, "models.evaluate");
            q = task->evaluate();
        }
        const auto t2 = Clock::now();
        s.epochCpuMs.push_back((processCpuSeconds() - c0) * 1000.0);
        s.runMs.push_back(msBetween(t0, t1));
        s.evalMs.push_back(msBetween(t1, t2));
        s.epochMs.push_back(msBetween(t0, t2));
        s.quality.push_back(q);
        if (counts) {
            counts->epochs += 1;
            counts->runMs += msBetween(t0, t1);
        }
        if (b.info.metTarget(q)) {
            s.reached = true;
            s.epochs = epoch;
            break;
        }
    }
    return s;
}

/** Sessions of rounds {light, heavy}, seeds drawn from the run seed. */
struct Pass {
    std::vector<Session> light, heavy;
    std::vector<double> lightEpochMs, heavyEpochMs, lightCpuMs, heavyCpuMs;
    std::vector<double> roundTtqS, roundEpochs, roundCpuS;
};

std::uint64_t
sessionSeed(std::uint64_t seed, int round, int slot)
{
    return deriveSeed(seed, 1000u + static_cast<std::uint64_t>(round) * 4u +
                                static_cast<std::uint64_t>(slot));
}

void
addSession(std::vector<Session> *into, std::vector<double> *epochMs,
           Session s)
{
    epochMs->insert(epochMs->end(), s.epochMs.begin(), s.epochMs.end());
    into->push_back(std::move(s));
}

/**
 * Run rounds until @p seconds elapsed and both phases hold
 * kMinEpochs epochs, or exactly @p rounds rounds when positive.
 */
Pass
runRounds(std::uint64_t seed, double seconds, int rounds, SpanLog &log,
          LayerCounts *lightCounts, LayerCounts *heavyCounts)
{
    Pass p;
    const auto start = Clock::now();
    for (int r = 0;; ++r) {
        if (rounds > 0 ? r >= rounds
                       : (secondsBetween(start, Clock::now()) >= seconds &&
                          p.lightEpochMs.size() >= kMinEpochs &&
                          p.heavyEpochMs.size() >= kMinEpochs))
            break;
        if (rounds <= 0 && secondsBetween(start, Clock::now()) > 4 * seconds)
            throw std::runtime_error("train: too few epochs in 4x the run time");
        Session l = runSession(kLight, sessionSeed(seed, r, 0), log, lightCounts);
        Session h = runSession(kHeavy, sessionSeed(seed, r, 1), log, heavyCounts);
        p.lightCpuMs.insert(p.lightCpuMs.end(), l.epochCpuMs.begin(), l.epochCpuMs.end());
        p.heavyCpuMs.insert(p.heavyCpuMs.end(), h.epochCpuMs.begin(), h.epochCpuMs.end());
        p.roundTtqS.push_back(l.ttqS() + h.ttqS());
        p.roundEpochs.push_back(l.epochs + h.epochs);
        p.roundCpuS.push_back(l.cpuS() + h.cpuS());
        addSession(&p.light, &p.lightEpochMs, std::move(l));
        addSession(&p.heavy, &p.heavyEpochMs, std::move(h));
    }
    return p;
}

/**
 * Set-up time: constructing the light and heavy tasks (model plus
 * synthetic dataset) for the seeds of kSetups rounds from
 * @p firstRound; one sample per round, appended to @p out.
 */
void
measureSetup(std::uint64_t seed, int firstRound, std::vector<double> *out)
{
    for (int r = firstRound; r < firstRound + kSetups; ++r) {
        std::unique_ptr<aib::core::TrainableTask> tasks[2];
        const auto t0 = Clock::now();
        for (int slot = 0; slot < 2; ++slot) {
            const std::uint64_t s = sessionSeed(seed, r, slot);
            aib::seedGlobalRng(s);
            tasks[slot] = benchmark(slot ? kHeavy : kLight).makeTask(s);
        }
        out->push_back(secondsBetween(t0, Clock::now()));
    }
}

void
countPhase(Report &report, const char *name, const std::vector<Session> &ss)
{
    PhaseCount c;
    c.phase = name;
    for (const Session &s : ss) {
        c.sent += 1;
        (s.reached ? c.succeeded : c.failed) += 1;
    }
    report.phase(c);
}

bool
sameTrajectory(const Session &a, const std::vector<double> &quality, int epochs)
{
    return a.epochs == epochs && a.quality.size() == quality.size() &&
           std::memcmp(a.quality.data(), quality.data(),
                       quality.size() * sizeof(double)) == 0;
}

/** Every session reached its registry target within kMaxEpochs. */
void
checkReached(Report &report, const Pass &p)
{
    bool ok = true;
    for (const auto *ss : {&p.light, &p.heavy})
        for (const Session &s : *ss)
            ok = ok && s.reached;
    report.check(ok, "train: every session reached its registry target "
                     "within " + std::to_string(kMaxEpochs) + " epochs");
}

/** The first light session reproduces core::trainToQuality bitwise. */
void
checkAgainstRunner(Report &report, const Session &s)
{
    aib::core::RunOptions opts;
    opts.maxEpochs = kMaxEpochs;
    const aib::core::TrainResult r =
        aib::core::trainToQuality(benchmark(*s.model), s.seed, opts);
    report.check(sameTrajectory(s, r.qualityByEpoch, r.epochsToTarget),
                 std::string("train: ") + s.model->id + " seed " +
                     std::to_string(s.seed) +
                     " matches core::trainToQuality (epochs " +
                     std::to_string(r.epochsToTarget) +
                     ", quality trajectory bitwise)");
}

void
printTrainTotals(const Pass &p)
{
    note("train: per round of one light and one heavy session (medians, n=%zu): "
         "ttq_s %.4f s, epochs_to_quality %.0f, ttq_cpu_s %.4f s",
         p.roundTtqS.size(), median(p.roundTtqS), median(p.roundEpochs),
         median(p.roundCpuS));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

double
least(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

void
emitEndToEnd(Report &report, const Pass &p, const std::vector<double> &setupS)
{
    const Summary l = summarize(p.lightEpochMs, kTailPct);
    const Summary h = summarize(p.heavyEpochMs, kTailPct);
    note("train light (%s epochs): n=%zu p50 %.4f ms p%g %.4f ms", kLight.id,
         l.n, l.p50, l.tailPct, l.tail);
    note("train heavy (%s epochs): n=%zu p50 %.4f ms p%g %.4f ms", kHeavy.id,
         h.n, h.p50, h.tailPct, h.tail);
    note("train setup: n=%zu median %.4f s", setupS.size(), median(setupS));
    note("train CPU per epoch: light mean %.4f ms, least %.4f ms; heavy mean %.4f ms, "
         "least %.4f ms",
         mean(p.lightCpuMs), least(p.lightCpuMs), mean(p.heavyCpuMs), least(p.heavyCpuMs));
    report.metric("setup_s", median(setupS), "s");
    // Every DC-AI-C9 epoch does the same work, so host contention only
    // adds to its CPU. On a shared 4-vCPU host one run's epochs ranged
    // 260-430 ms in stretches of seconds; over four sets of identical
    // runs the quartile spread of the least epoch was 0.075-0.11, of
    // the mean 0.06-0.21.
    report.metric("cpu_ms_per_unit.heavy", least(p.heavyCpuMs), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.metric("ok_ratio", report.okRatio(), "ratio");
}

/** Median epoch time at pool width 1 over median at @p width. */
double
poolScaling(const Model &m, std::uint64_t seed, int width, int epochs,
            SpanLog &log)
{
    std::array<double, 2> med{};
    const std::array<int, 2> widths{1, width};
    for (std::size_t w = 0; w < widths.size(); ++w) {
        aib::core::ThreadPool::setGlobalThreads(widths[w]);
        aib::seedGlobalRng(seed);
        auto task = benchmark(m).makeTask(seed);
        std::vector<double> ms;
        for (int e = 0; e < epochs; ++e) {
            ScopedSpan span(log, "core.pool_epoch", widths[w]);
            const auto t0 = Clock::now();
            task->runEpoch();
            ms.push_back(msBetween(t0, Clock::now()));
        }
        med[w] = median(ms);
    }
    aib::core::ThreadPool::setGlobalThreads(width);
    return med[0] / med[1];
}

void
emitLayer(Report &report, const std::vector<const LayerCounts *> &counts,
          const std::vector<const std::vector<Session> *> &sessions)
{
    static const char *kCategory[] = {
        "data_arrangement", "convolution", "gemm",    "batch_norm",
        "elementwise",      "relu",        "pooling", "memcpy"};
    static_assert(std::size(kCategory) == aib::profiler::kNumKernelCategories);

    // "Per epoch" = one epoch of each traced model, summed over models.
    std::array<double, aib::profiler::kNumKernelCategories> launches{};
    double flops = 0, bytes = 0, allocs = 0, runMs = 0, totalLaunches = 0;
    for (const LayerCounts *c : counts) {
        const double e = c->epochs;
        const auto cats = c->kernels.categoryTotals();
        for (std::size_t k = 0; k < launches.size(); ++k)
            launches[k] += static_cast<double>(cats[k].launches) / e;
        flops += c->kernels.totalFlops() / e;
        bytes += c->kernels.totalBytes() / e;
        allocs += static_cast<double>(c->allocs) / e;
        runMs += c->runMs;
        totalLaunches += static_cast<double>(c->kernels.totalLaunches());
    }
    for (std::size_t k = 0; k < launches.size(); ++k)
        report.metric(std::string("tensor.launches.") + kCategory[k],
                      launches[k], "count");
    report.metric("tensor.us_per_launch", runMs * 1000.0 / totalLaunches, "us");
    // FLOPs and bytes are the profiler's per-launch figures, computed
    // from tensor shapes, not measured by hardware counters.
    report.metric("tensor.gflop_per_epoch", flops / 1e9, "GFLOP");
    report.metric("tensor.gb_per_epoch", bytes / 1e9, "GB");
    report.metric("tensor.allocs_per_epoch", allocs, "count");

    double evalMs = 0, setupMs = 0;
    for (const auto *ss : sessions) {
        std::vector<double> run, eval, setup;
        for (const Session &s : *ss) {
            run.insert(run.end(), s.runMs.begin(), s.runMs.end());
            eval.insert(eval.end(), s.evalMs.begin(), s.evalMs.end());
            setup.push_back(s.setupMs);
        }
        report.metric(std::string("models.epoch_ms.") + ss->front().model->key,
                      median(run), "ms");
        evalMs += median(eval);
        setupMs += median(setup);
    }
    report.metric("models.eval_ms", evalMs, "ms");
    report.metric("setup.task_ms", setupMs, "ms");
}

} // namespace

void
runTrain(const RunArgs &args, Report &report)
{
    SpanLog off(false);
    if (!args.trace) {
        std::vector<double> setupS;
        measureSetup(args.seed, 0, &setupS);
        const Pass p = runRounds(args.seed, args.seconds, 0, off, nullptr, nullptr);
        measureSetup(args.seed, kSetups, &setupS);
        countPhase(report, "light", p.light);
        countPhase(report, "heavy", p.heavy);
        printTrainTotals(p);
        checkReached(report, p);
        checkAgainstRunner(report, p.light.front());
        emitEndToEnd(report, p, setupS);
        return;
    }

    // Traced run: an untraced pass, then the same sessions again with
    // spans, kernel traces and allocation census on. Identical seeds
    // must give identical trajectories (thread and trace invariance).
    const Pass plain = runRounds(args.seed, args.seconds / 2, 0, off, nullptr, nullptr);
    const int rounds = static_cast<int>(plain.light.size());

    SpanLog log(true);
    LayerCounts lightCounts, heavyCounts, c1Counts;
    aib::alloctrack::resetPeak();
    const Pass traced = runRounds(args.seed, 0, rounds, log, &lightCounts, &heavyCounts);
    const std::vector<Session> c1{
        runSession(kC1, deriveSeed(args.seed, 7), log, &c1Counts)};
    const double peakLiveMb =
        static_cast<double>(aib::alloctrack::snapshot().peakBytes) / (1 << 20);

    countPhase(report, "light", traced.light);
    countPhase(report, "heavy", traced.heavy);
    countPhase(report, "c1", c1);
    printTrainTotals(plain);
    checkReached(report, traced);
    report.check(c1.front().reached, "train: DC-AI-C1 session reached its target");
    bool same = true;
    for (int r = 0; r < rounds; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        same = same &&
               sameTrajectory(traced.light[i], plain.light[i].quality, plain.light[i].epochs) &&
               sameTrajectory(traced.heavy[i], plain.heavy[i].quality, plain.heavy[i].epochs);
    }
    report.check(same, "train: traced sessions repeat the untraced ones bitwise");
    checkAgainstRunner(report, plain.light.front());

    emitLayer(report, {&c1Counts, &heavyCounts, &lightCounts},
              {&c1, &traced.heavy, &traced.light});
    report.metric("tensor.peak_live_mb", peakLiveMb, "MiB");
    for (const Model *m : {&kC1, &kHeavy, &kLight})
        report.metric(std::string("core.pool_scaling.") + m->key,
                      poolScaling(*m, deriveSeed(args.seed, 11),
                                  kPoolWidth, m == &kLight ? 6 : 3, log),
                      "ratio");
    report.metric("models.ttq_s", median(plain.roundTtqS), "s");
    report.metric("models.epochs_to_quality", median(plain.roundEpochs), "count");
    report.metric("proc.ttq_cpu_s", median(plain.roundCpuS), "s");
    report.metric("cpu_ms_per_unit.light", least(plain.lightCpuMs), "ms");
    const Summary light = summarize(traced.lightEpochMs, kTailPct);
    report.metric("lat_p50_ms.light", light.p50, "ms");
    report.metric("lat_tail_ms.light", light.tail, "ms");
    const Summary heavy = summarize(traced.heavyEpochMs, kTailPct);
    report.metric("lat_p50_ms.heavy", heavy.p50, "ms");
    report.metric("lat_tail_ms.heavy", heavy.tail, "ms");
    const double untracedP50 = median(plain.heavyEpochMs);
    report.metric("trace.overhead_pct",
                  100.0 * (median(traced.heavyEpochMs) - untracedP50) / untracedP50,
                  "%");
    if (!args.traceOut.empty())
        log.writeJson(args.traceOut);
}

} // namespace perfbench
