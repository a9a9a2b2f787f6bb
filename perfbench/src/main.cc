/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload train|serve-net|serve-pipeline --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints per-phase accounting and every metric with its unit, then
 * one JSON line (the last line of stdout). Exits 1 when a correctness
 * check failed, 2 on a usage or runtime error (no JSON line then).
 * perfbench/run.py builds this program and is the entry point.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/thread_pool.h"
#include "workload.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train|serve-net|serve-pipeline --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return usage("--seed needs an unsigned integer");
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds >= 1.0 && args.seconds <= 60.0))
                return usage("--seconds needs a number in [1, 60]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace needs 0 or 1");
            args.trace = value == "1";
        } else if (key == "--trace-out") {
            args.traceOut = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");

    if (args.workload != "train")
        reserveGeneratorCpu();
    aib::core::ThreadPool::setGlobalThreads(kPoolWidth);

    Report report;
    try {
        if (args.workload == "train")
            runTrain(args, report);
        else if (args.workload == "serve-net")
            runServeNet(args, report);
        else if (args.workload == "serve-pipeline")
            runServePipeline(args, report);
        else
            return usage(("unknown workload '" + args.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 2;
    }
    report.printSummary();
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
