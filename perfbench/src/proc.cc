#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <random>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include "workload.h"

namespace perfbench {

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                      0x94D049BB133111EBull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<double>
poissonScheduleUs(std::uint64_t seed, double qps, std::size_t count)
{
    std::mt19937_64 rng(seed);
    std::vector<double> out;
    out.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        // u in (0, 1]: 53 random bits, never 0, so log(u) is finite.
        const double u =
            static_cast<double>((rng() >> 11) + 1) * 0x1.0p-53;
        t += -std::log(u) / qps * 1e6;
        out.push_back(t);
    }
    return out;
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

namespace {

/** The CPU reserved for the load generator, -1 = none. */
int gGeneratorCpu = -1;
cpu_set_t gProgramCpus;

} // namespace

void
reserveGeneratorCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2)
        return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            last = c;
    gProgramCpus = allowed;
    CPU_CLR(last, &gProgramCpus);
    if (::sched_setaffinity(0, sizeof(gProgramCpus), &gProgramCpus) == 0)
        gGeneratorCpu = last;
}

bool
generatorCpuReserved()
{
    return gGeneratorCpu >= 0;
}

GeneratorCpu::GeneratorCpu()
{
    if (gGeneratorCpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(gGeneratorCpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

GeneratorCpu::~GeneratorCpu()
{
    if (pinned_)
        (void)::sched_setaffinity(0, sizeof(gProgramCpus), &gProgramCpus);
}

void
tightenTimerSlack()
{
    (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

} // namespace perfbench
