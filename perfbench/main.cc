/**
 * @file
 * Host-time benchmark entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--setup-only 1]
 *
 * Untraced (--trace 0): set up the workload, then run a closed loop of
 * ops for S seconds and at least kMinOps ops, then re-run op 0 and
 * require a byte-identical result. setup_s runs from process start to
 * the first timed op. Prints the end-to-end metrics. With
 * --setup-only 1 it stops after set-up and prints setup_s alone (run.py
 * starts a few such processes so setup_s is a median of cold set-ups).
 *
 * Traced (--trace 1): one set-up, op 0 untraced, then the same loop
 * with spans and telemetry, then a short fixed probe (kFixedTraceOps
 * traced ops) of every other workload so each traced run reports
 * every layer. Prints the per-layer metrics and writes the spans to
 * PATH.
 *
 * Every timing is process CPU time (CpuTimer); only the run's length
 * is wall time. The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "harness.h"

namespace {

using namespace mtia;
using namespace mtia::perfbench;

/** Minimum ops per run: leaves >= 10 samples beyond p90. */
constexpr std::size_t kMinOps = 100;
/**
 * Lanes of every workload. At two lanes on a shared 4-core host,
 * per-op wall time swings up to 3x with the second lane's scheduling
 * while CPU time stays flat; one lane keeps wall time within a few
 * percent of CPU time (see README.md).
 */
constexpr unsigned kLanes = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spans;
    bool setup_only = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            have_seed = end != val && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0')
                return false;
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "0") == 0 ? 0
                : std::strcmp(val, "1") == 0     ? 1
                                                 : -1;
        } else if (key == "--spans") {
            a.spans = val;
        } else if (key == "--setup-only") {
            a.setup_only = std::strcmp(val, "1") == 0;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_seed &&
        a.seconds > 0.0 && a.trace >= 0;
}

/** Tally of ops attempted and failed across a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss would also count the launching process, since it survives
 * exec.)
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

void
printResult(const Tally &t, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                t.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

void
untracedRun(const WorkloadSpec &spec, const Args &a)
{
    Tally tally;
    const std::unique_ptr<Workload> w = spec.make();
    if (!w->setup(a.seed))
        tally.add(false);
    // Process CPU time so far: loader, static tables and set-up.
    const double setup_s = CpuTimer::now();
    if (a.setup_only) {
        tally.attempted = 1;
        printResult(tally, {{"setup_s", {setup_s, "s"}}});
        return;
    }

    std::vector<double> op_s;
    double work = 0.0;
    std::string digest0;
    bool ok0 = true;
    // The run lasts --seconds of wall time; the ops are timed in CPU
    // time.
    const bench::WallTimer deadline;
    const CpuTimer loop;
    for (std::uint64_t i = 0;
         deadline.seconds() < a.seconds || op_s.size() < kMinOps; ++i) {
        const CpuTimer t;
        const OpOutcome o = w->op(i, nullptr);
        op_s.push_back(t.seconds());
        work += o.work;
        tally.add(o.ok);
        if (i == 0) {
            digest0 = o.digest;
            ok0 = o.ok;
        }
    }
    const double loop_s = loop.seconds();

    // One op per run is re-run; its result must repeat byte for byte.
    if (ok0 && w->op(0, nullptr).digest != digest0) {
        std::fprintf(stderr, "perfbench: op 0 did not repeat\n");
        ++tally.failed;
    }

    std::printf("perfbench: %zu ops in %.3f s, %.6g %s\n", op_s.size(),
                loop_s, work, spec.work_unit);
    Metrics m;
    m["setup_s"] = {setup_s, "s"};
    m["op_p50_ms"] = {median(op_s) * 1e3, "ms"};
    m["op_p90_ms"] = {quantile(op_s, 0.9) * 1e3, "ms"};
    m["throughput_per_s"] = {work / loop_s, "1/s"};
    m["peak_rss_mb"] = {peakRssMb(), "MiB"};
    m["pass_rate"] = {static_cast<double>(tally.attempted - tally.failed) /
                          static_cast<double>(tally.attempted),
                      "ratio"};
    printResult(tally, m);
}

/**
 * Traced ops 0..n-1 of @p spec (n = kFixedTraceOps when
 * @p seconds is 0, else as many as fit in @p seconds); adds the
 * workload's layer metrics to @p m and returns its traced throughput.
 */
double
tracedOps(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
          SpanRecorder &spans, Tally &tally, Metrics &m)
{
    const std::unique_ptr<Workload> w = spec.make();
    if (!w->setup(seed))
        tally.add(false);
    const std::string untraced0 = w->op(0, nullptr).digest;

    double work = 0.0;
    const std::string op_span = std::string(spec.name) + ".op";
    const bench::WallTimer deadline;
    for (std::uint64_t i = 0;
         i < kFixedTraceOps || deadline.seconds() < seconds; ++i) {
        const ScopedSpan span(&spans, op_span, i);
        const OpOutcome o = w->op(i, &spans);
        work += o.work;
        // Tracing must not change one byte of the result.
        const bool same = i != 0 || o.digest == untraced0;
        if (!same)
            std::fprintf(stderr, "perfbench: %s traced op 0 differs\n",
                         spec.name);
        tally.add(o.ok && same);
    }
    w->layerMetrics(spans, m);

    double main_s = 0.0;
    for (const std::string &name : w->mainSpans())
        main_s += spans.total(name);
    return work / main_s;
}

int
tracedRun(const WorkloadSpec &spec, const Args &a)
{
    Tally tally;
    Metrics m;
    SpanRecorder spans;
    m["trace.throughput_per_s"] = {
        tracedOps(spec, a.seed, a.seconds, spans, tally, m), "1/s"};
    for (const WorkloadSpec &other : workloadSpecs()) {
        if (&other != &spec)
            tracedOps(other, a.seed, 0.0, spans, tally, m);
    }
    if (!a.spans.empty() && !spans.writeChromeTrace(a.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spans.c_str());
        return 1;
    }
    std::printf("perfbench: %zu spans\n", spans.spans().size());
    printResult(tally, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--spans PATH] "
                     "[--setup-only 1]\n");
        return 2;
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (a.workload == s.name)
            spec = &s;
    }
    if (spec == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     a.workload.c_str());
        return 2;
    }

    // The GEMM tier is whatever cpuid selects on this machine.
    unsetenv("MTIA_SIMD_ISA");
    // Pin glibc's mmap threshold at its 128 KiB default. Its dynamic
    // adjustment follows the order of large frees and left the same
    // work peaking anywhere in 29-41 MiB from seed to seed; pinned,
    // buffers from 128 KiB up are mapped and unmapped with their
    // tensors, and peak RSS tracks the program's live memory. This is
    // a departure from the shipped program: the extra page faults cost
    // time (see README.md).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const ScopedParallelism lanes(kLanes);
    std::printf("perfbench: workload=%s lanes=%u simd=%s seed=%llu "
                "trace=%d op=\"%s\"\n",
                spec->name, parallelLanes(),
                simd::isaName(simd::activeIsa()),
                static_cast<unsigned long long>(a.seed), a.trace,
                spec->op_size);
    if (a.trace == 1)
        return tracedRun(*spec, a);
    untracedRun(*spec, a);
    return 0;
}
