#ifndef MTIA_PERFBENCH_HARNESS_H_
#define MTIA_PERFBENCH_HARNESS_H_

/**
 * @file
 * Closed-loop host-time harness shared by the four benchmark
 * workloads: the Workload interface each one implements, the span
 * recorder of the traced run, and the metric table printed as the
 * result line.
 *
 * Every timing is process CPU time, read through CpuTimer (built on
 * the same sanctioned-stopwatch idiom as bench::WallTimer). Host times
 * only ever land in this harness's own metrics and span file; they
 * never feed an argument of a simulator call, so no simulated result
 * can depend on them.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mtia::perfbench {

/**
 * Process CPU-time stopwatch: the clock of every benchmark timing. On
 * a shared host the hypervisor takes the vCPU away for seconds at a
 * time (steal); wall time counts those stalls, process CPU time does
 * not. Every workload runs at one lane, so otherwise the two agree.
 */
class CpuTimer
{
  public:
    CpuTimer() : start_(now()) {}

    /** CPU seconds since construction. */
    double seconds() const { return now() - start_; }

    /** CPU seconds this process has used since it started. */
    static double now();

  private:
    double start_;
};

/** One metric of the result line: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (sorted, so the result line is stable). */
using Metrics = std::map<std::string, Metric>;

/** Median (linear interpolation between ranks) of @p v. */
double median(std::vector<double> v);

/** Quantile @p q in [0, 1] of @p v, linear interpolation between
 *  ranks. @pre !v.empty(). */
double quantile(std::vector<double> v, double q);

/**
 * In-memory host-time span recorder for the traced run. A span is one
 * call into a layer: name, start, end, the span that was open when it
 * began (its parent), and the benchmark op it belongs to. Spans are
 * written as Chrome trace-event JSON when the run ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1; ///< index of the enclosing span, -1 at top
        std::uint64_t op = 0;
    };

    /** Open a span of op @p op; returns its index. */
    int begin(const std::string &name, std::uint64_t op);
    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in seconds of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum of durations of every span named @p name. */
    double total(const std::string &name) const;
    /** Self time of span @p index: its duration minus the part its
     *  direct children cover. */
    double selfSeconds(int index) const;

    /** Write the spans as Chrome trace-event JSON to @p path. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    CpuTimer clock_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: open on construction, close on destruction. A null
 *  recorder (the untraced run) makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, std::uint64_t op)
        : rec_(rec), index_(rec != nullptr ? rec->begin(name, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int index_;
};

/** Outcome of one benchmark op. */
struct OpOutcome
{
    /** Work done, in the workload's throughput unit. */
    double work = 0.0;
    /** The op passed every correctness check. */
    bool ok = true;
    /** Deterministic rendering of the op's simulated/computed result;
     *  must be byte-identical whenever the same op is re-run, traced
     *  or not. */
    std::string digest;
};

/**
 * One benchmark workload. The harness calls setup() once on a fresh
 * object, then op() in a closed loop (each call
 * starts when the previous one returns). Ops are numbered from 0, and
 * op i always does the same work for a given seed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from @p seed and warm up (cold first runs,
     *  lazy tables, allocator growth). Returns false when a set-up
     *  check failed. */
    virtual bool setup(std::uint64_t seed) = 0;

    /**
     * Op @p i. Untraced (@p spans null) it makes only the public calls
     * being measured. Traced, it wraps those calls in spans (their
     * names are mainSpans()), attaches the program's own telemetry and
     * adds the sub-calls timed from outside for the per-layer metrics.
     * The digest is the same either way.
     */
    virtual OpOutcome op(std::uint64_t i, SpanRecorder *spans) = 0;

    /** Span names of the calls op() makes (tracing-overhead base). */
    virtual std::vector<std::string> mainSpans() const = 0;

    /**
     * Per-layer metrics after traced ops 0..n-1. Figures
     * derived from simulated or counted state use ops
     * 0..kFixedTraceOps-1 only, so they repeat exactly for a seed
     * however many ops the machine's speed allowed.
     */
    virtual void layerMetrics(const SpanRecorder &spans,
                              Metrics &out) const = 0;
};

/** Ops whose counted/simulated figures the per-layer metrics use. */
constexpr std::uint64_t kFixedTraceOps = 4;

/** Static description of a workload. */
struct WorkloadSpec
{
    const char *name;
    /** What one unit of throughput_per_s is. */
    const char *work_unit;
    /** One line: what one op does. */
    const char *op_size;
    std::unique_ptr<Workload> (*make)();
};

std::unique_ptr<Workload> makeClusterChaos();
std::unique_ptr<Workload> makeCodesignSweep();
std::unique_ptr<Workload> makeFunctionalInference();
std::unique_ptr<Workload> makeCodecRoundtrip();

/** The four workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** Seed of op @p i's substream of run seed @p seed. */
std::uint64_t opSeed(std::uint64_t seed, std::uint64_t i);

/** SHA-256 hex of @p bytes (digest helper). */
std::string sha256Hex(const std::vector<std::uint8_t> &bytes);

} // namespace mtia::perfbench

#endif // MTIA_PERFBENCH_HARNESS_H_
