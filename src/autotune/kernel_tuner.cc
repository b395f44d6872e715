#include "autotune/kernel_tuner.h"

#include <algorithm>
#include <chrono> // sim-lint: allow(wall-clock) — measured GEMM variant tuning (see GemmKernelTuner)
#include <cmath>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"

namespace mtia {

namespace {

/**
 * Cost assigned to an infeasible variant (weights that cannot be
 * LLC-resident): large enough that no feasible kernel time (picotick
 * scale, well under 1e16 for any real shape) ever loses to it, small
 * enough that surrogate training arithmetic stays finite.
 */
constexpr double kInfeasibleCost = 1e18;

/** KD-tree neighbours contributed to surrogate warm-starts. */
constexpr std::size_t kWarmNeighbors = 8;

double
log2Positive(std::int64_t v)
{
    return std::log2(static_cast<double>(std::max<std::int64_t>(1, v)));
}

/**
 * Deterministic synthetic GEMM operands for timing a shape; values
 * only have to be non-degenerate, timing does not depend on them.
 */
struct GemmOperands
{
    std::vector<float> a, b, c;

    explicit GemmOperands(const FcShape &s)
        : a(static_cast<std::size_t>(s.m * s.k)),
          b(static_cast<std::size_t>(s.k * s.n)),
          c(static_cast<std::size_t>(s.m * s.n))
    {
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = static_cast<float>(static_cast<int>(i % 251) - 125) * 0.01f;
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<float>(static_cast<int>(i % 241) - 120) * 0.01f;
    }
};

} // namespace

std::vector<FcOptions>
KernelTuner::variantSpace()
{
    // Variants differ in operand residency and loading strategy —
    // the "input, output, and weight stationary" variants with
    // different block sizes and DMA scheduling the kernel generator
    // emits.
    std::vector<FcOptions> space;
    for (Placement weights : {Placement::Llc, Placement::Dram}) {
        for (bool coordinated : {true, false}) {
            for (Placement acts : {Placement::Lls, Placement::Llc}) {
                FcOptions opt;
                opt.weights = weights;
                opt.coordinated_loading = coordinated;
                opt.activations = acts;
                space.push_back(opt);
            }
        }
    }
    return space;
}

TuneResult
KernelTuner::tuneExhaustive(const FcShape &shape) const
{
    const std::vector<FcOptions> space = variantSpace();

    // Evaluate every variant concurrently, each against its own
    // device clone (cost-model queries bump mutable observability
    // counters, so tasks must not share one device). Feasibility and
    // timing per variant depend only on (shape, variant), so the
    // reduction below — first minimum in variant order — matches the
    // serial path byte-for-byte at any thread count.
    struct Eval
    {
        Tick time = 0;
        bool feasible = false;
    };
    const std::vector<Eval> evals = parallelMap(
        space.size(), [&](std::size_t i) {
            Eval e;
            const FcOptions &variant = space[i];
            // Weights larger than the LLC cannot use the cached
            // variant.
            if (variant.weights == Placement::Llc &&
                shape.weightBytes(variant.dtype) >
                    km_.device().sramPartition().llcBytes()) {
                return e;
            }
            const Device dev = km_.device().cloneConfigured();
            const KernelCostModel km(dev);
            e.time = km.fc(shape, variant).total;
            e.feasible = true;
            return e;
        });

    TuneResult best;
    bool first = true;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        if (!evals[i].feasible)
            continue;
        if (first || evals[i].time < best.kernel_time) {
            best.variant = space[i];
            best.kernel_time = evals[i].time;
            first = false;
        }
    }
    MTIA_CHECK(!first) << ": tuneExhaustive found no feasible variant";
    best.tuning_cost = replay_cost_ * static_cast<Tick>(space.size());
    return best;
}

std::vector<FcOptions>
KernelTuner::extendedVariantSpace()
{
    // The full placement x precision x loading cross product the cost
    // model can price. Placement order mirrors the legacy grid
    // (cached before streamed) so low-index tie-breaks still prefer
    // the cache-friendly variant.
    std::vector<FcOptions> space;
    for (DType dtype : {DType::FP16, DType::INT8}) {
        for (Placement weights : {Placement::Llc, Placement::Dram}) {
            for (bool coordinated : {true, false}) {
                for (Placement acts :
                     {Placement::Lls, Placement::Llc, Placement::Dram}) {
                    for (Placement out :
                         {Placement::Lls, Placement::Llc,
                          Placement::Dram}) {
                        for (bool dyn_int8 : {false, true}) {
                            for (bool sparse : {false, true}) {
                                FcOptions opt;
                                opt.dtype = dtype;
                                opt.weights = weights;
                                opt.coordinated_loading = coordinated;
                                opt.activations = acts;
                                opt.output = out;
                                opt.dynamic_int8 = dyn_int8;
                                opt.sparse_24 = sparse;
                                space.push_back(opt);
                            }
                        }
                    }
                }
            }
        }
    }
    return space;
}

FeatureVec
KernelTuner::variantFeatures(const FcShape &shape, const FcOptions &opt)
{
    FeatureVec f{};
    f[0] = log2Positive(shape.m);
    f[1] = log2Positive(shape.n);
    f[2] = log2Positive(shape.k);
    f[3] = static_cast<double>(opt.weights);
    f[4] = static_cast<double>(opt.activations);
    f[5] = static_cast<double>(opt.output);
    f[6] = opt.coordinated_loading ? 1.0 : 0.0;
    f[7] = opt.dynamic_int8 ? 1.0 : 0.0;
    f[8] = opt.sparse_24 ? 1.0 : 0.0;
    f[9] = static_cast<double>(dtypeSize(opt.dtype));
    return f;
}

KernelSurrogateResult
KernelTuner::tuneSurrogate(const FcShape &shape, const PerfDatabase *warm,
                           const SurrogateSweepOptions &opts) const
{
    const std::vector<FcOptions> space = extendedVariantSpace();

    SurrogateSweepOptions o = opts;
    if (warm != nullptr) {
        for (const PerfEntry &e : warm->lookupK(shape, kWarmNeighbors)) {
            o.warm_features.push_back(
                variantFeatures(e.shape, e.best_variant));
            o.warm_costs.push_back(static_cast<double>(e.best_time));
        }
    }

    const Bytes llc = km_.device().sramPartition().llcBytes();
    const SurrogateSweepResult loop = surrogateArgmin(
        space.size(),
        [&](std::size_t i) { return variantFeatures(shape, space[i]); },
        [&](std::size_t i) -> double {
            const FcOptions &variant = space[i];
            if (variant.weights == Placement::Llc &&
                shape.weightBytes(variant.dtype) > llc) {
                return kInfeasibleCost;
            }
            // Per-task device clone, as in tuneExhaustive: cost-model
            // queries bump mutable observability counters.
            const Device dev = km_.device().cloneConfigured();
            const KernelCostModel km(dev);
            return static_cast<double>(km.fc(shape, variant).total);
        },
        o);

    MTIA_CHECK_LT(loop.best_cost, kInfeasibleCost)
        << ": tuneSurrogate found no feasible variant for "
        << shape.toString();
    KernelSurrogateResult r;
    r.result.variant = space[loop.best_index];
    r.result.kernel_time = static_cast<Tick>(loop.best_cost);
    r.result.tuning_cost =
        replay_cost_ * static_cast<Tick>(loop.real_evals);
    r.loop = loop;
    r.grid_size = space.size();
    return r;
}

TuneResult
KernelTuner::tuneApproximate(const FcShape &shape,
                             PerfDatabase &db) const
{
    const auto hit = db.lookup(shape);
    if (!hit.has_value()) {
        TuneResult r = tuneExhaustive(shape);
        db.insert(PerfEntry{shape, r.variant, r.kernel_time});
        return r;
    }
    TuneResult r;
    r.variant = hit->best_variant;
    // The adopted variant may be infeasible for this shape's weight
    // size; degrade to the streaming variant instead of failing.
    if (r.variant.weights == Placement::Llc &&
        shape.weightBytes(r.variant.dtype) >
            km_.device().sramPartition().llcBytes()) {
        r.variant.weights = Placement::Dram;
    }
    r.kernel_time = km_.fc(shape, r.variant).total;
    r.tuning_cost = fromMillis(20.0); // one database lookup
    return r;
}

PerfDatabase
KernelTuner::buildDatabase(const std::vector<FcShape> &corpus) const
{
    // Tune every corpus shape concurrently (the inner per-variant
    // fan-out runs inline on the worker), then insert in corpus order
    // so the database is independent of the thread schedule.
    const std::vector<TuneResult> results = parallelMap(
        corpus.size(),
        [&](std::size_t i) { return tuneExhaustive(corpus[i]); });
    PerfDatabase db;
    for (std::size_t i = 0; i < corpus.size(); ++i)
        db.insert(PerfEntry{corpus[i], results[i].variant,
                            results[i].kernel_time});
    return db;
}

// --------------------------------------------- measured GEMM tuning

GemmKernelTuner::GemmKernelTuner(int reps) : reps_(reps)
{
    MTIA_CHECK_GE(reps, 1) << ": GemmKernelTuner needs at least one rep";
}

std::vector<GemmVariant>
GemmKernelTuner::variantSpace()
{
    // Scalar first, then ascending vector width: first-minimum
    // tie-breaking therefore prefers the reference when timings tie.
    static constexpr simd::SimdIsa kTiers[] = {
        simd::SimdIsa::Scalar, simd::SimdIsa::Sse2, simd::SimdIsa::Neon,
        simd::SimdIsa::Avx2, simd::SimdIsa::Avx512};
    static constexpr simd::GemmBlocking kBlockings[] = {
        {64, 256, 512}, {32, 128, 1024}, {128, 512, 256}};
    std::vector<GemmVariant> space;
    for (simd::SimdIsa isa : kTiers) {
        if (!simd::isaSupported(isa))
            continue;
        for (const simd::GemmBlocking &blk : kBlockings)
            space.push_back(GemmVariant{isa, blk});
    }
    return space;
}

std::vector<GemmVariant>
GemmKernelTuner::extendedVariantSpace()
{
    static constexpr simd::SimdIsa kTiers[] = {
        simd::SimdIsa::Scalar, simd::SimdIsa::Sse2, simd::SimdIsa::Neon,
        simd::SimdIsa::Avx2, simd::SimdIsa::Avx512};
    static constexpr std::int64_t kMc[] = {32, 64, 128, 256};
    static constexpr std::int64_t kKc[] = {128, 256, 512, 1024};
    static constexpr std::int64_t kNc[] = {256, 512, 1024};
    std::vector<GemmVariant> space;
    for (simd::SimdIsa isa : kTiers) {
        if (!simd::isaSupported(isa))
            continue;
        for (std::int64_t mc : kMc)
            for (std::int64_t kc : kKc)
                for (std::int64_t nc : kNc)
                    space.push_back(
                        GemmVariant{isa, simd::GemmBlocking{mc, kc, nc}});
    }
    return space;
}

FeatureVec
GemmKernelTuner::variantFeatures(const FcShape &shape,
                                 const GemmVariant &v)
{
    FeatureVec f{};
    f[0] = log2Positive(shape.m);
    f[1] = log2Positive(shape.n);
    f[2] = log2Positive(shape.k);
    f[3] = static_cast<double>(v.isa);
    f[4] = log2Positive(v.blocking.mc);
    f[5] = log2Positive(v.blocking.kc);
    f[6] = log2Positive(v.blocking.nc);
    return f;
}

GemmSurrogateResult
GemmKernelTuner::tuneSurrogate(const FcShape &shape,
                               const GemmVariantDatabase *warm,
                               const SurrogateSweepOptions &opts) const
{
    MTIA_CHECK(shape.m > 0 && shape.n > 0 && shape.k > 0)
        << ": GemmKernelTuner needs a positive shape, got "
        << shape.toString();
    const std::vector<GemmVariant> space = extendedVariantSpace();
    MTIA_CHECK(!space.empty()) << ": empty GEMM variant space";

    GemmOperands ops(shape);

    SurrogateSweepOptions o = opts;
    // Timing-based evaluator: samples must not run concurrently.
    o.serial_eval = true;
    if (warm != nullptr) {
        for (const GemmPerfEntry &e :
             warm->lookupK(shape, kWarmNeighbors)) {
            o.warm_features.push_back(
                variantFeatures(e.shape, e.best_variant));
            o.warm_costs.push_back(e.best_seconds);
        }
    }

    const SurrogateSweepResult loop = surrogateArgmin(
        space.size(),
        [&](std::size_t i) { return variantFeatures(shape, space[i]); },
        [&](std::size_t i) {
            return measureVariant(space[i], ops.a.data(), ops.b.data(),
                                  ops.c.data(), shape);
        },
        o);

    GemmSurrogateResult r;
    r.result.variant = space[loop.best_index];
    r.result.seconds = loop.best_cost;
    r.result.gflops = shape.flops() / loop.best_cost / 1e9;
    r.loop = loop;
    r.grid_size = space.size();
    return r;
}

double
GemmKernelTuner::measureVariant(const GemmVariant &v, const float *a,
                                const float *b, float *c,
                                const FcShape &s) const
{
    double best = 0.0;
    for (int rep = 0; rep < reps_; ++rep) {
        const auto t0 = std::chrono::steady_clock::now(); // sim-lint: allow(wall-clock) — measured variant tuning times real kernels by design
        simd::gemmF32(a, b, c, s.m, s.n, s.k, v.isa, v.blocking);
        const auto t1 = std::chrono::steady_clock::now(); // sim-lint: allow(wall-clock) — measured variant tuning times real kernels by design
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || secs < best)
            best = secs;
    }
    return best;
}

GemmTuneResult
GemmKernelTuner::tuneMeasured(const FcShape &shape) const
{
    MTIA_CHECK(shape.m > 0 && shape.n > 0 && shape.k > 0)
        << ": GemmKernelTuner needs a positive shape, got "
        << shape.toString();
    GemmOperands ops(shape);

    const std::vector<GemmVariant> space = variantSpace();
    MTIA_CHECK(!space.empty()) << ": empty GEMM variant space";
    GemmTuneResult result;
    bool first = true;
    for (const GemmVariant &v : space) {
        const double secs =
            measureVariant(v, ops.a.data(), ops.b.data(), ops.c.data(),
                           shape);
        // Strict less-than: the earliest variant in space order wins
        // ties, mirroring tuneExhaustive's deterministic reduction.
        if (first || secs < result.seconds) {
            result.variant = v;
            result.seconds = secs;
            first = false;
        }
    }
    result.gflops = shape.flops() / result.seconds / 1e9;
    return result;
}

GemmTuneResult
GemmKernelTuner::tuneApproximate(const FcShape &shape,
                                 GemmVariantDatabase &db) const
{
    if (const auto hit = db.lookup(shape)) {
        GemmOperands ops(shape);
        GemmTuneResult result;
        result.variant = hit->best_variant;
        result.seconds = measureVariant(result.variant, ops.a.data(),
                                        ops.b.data(), ops.c.data(), shape);
        result.gflops = shape.flops() / result.seconds / 1e9;
        return result;
    }
    const GemmTuneResult result = tuneMeasured(shape);
    db.insert(GemmPerfEntry{shape, result.variant, result.seconds,
                            result.gflops});
    return result;
}

GemmVariantDatabase
GemmKernelTuner::buildDatabase(const std::vector<FcShape> &corpus) const
{
    // Serial on purpose: concurrent timing runs would contend for the
    // lane pool and cores, skewing every sample.
    GemmVariantDatabase db;
    for (const FcShape &shape : corpus) {
        const GemmTuneResult r = tuneMeasured(shape);
        db.insert(GemmPerfEntry{shape, r.variant, r.seconds, r.gflops});
    }
    return db;
}

} // namespace mtia
