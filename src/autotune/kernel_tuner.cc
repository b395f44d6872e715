#include "autotune/kernel_tuner.h"

#include <algorithm>
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

} // namespace mtia
