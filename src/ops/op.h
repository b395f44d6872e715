#ifndef MTIA_OPS_OP_H_
#define MTIA_OPS_OP_H_

/**
 * @file
 * Operator abstraction shared by the graph IR, the functional
 * executor, and the kernel cost model. Every operator can both
 * compute real tensors (through the PE units' functional paths) and
 * report its timing on a Device (through the KernelCostModel), so the
 * same graph drives numerics experiments and performance experiments.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/kernel_cost_model.h"
#include "sim/random.h"
#include "tensor/tensor.h"

namespace mtia {

/** Runtime context for functional execution. */
struct OpContext
{
    Rng *rng = nullptr;       ///< for ops that sample (TBE indices)
    bool use_lut_simd = true; ///< LUT approximation vs exact math
};

/**
 * Per-node cost context, produced by the placement planner and the
 * autotuner.
 */
struct CostContext
{
    Placement weights = Placement::Llc;
    Placement activations = Placement::Lls;
    Placement output = Placement::Lls;
    bool dynamic_int8 = false;
    bool sparse_24 = false;
    /** Fused into an already-running job: no per-op launch. */
    bool fused = false;
    /** SRAM hit rate for embedding fetches. */
    double tbe_hit_rate = 0.5;
    bool coordinated_loading = true;
};

/** Base class of all operators. */
class Op
{
  public:
    virtual ~Op() = default;

    /** Operator kind, e.g. "fc", "layernorm" (used by fusion passes). */
    virtual std::string kind() const = 0;

    /** Number of graph inputs this op consumes. */
    virtual std::size_t arity() const = 0;

    /** True when run() executes through a fused kernel (one pass over
     * the output tiles instead of a chain of elementwise passes). The
     * executor counts these dispatches in telemetry. */
    virtual bool fusedKernel() const { return false; }

    /** Output shape given input shapes. */
    virtual Shape outputShape(const std::vector<Shape> &inputs) const = 0;

    /** Functional execution. */
    virtual Tensor run(const std::vector<Tensor> &inputs,
                       OpContext &ctx) const = 0;

    /** Timing on a device. */
    virtual KernelTime cost(const KernelCostModel &km,
                            const CostContext &ctx) const = 0;

    /** Model parameters (weights) held by this op, in bytes. */
    virtual Bytes weightBytes() const { return 0; }

    /** Floating-point work per invocation. */
    virtual double flops() const = 0;
};

using OpPtr = std::shared_ptr<Op>;

} // namespace mtia

#endif // MTIA_OPS_OP_H_
