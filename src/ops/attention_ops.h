#ifndef MTIA_OPS_ATTENTION_OPS_H_
#define MTIA_OPS_ATTENTION_OPS_H_

/**
 * @file
 * Attention operator: classic multi-headed attention (the MHA blocks
 * that entered the Section 6 case-study model).
 */

#include <cstdint>

#include "ops/op.h"

namespace mtia {

/**
 * Multi-headed self attention over [B*S, D] activations (sequence
 * folded into rows). Functional path computes real QKV projections,
 * scaled dot-product attention, and the output projection.
 */
class MhaOp : public Op
{
  public:
    MhaOp(std::int64_t batch, std::int64_t seq, std::int64_t dim,
          std::int64_t heads, DType dtype = DType::FP16,
          std::uint64_t weight_seed = 303);

    std::string kind() const override { return "mha"; }
    std::size_t arity() const override { return 1; }
    /** Shape-preserving: accepts [B*S, D] or the equivalent-layout
     * [B, S*D] view. */
    Shape outputShape(const std::vector<Shape> &inputs) const override
    {
        return inputs.at(0);
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    Bytes weightBytes() const override;
    double flops() const override;

    std::int64_t heads() const { return heads_; }

    /**
     * Replace the Slice-Reshape-Concat head plumbing with the custom
     * MLU transpose kernel (the Section 6 optimization); affects cost
     * only, numerics are identical.
     */
    void useCustomTranspose(bool enabled) { custom_transpose_ = enabled; }

  private:
    const std::vector<Tensor> &projections() const;

    std::int64_t batch_;
    std::int64_t seq_;
    std::int64_t dim_;
    std::int64_t heads_;
    DType dtype_;
    std::uint64_t weight_seed_;
    bool custom_transpose_ = false;
    mutable std::vector<Tensor> proj_; // Wq, Wk, Wv, Wo
};

} // namespace mtia

#endif // MTIA_OPS_ATTENTION_OPS_H_
