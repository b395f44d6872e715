#ifndef MTIA_OPS_DENSE_OPS_H_
#define MTIA_OPS_DENSE_OPS_H_

/**
 * @file
 * Dense operators: inputs, fully-connected layers (with optional fused
 * activation and dynamic INT8), layer norm (with horizontal batching),
 * elementwise math, layout ops, and in-batch broadcast.
 */

#include <cstdint>
#include <vector>

#include "ops/op.h"
#include "pe/simd_engine.h"

namespace mtia {

/** A graph input / placeholder of fixed shape. */
class InputOp : public Op
{
  public:
    InputOp(std::string name, Shape shape)
        : name_(std::move(name)), shape_(std::move(shape)) {}

    std::string kind() const override { return "input"; }
    std::size_t arity() const override { return 0; }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return shape_;
    }
    Tensor run(const std::vector<Tensor> &, OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &,
                    const CostContext &) const override
    {
        return {};
    }
    double flops() const override { return 0.0; }
    std::string toString() const override { return "input:" + name_; }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Shape shape_;
};

/** Fully-connected layer: X[M,K] * W[K,N] (+ bias, + activation). */
class FullyConnectedOp : public Op
{
  public:
    /**
     * @param batch M (rows).
     * @param in_features K.
     * @param out_features N.
     * @param dtype Compute dtype (weights stored likewise).
     * @param activation Fused nonlinearity (Relu-as-identity trick is
     *        not used; pass has_activation=false for a linear layer).
     */
    FullyConnectedOp(std::int64_t batch, std::int64_t in_features,
                     std::int64_t out_features,
                     DType dtype = DType::FP16,
                     bool has_activation = false,
                     Nonlinearity activation = Nonlinearity::Relu,
                     std::uint64_t weight_seed = 1);

    std::string kind() const override { return "fc"; }
    std::size_t arity() const override { return 1; }
    bool fusedKernel() const override { return has_activation_; }
    Shape outputShape(const std::vector<Shape> &inputs) const override;
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    Bytes weightBytes() const override;
    double flops() const override;
    std::string toString() const override;

    const FcShape &shape() const { return shape_; }
    DType dtype() const { return dtype_; }
    bool hasActivation() const { return has_activation_; }
    Nonlinearity activation() const { return activation_; }
    std::uint64_t weightSeed() const { return weight_seed_; }

    /** Fuse an activation into this layer (vertical fusion pass). */
    void fuseActivation(Nonlinearity f)
    {
        has_activation_ = true;
        activation_ = f;
    }

    /** Lazily materialized weights (deterministic per seed). */
    const Tensor &weights() const;

  private:
    FcShape shape_;
    DType dtype_;
    bool has_activation_;
    Nonlinearity activation_;
    std::uint64_t weight_seed_;
    mutable Tensor weights_; // lazy
};

/** Standalone activation (before vertical fusion). */
class ActivationOp : public Op
{
  public:
    ActivationOp(Shape shape, Nonlinearity f)
        : shape_(std::move(shape)), fn_(f) {}

    std::string kind() const override { return "activation"; }
    std::size_t arity() const override { return 1; }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return shape_;
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override
    {
        return static_cast<double>(shape_.numel());
    }
    Nonlinearity fn() const { return fn_; }

  private:
    Shape shape_;
    Nonlinearity fn_;
};

/**
 * LayerNorm over the last dimension; @p instances > 1 models the
 * horizontally-batched variant from the Section 6 case study (one
 * kernel launch normalizing many sibling layers).
 */
class LayerNormOp : public Op
{
  public:
    LayerNormOp(std::int64_t rows, std::int64_t cols,
                std::int64_t instances = 1)
        : rows_(rows), cols_(cols), instances_(instances) {}

    std::string kind() const override { return "layernorm"; }
    std::size_t arity() const override
    {
        return static_cast<std::size_t>(instances_) > 1
            ? static_cast<std::size_t>(instances_)
            : 1;
    }
    Shape outputShape(const std::vector<Shape> &inputs) const override;
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override
    {
        return 8.0 * static_cast<double>(rows_) *
               static_cast<double>(cols_) * static_cast<double>(instances_);
    }
    std::int64_t instances() const { return instances_; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }

  private:
    void checkInputs(const std::vector<Shape> &inputs) const;

    std::int64_t rows_;
    std::int64_t cols_;
    std::int64_t instances_;
};

/** Elementwise binary op (add/mul of two inputs of the op's shape). */
class ElementwiseOp : public Op
{
  public:
    enum class Kind { Add, Mul };

    ElementwiseOp(Shape shape, Kind kind)
        : shape_(std::move(shape)), op_(kind) {}

    std::string kind() const override { return "elementwise"; }
    std::size_t arity() const override { return 2; }
    Shape outputShape(const std::vector<Shape> &inputs) const override;
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override
    {
        return static_cast<double>(shape_.numel());
    }

  private:
    Shape shape_;
    Kind op_;
};

/** Rank-2 transpose through the MLU. */
class TransposeOp : public Op
{
  public:
    explicit TransposeOp(Shape in) : in_(std::move(in)) {}

    std::string kind() const override { return "transpose"; }
    std::size_t arity() const override { return 1; }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return Shape{in_.dim(1), in_.dim(0)};
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override { return 0.0; }

  private:
    Shape in_;
};

/** Concatenate along an axis (0 or 1). */
class ConcatOp : public Op
{
  public:
    ConcatOp(std::vector<Shape> inputs, int axis);

    std::string kind() const override { return "concat"; }
    std::size_t arity() const override { return inputs_.size(); }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return out_;
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override { return 0.0; }

  private:
    std::vector<Shape> inputs_;
    int axis_;
    Shape out_;
};

/**
 * In-batch broadcast: expand user-side rows to align with per-ad
 * rows (the IBB operator from the Section 6 case study). Input
 * [M, D] -> output [M * factor, D].
 */
class BroadcastOp : public Op
{
  public:
    BroadcastOp(Shape in, std::int64_t factor)
        : in_(std::move(in)), factor_(factor) {}

    std::string kind() const override { return "broadcast"; }
    std::size_t arity() const override { return 1; }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return Shape{in_.dim(0) * factor_, in_.dim(1)};
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    double flops() const override { return 0.0; }
    std::int64_t factor() const { return factor_; }

  private:
    Shape in_;
    std::int64_t factor_;
};

/**
 * Sibling-transpose-FC fusion result: one transposed input feeding
 * several FC layers as a single fused kernel whose outputs are
 * concatenated along the feature axis (Section 4.2 / Section 6).
 */
class FusedTransposeFcOp : public Op
{
  public:
    FusedTransposeFcOp(Shape input, /* pre-transpose [K, M] */
                       std::vector<std::int64_t> out_features,
                       DType dtype = DType::FP16,
                       std::uint64_t weight_seed = 11);

    std::string kind() const override { return "fused-transpose-fc"; }
    std::size_t arity() const override { return 1; }
    bool fusedKernel() const override { return true; }
    Shape outputShape(const std::vector<Shape> &) const override;
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    Bytes weightBytes() const override;
    double flops() const override;

  private:
    Shape input_;
    std::vector<std::int64_t> out_features_;
    DType dtype_;
    std::uint64_t weight_seed_;
    mutable std::vector<Tensor> weights_;
};

} // namespace mtia

#endif // MTIA_OPS_DENSE_OPS_H_
