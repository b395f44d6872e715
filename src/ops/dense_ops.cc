#include "ops/dense_ops.h"

#include <algorithm>
#include <cmath>

#include "pe/mlu.h"
#include "core/check.h"
#include "ops/gemm_kernels.h"
#include "tensor/quantize.h"

namespace mtia {

namespace {

Tensor
applyNonlinearity(Nonlinearity f, const Tensor &x, bool use_lut)
{
    return use_lut ? gemm_kernels::sharedSimdEngine().apply(f, x)
                   : SimdEngine::applyExact(f, x);
}

} // namespace

Tensor
InputOp::run(const std::vector<Tensor> &, OpContext &ctx) const
{
    Tensor t(shape_, DType::FP32);
    if (ctx.rng != nullptr)
        t.fillGaussian(*ctx.rng);
    return t;
}

FullyConnectedOp::FullyConnectedOp(std::int64_t batch,
                                   std::int64_t in_features,
                                   std::int64_t out_features, DType dtype,
                                   bool has_activation,
                                   Nonlinearity activation,
                                   std::uint64_t weight_seed)
    : shape_{batch, out_features, in_features},
      dtype_(dtype),
      has_activation_(has_activation),
      activation_(activation),
      weight_seed_(weight_seed)
{
}

const Tensor &
FullyConnectedOp::weights() const
{
    if (weights_.raw().empty()) {
        Rng rng(weight_seed_);
        weights_ = Tensor(Shape{shape_.k, shape_.n}, dtype_);
        // Xavier-ish init keeps activations in a sane range through
        // deep stacks.
        const float scale =
            1.0f / std::sqrt(static_cast<float>(shape_.k));
        weights_.fillGaussian(rng, 0.0f, scale);
    }
    return weights_;
}

Shape
FullyConnectedOp::outputShape(const std::vector<Shape> &inputs) const
{
    MTIA_CHECK_EQ(inputs.size(), 1u) << ": fc takes one input";
    MTIA_CHECK_EQ(inputs[0].rank(), 2u) << ": fc input rank";
    MTIA_CHECK_EQ(inputs[0].dim(1), shape_.k)
        << ": fc input width must match weight K";
    return Shape{inputs[0].dim(0), shape_.n};
}

Tensor
FullyConnectedOp::run(const std::vector<Tensor> &inputs,
                      OpContext &ctx) const
{
    // Runtime-dispatched blocked GEMM (bit-identical to the DPE
    // reference); with an activation the whole op runs as one fused
    // kernel with the activation in the row-block epilogue.
    if (has_activation_)
        return gemm_kernels::fusedGemmActivation(inputs[0], weights(),
                                                 dtype_, activation_,
                                                 ctx.use_lut_simd);
    return gemm_kernels::gemm(inputs[0], weights(), dtype_);
}

KernelTime
FullyConnectedOp::cost(const KernelCostModel &km,
                       const CostContext &ctx) const
{
    FcOptions opt;
    opt.dtype = ctx.dynamic_int8 ? DType::INT8 : dtype_;
    opt.dynamic_int8 = ctx.dynamic_int8;
    opt.sparse_24 = ctx.sparse_24;
    opt.weights = ctx.weights;
    opt.activations = ctx.activations;
    opt.output = ctx.output;
    opt.coordinated_loading = ctx.coordinated_loading;
    opt.include_launch = !ctx.fused;
    KernelTime t = km.fc(shape_, opt);
    if (has_activation_) {
        // Fused activation rides the SIMD engine as results stream
        // out of the reduction engine: it overlaps, costing only when
        // it exceeds the residual SIMD capacity. Approximate as a
        // small additive term.
        const KernelTime act = km.simdOp(
            shape_.m * shape_.n, 1.0, 0, /*include_launch=*/false);
        t.total += act.total / 4;
    }
    return t;
}

Bytes
FullyConnectedOp::weightBytes() const
{
    return shape_.weightBytes(dtype_);
}

double
FullyConnectedOp::flops() const
{
    return shape_.flops();
}

Tensor
ActivationOp::run(const std::vector<Tensor> &inputs, OpContext &ctx) const
{
    return applyNonlinearity(fn_, inputs[0], ctx.use_lut_simd);
}

KernelTime
ActivationOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    const std::int64_t n = shape_.numel();
    return km.simdOp(n, 1.0, static_cast<Bytes>(n) * 4, !ctx.fused,
                     ctx.activations);
}

void
LayerNormOp::checkInputs(const std::vector<Shape> &inputs) const
{
    MTIA_CHECK_EQ(inputs.size(), arity())
        << ": layernorm takes " << arity() << " input(s)";
    for (const Shape &s : inputs) {
        MTIA_CHECK_EQ(s.rank(), 2u) << ": layernorm input rank";
        // The batched variant writes each input into its own column
        // band of a [rows, cols * instances] output.
        if (instances_ > 1)
            MTIA_CHECK(s == (Shape{rows_, cols_}))
                << ": batched layernorm input " << s.toString()
                << " must be [" << rows_ << "x" << cols_ << "]";
    }
}

Shape
LayerNormOp::outputShape(const std::vector<Shape> &inputs) const
{
    checkInputs(inputs);
    if (instances_ == 1)
        return inputs[0];
    return Shape{rows_, cols_ * instances_};
}

Tensor
LayerNormOp::run(const std::vector<Tensor> &inputs, OpContext &) const
{
    std::vector<Shape> shapes;
    for (const Tensor &t : inputs)
        shapes.push_back(t.shape());
    Tensor out(outputShape(shapes), DType::FP32);
    float *dst = out.f32Data();
    const std::int64_t out_cols = out.shape().dim(1);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const FloatView x(inputs[i]);
        const std::int64_t rows = shapes[i].dim(0);
        const std::int64_t cols = shapes[i].dim(1);
        for (std::int64_t r = 0; r < rows; ++r) {
            const float *xr = x.data() + r * cols;
            float *o =
                dst + r * out_cols + static_cast<std::int64_t>(i) * cols;
            double mean = 0.0;
            for (std::int64_t c = 0; c < cols; ++c)
                mean += static_cast<double>(xr[c]);
            mean /= static_cast<double>(cols);
            double var = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                const double d = static_cast<double>(xr[c]) - mean;
                var += d * d;
            }
            var /= static_cast<double>(cols);
            const double inv = 1.0 / std::sqrt(var + 1e-5);
            for (std::int64_t c = 0; c < cols; ++c)
                o[c] = static_cast<float>(
                    (static_cast<double>(xr[c]) - mean) * inv);
        }
    }
    return out;
}

KernelTime
LayerNormOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    // One launch regardless of how many instances are batched in:
    // this is precisely the horizontal-batching win.
    return km.layerNorm(rows_ * instances_, cols_, !ctx.fused,
                        ctx.activations);
}

Shape
ElementwiseOp::outputShape(const std::vector<Shape> &inputs) const
{
    MTIA_CHECK_EQ(inputs.size(), 2u) << ": elementwise takes two inputs";
    for (const Shape &s : inputs)
        MTIA_CHECK(s == shape_)
            << ": elementwise input " << s.toString() << " must be "
            << shape_.toString();
    return shape_;
}

Tensor
ElementwiseOp::run(const std::vector<Tensor> &inputs, OpContext &) const
{
    Tensor out(outputShape({inputs.at(0).shape(), inputs.at(1).shape()}),
               DType::FP32);
    const FloatView a(inputs[0]);
    const FloatView b(inputs[1]);
    const float *pa = a.data();
    const float *pb = b.data();
    float *o = out.f32Data();
    const std::int64_t n = out.numel();
    if (op_ == Kind::Add) {
        for (std::int64_t i = 0; i < n; ++i)
            o[i] = pa[i] + pb[i];
    } else {
        for (std::int64_t i = 0; i < n; ++i)
            o[i] = pa[i] * pb[i];
    }
    return out;
}

KernelTime
ElementwiseOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    const std::int64_t n = shape_.numel();
    return km.simdOp(n, 1.0, static_cast<Bytes>(n) * 3 * 2, !ctx.fused,
                     ctx.activations);
}

Tensor
TransposeOp::run(const std::vector<Tensor> &inputs, OpContext &) const
{
    return MemoryLayoutUnit::transpose(inputs[0]);
}

KernelTime
TransposeOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    // Pure data movement: read + write every element.
    const std::int64_t n = in_.numel();
    return km.simdOp(0, 0.0, static_cast<Bytes>(n) * 2 * 2, !ctx.fused,
                     ctx.activations);
}

ConcatOp::ConcatOp(std::vector<Shape> inputs, int axis)
    : inputs_(std::move(inputs)), axis_(axis)
{
    MTIA_CHECK(!inputs_.empty()) << ": concat with no inputs";
    std::int64_t rows = inputs_[0].dim(0);
    std::int64_t cols = inputs_[0].dim(1);
    for (std::size_t i = 1; i < inputs_.size(); ++i) {
        if (axis_ == 0)
            rows += inputs_[i].dim(0);
        else
            cols += inputs_[i].dim(1);
    }
    out_ = Shape{rows, cols};
}

Tensor
ConcatOp::run(const std::vector<Tensor> &inputs, OpContext &) const
{
    return MemoryLayoutUnit::concat(inputs, axis_);
}

KernelTime
ConcatOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    const std::int64_t n = out_.numel();
    return km.simdOp(0, 0.0, static_cast<Bytes>(n) * 2 * 2, !ctx.fused,
                     ctx.activations);
}

Tensor
BroadcastOp::run(const std::vector<Tensor> &inputs, OpContext &) const
{
    const Tensor &x = inputs[0];
    MTIA_CHECK_EQ(x.shape().rank(), 2u) << ": broadcast input rank";
    Tensor out(Shape{x.shape().dim(0) * factor_, x.shape().dim(1)},
               x.dtype());
    const std::size_t bytes = x.raw().size();
    for (std::int64_t f = 0; f < factor_; ++f)
        std::copy_n(x.raw().data(), bytes,
                    out.raw().data() + static_cast<std::size_t>(f) * bytes);
    return out;
}

KernelTime
BroadcastOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    // Writes factor copies of the input.
    const std::int64_t n = in_.numel();
    return km.simdOp(0, 0.0,
                     static_cast<Bytes>(n) * (1 + factor_) * 2,
                     !ctx.fused, ctx.activations);
}

FusedTransposeFcOp::FusedTransposeFcOp(Shape input,
                                       std::vector<std::int64_t>
                                           out_features,
                                       DType dtype,
                                       std::uint64_t weight_seed)
    : input_(std::move(input)),
      out_features_(std::move(out_features)),
      dtype_(dtype),
      weight_seed_(weight_seed)
{
    MTIA_CHECK(!out_features_.empty())
        << ": fused-transpose-fc with no branches";
}

Shape
FusedTransposeFcOp::outputShape(const std::vector<Shape> &) const
{
    std::int64_t total = 0;
    for (std::int64_t n : out_features_)
        total += n;
    return Shape{input_.dim(1), total}; // transposed rows become batch
}

Tensor
FusedTransposeFcOp::run(const std::vector<Tensor> &inputs,
                        OpContext &) const
{
    const Tensor xt = MemoryLayoutUnit::transpose(inputs[0]);
    if (weights_.empty()) {
        Rng rng(weight_seed_);
        for (std::int64_t n : out_features_) {
            Tensor w(Shape{input_.dim(0), n}, dtype_);
            const float scale =
                1.0f / std::sqrt(static_cast<float>(input_.dim(0)));
            w.fillGaussian(rng, 0.0f, scale);
            weights_.push_back(std::move(w));
        }
    }
    std::vector<Tensor> outs;
    outs.reserve(weights_.size());
    for (const Tensor &w : weights_)
        outs.push_back(gemm_kernels::gemm(xt, w, dtype_));
    return MemoryLayoutUnit::concat(outs, 1);
}

KernelTime
FusedTransposeFcOp::cost(const KernelCostModel &km,
                         const CostContext &ctx) const
{
    // One launch; the transpose is folded into the activation stream
    // (read once instead of once per branch), and the branch GEMMs
    // share the staged input.
    std::int64_t total_n = 0;
    for (std::int64_t n : out_features_)
        total_n += n;
    FcOptions opt;
    opt.dtype = dtype_;
    opt.weights = ctx.weights;
    opt.activations = ctx.activations;
    opt.output = ctx.output;
    opt.include_launch = !ctx.fused;
    const FcShape shape{input_.dim(1), total_n, input_.dim(0)};
    return km.fc(shape, opt);
}

Bytes
FusedTransposeFcOp::weightBytes() const
{
    Bytes total = 0;
    for (std::int64_t n : out_features_)
        total += static_cast<Bytes>(input_.dim(0)) * n *
            dtypeSize(dtype_);
    return total;
}

double
FusedTransposeFcOp::flops() const
{
    double total = 0.0;
    for (std::int64_t n : out_features_)
        total += 2.0 * static_cast<double>(input_.dim(1)) *
            static_cast<double>(n) * static_cast<double>(input_.dim(0));
    return total;
}

} // namespace mtia
