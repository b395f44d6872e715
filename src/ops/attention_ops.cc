#include "ops/attention_ops.h"

#include <cmath>

#include "pe/mlu.h"
#include "pe/simd_engine.h"
#include "core/check.h"
#include "ops/gemm_kernels.h"

namespace mtia {

MhaOp::MhaOp(std::int64_t batch, std::int64_t seq, std::int64_t dim,
             std::int64_t heads, DType dtype, std::uint64_t weight_seed)
    : batch_(batch),
      seq_(seq),
      dim_(dim),
      heads_(heads),
      dtype_(dtype),
      weight_seed_(weight_seed)
{
    MTIA_CHECK_GT(heads_, 0) << ": MhaOp head count";
    MTIA_CHECK_EQ(dim_ % heads_, 0)
        << ": MhaOp dim must divide evenly into heads";
}

const std::vector<Tensor> &
MhaOp::projections() const
{
    if (proj_.empty()) {
        Rng rng(weight_seed_);
        const float scale = 1.0f / std::sqrt(static_cast<float>(dim_));
        for (int i = 0; i < 4; ++i) {
            Tensor w(Shape{dim_, dim_}, dtype_);
            w.fillGaussian(rng, 0.0f, scale);
            proj_.push_back(std::move(w));
        }
    }
    return proj_;
}

Tensor
MhaOp::run(const std::vector<Tensor> &inputs, OpContext &ctx) const
{
    // [B, S*D] and [B*S, D] share a memory layout; normalize the view.
    const Tensor x = MemoryLayoutUnit::reshape(
        inputs[0], Shape{batch_ * seq_, dim_});
    const auto &w = projections();
    // Projections go through the runtime-dispatched blocked GEMM
    // (bit-identical to the DPE reference path it replaced).
    const Tensor q = gemm_kernels::gemm(x, w[0], dtype_);
    const Tensor k = gemm_kernels::gemm(x, w[1], dtype_);
    const Tensor v = gemm_kernels::gemm(x, w[2], dtype_);

    const std::int64_t dh = dim_ / heads_;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    Tensor attn_out(Shape{batch_ * seq_, dim_}, DType::FP32);

    for (std::int64_t b = 0; b < batch_; ++b) {
        for (std::int64_t h = 0; h < heads_; ++h) {
            // Scores for this (batch, head): [S, S].
            Tensor scores(Shape{seq_, seq_}, DType::FP32);
            for (std::int64_t i = 0; i < seq_; ++i) {
                for (std::int64_t j = 0; j < seq_; ++j) {
                    double dot = 0.0;
                    for (std::int64_t d = 0; d < dh; ++d) {
                        dot += static_cast<double>(
                                   q.at2(b * seq_ + i, h * dh + d)) *
                            static_cast<double>(
                                   k.at2(b * seq_ + j, h * dh + d));
                    }
                    scores.set2(i, j,
                                static_cast<float>(dot) * inv_sqrt);
                }
            }
            // Row softmax through the (LUT) exp path.
            for (std::int64_t i = 0; i < seq_; ++i) {
                float mx = scores.at2(i, 0);
                for (std::int64_t j = 1; j < seq_; ++j)
                    mx = std::max(mx, scores.at2(i, j));
                Tensor row(Shape{seq_}, DType::FP32);
                for (std::int64_t j = 0; j < seq_; ++j)
                    row.set(j, scores.at2(i, j) - mx);
                const Tensor e = ctx.use_lut_simd
                    ? SimdEngine().apply(Nonlinearity::Exp, row)
                    : SimdEngine::applyExact(Nonlinearity::Exp, row);
                double sum = 0.0;
                for (std::int64_t j = 0; j < seq_; ++j)
                    sum += static_cast<double>(e.at(j));
                for (std::int64_t j = 0; j < seq_; ++j)
                    scores.set2(i, j,
                                static_cast<float>(
                                    static_cast<double>(e.at(j)) / sum));
            }
            // Attention output A * V for this head.
            for (std::int64_t i = 0; i < seq_; ++i) {
                for (std::int64_t d = 0; d < dh; ++d) {
                    double acc = 0.0;
                    for (std::int64_t j = 0; j < seq_; ++j) {
                        acc += static_cast<double>(scores.at2(i, j)) *
                            static_cast<double>(
                                v.at2(b * seq_ + j, h * dh + d));
                    }
                    attn_out.set2(b * seq_ + i, h * dh + d,
                                  static_cast<float>(acc));
                }
            }
        }
    }
    return MemoryLayoutUnit::reshape(
        gemm_kernels::gemm(attn_out, w[3], dtype_), inputs[0].shape());
}

KernelTime
MhaOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    const std::int64_t rows = batch_ * seq_;
    const std::int64_t dh = dim_ / heads_;
    FcOptions fc_opt;
    fc_opt.dtype = dtype_;
    fc_opt.weights = ctx.weights;
    fc_opt.activations = ctx.activations;
    fc_opt.output = ctx.output;
    fc_opt.include_launch = false; // composed below

    KernelTime total;
    total.launch = ctx.fused ? 0 : km.device().jobLaunchTime();
    Tick sum = total.launch;

    // QKV + output projections.
    const KernelTime proj =
        km.fc(FcShape{rows, dim_, dim_}, fc_opt);
    sum += 4 * proj.total;

    // Q*K^T and A*V, batched over (batch, head).
    const KernelTime qk = km.fc(
        FcShape{batch_ * heads_ * seq_, seq_, dh}, fc_opt);
    sum += 2 * qk.total;

    // Softmax over every score row.
    const KernelTime sm =
        km.softmax(batch_ * heads_ * seq_, seq_, false);
    sum += sm.total;

    // Head plumbing: Slice+Reshape+Concat chains for Q, K, V and the
    // output, or a single custom transpose kernel.
    const Bytes act_bytes = static_cast<Bytes>(rows) * dim_ * 2;
    if (custom_transpose_) {
        sum += km.simdOp(0, 0.0, act_bytes * 2, false).total;
    } else {
        for (int chain = 0; chain < 4; ++chain) {
            // Three layout ops, each a separate (unfused) kernel.
            for (int op = 0; op < 3; ++op)
                sum += km.simdOp(0, 0.0, act_bytes * 2, true).total;
        }
    }

    total.total = sum;
    total.compute = sum - total.launch;
    total.bottleneck = "composite";
    return total;
}

Bytes
MhaOp::weightBytes() const
{
    return static_cast<Bytes>(4) * dim_ * dim_ * dtypeSize(dtype_);
}

double
MhaOp::flops() const
{
    const double rows =
        static_cast<double>(batch_) * static_cast<double>(seq_);
    const double dim = static_cast<double>(dim_);
    const double proj = 4.0 * 2.0 * rows * dim * dim;
    const double attn = 2.0 * 2.0 * rows * static_cast<double>(seq_) *
        static_cast<double>(dim_ / heads_);
    return proj + attn;
}

} // namespace mtia
