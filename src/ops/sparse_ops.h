#ifndef MTIA_OPS_SPARSE_OPS_H_
#define MTIA_OPS_SPARSE_OPS_H_

/**
 * @file
 * Sparse-network operator: Table Batched Embedding (pooled, weighted
 * or unweighted). TBE indices follow a Zipf popularity distribution,
 * which is what gives the LLC its 40-60% hit rate on embedding
 * traffic.
 */

#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "ops/op.h"

namespace mtia {

namespace tbe_kernels {

/**
 * Accumulate @p count weighted embedding rows into one output row:
 * out[d] += weights[p] * rows[p][d] for p in order. Vector tiers block
 * over the embedding dimension with software prefetch of upcoming
 * rows; SimdIsa::Scalar runs gatherAccumulateScalar. Bit-identical
 * either way (separate multiply and add, order over p preserved).
 */
void gatherAccumulate(const float *const *rows, const float *weights,
                      std::size_t count, std::int64_t dim, float *out,
                      simd::SimdIsa isa = simd::activeIsa());

/** Element-at-a-time reference for gatherAccumulate. */
void gatherAccumulateScalar(const float *const *rows,
                            const float *weights, std::size_t count,
                            std::int64_t dim, float *out);

} // namespace tbe_kernels

/** Static description of one group of embedding tables. */
struct TbeTableSpec
{
    std::int64_t tables = 1;
    std::int64_t rows_per_table = 1 << 20;
    std::int64_t dim = 64;
    DType dtype = DType::FP16;
    double zipf_alpha = 0.9;

    Bytes
    totalBytes() const
    {
        return static_cast<Bytes>(tables) * rows_per_table * dim *
            dtypeSize(dtype);
    }
};

/**
 * Table Batched Embedding: for each (table, batch item) pool
 * @p pooling embedding rows into one output row. A source op: it
 * samples its own indices (deterministically via the executor rng).
 */
class TbeOp : public Op
{
  public:
    TbeOp(TbeTableSpec spec, std::int64_t batch, std::int64_t pooling,
          bool weighted, std::uint64_t table_seed = 101);

    std::string kind() const override { return "tbe"; }
    std::size_t arity() const override { return 0; }
    Shape outputShape(const std::vector<Shape> &) const override
    {
        return Shape{batch_, spec_.tables * spec_.dim};
    }
    Tensor run(const std::vector<Tensor> &inputs,
               OpContext &ctx) const override;
    KernelTime cost(const KernelCostModel &km,
                    const CostContext &ctx) const override;
    Bytes weightBytes() const override { return spec_.totalBytes(); }
    double flops() const override;

    const TbeTableSpec &spec() const { return spec_; }
    std::int64_t batch() const { return batch_; }
    std::int64_t pooling() const { return pooling_; }
    bool weighted() const { return weighted_; }

    /**
     * Measured SRAM hit rate for this op's index stream against an
     * LLC of @p llc_bytes, from the analytic Zipf/LRU model.
     */
    double expectedHitRate(Bytes llc_bytes) const;

    /**
     * Embedding element (@p table, @p row, @p col): a deterministic
     * hash, so functional runs are reproducible without materializing
     * multi-GB tables. The per-element oracle for run(): every output
     * element equals the in-order sum of weight x rowValue over its
     * sampled rows, bit for bit, whether a row came from the row
     * cache or the overflow arena.
     */
    float rowValue(std::int64_t table, std::int64_t row,
                   std::int64_t col) const;

  private:
    TbeTableSpec spec_;
    std::int64_t batch_;
    std::int64_t pooling_;
    bool weighted_;
    std::uint64_t table_seed_;
};

} // namespace mtia

#endif // MTIA_OPS_SPARSE_OPS_H_
