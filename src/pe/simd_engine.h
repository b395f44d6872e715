#ifndef MTIA_PE_SIMD_ENGINE_H_
#define MTIA_PE_SIMD_ENGINE_H_

/**
 * @file
 * SIMD Engine: the per-PE vector unit used for quantization and
 * nonlinear functions. Nonlinearities are approximated with lookup
 * tables plus linear interpolation, exactly as the hardware's LUT
 * block does; the LUT memory is small, which is why Section 4.3's
 * ragged-attention gather had to run piecewise through it.
 *
 * Functional results go through the real LUT approximation so that
 * A/B parity experiments see genuine approximation error.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace mtia {

/** Nonlinearities the SIMD engine accelerates. */
enum class Nonlinearity : std::uint8_t {
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
    Exp,
    Rsqrt,
    Silu,
};

/** Human-readable name. */
std::string nonlinearityName(Nonlinearity f);

/** Exact (libm) reference implementation. */
float nonlinearityExact(Nonlinearity f, float x);

/**
 * A piecewise-linear lookup table over a clamped input range,
 * modeling the SIMD engine's LUT block.
 */
class LookupTable
{
  public:
    /**
     * Build a LUT for @p fn over [lo, hi] with @p entries segments.
     * Inputs outside the range clamp to the endpoints' values.
     */
    LookupTable(std::function<float(float)> fn, float lo, float hi,
                unsigned entries);

    /** Evaluate via table lookup + linear interpolation; inputs
     *  outside [lo, hi] take the end entries and a NaN passes through. */
    float evaluate(float x) const;

    /** Table memory footprint in bytes (fp32 entries). */
    std::size_t sizeBytes() const { return table_.size() * 4; }

    float lo() const { return lo_; }
    float hi() const { return hi_; }

  private:
    float lo_;
    float hi_;
    float step_;
    std::vector<float> table_;
};

/** Static SIMD-engine parameters (per PE). */
struct SimdConfig
{
    /** Elementwise ops per cycle for FP32/BF16 (MTIA 2i: uniform
     * throughput across dtypes; calibrated so 64 PEs at 1.35 GHz give
     * 5.5 TOPS). */
    unsigned lanes = 64;
    /** LUT capacity in entries; small, forcing piecewise loading for
     * large gather tables. */
    unsigned lut_entries = 1024;
};

/**
 * The per-PE vector unit. Its LUTs are a pure function of
 * lut_entries, so every engine with the same lut_entries shares one
 * immutable set from a process-wide PureMemo (core/pure_memo.h): the
 * first construction builds it, and later ones (the
 * Device::cloneConfigured() copies of a tuning loop, say) take a
 * reference, from any lane.
 */
class SimdEngine
{
  public:
    explicit SimdEngine(SimdConfig cfg = {});

    const SimdConfig &config() const { return cfg_; }

    /** Apply a nonlinearity elementwise via the LUT path. */
    Tensor apply(Nonlinearity f, const Tensor &x) const;

    /** Apply the exact function (used as the GPU/reference baseline). */
    static Tensor applyExact(Nonlinearity f, const Tensor &x);

    /** Single-element LUT-path evaluation, identical to apply()'s
     * per-element math (ReLU exact on the ALUs, LUT otherwise). Used
     * by the fused GEMM epilogues in ops/gemm_kernels. */
    float applyOne(Nonlinearity f, float x) const;

    /** Max LUT approximation error over [lo, hi] sampled densely. */
    double maxLutError(Nonlinearity f, float lo, float hi) const;

    /** Elementwise ops per second at clock @p ghz. */
    double opsPerSec(double ghz) const
    {
        return static_cast<double>(cfg_.lanes) * ghz * 1e9;
    }

  private:
    const LookupTable &tableFor(Nonlinearity f) const;

    SimdConfig cfg_;
    /** One LUT per Nonlinearity, indexed by its value. */
    std::shared_ptr<const std::vector<LookupTable>> tables_;
};

} // namespace mtia

#endif // MTIA_PE_SIMD_ENGINE_H_
