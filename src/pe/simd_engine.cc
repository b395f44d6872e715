#include "pe/simd_engine.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/pure_memo.h"

namespace mtia {

std::string
nonlinearityName(Nonlinearity f)
{
    switch (f) {
      case Nonlinearity::Relu: return "relu";
      case Nonlinearity::Sigmoid: return "sigmoid";
      case Nonlinearity::Tanh: return "tanh";
      case Nonlinearity::Gelu: return "gelu";
      case Nonlinearity::Exp: return "exp";
      case Nonlinearity::Rsqrt: return "rsqrt";
      case Nonlinearity::Silu: return "silu";
    }
    return "?";
}

float
nonlinearityExact(Nonlinearity f, float x)
{
    switch (f) {
      case Nonlinearity::Relu:
        return x > 0.0f ? x : 0.0f;
      case Nonlinearity::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case Nonlinearity::Tanh:
        return std::tanh(x);
      case Nonlinearity::Gelu:
        return 0.5f * x *
            (1.0f + std::erf(x / std::sqrt(2.0f)));
      case Nonlinearity::Exp:
        return std::exp(x);
      case Nonlinearity::Rsqrt:
        return 1.0f / std::sqrt(x);
      case Nonlinearity::Silu:
        return x / (1.0f + std::exp(-x));
    }
    MTIA_UNREACHABLE("nonlinearityExact: unknown function");
}

LookupTable::LookupTable(std::function<float(float)> fn, float lo,
                         float hi, unsigned entries)
    : lo_(lo), hi_(hi)
{
    MTIA_CHECK_GE(entries, 2u)
        << ": LookupTable needs at least two entries";
    MTIA_CHECK_LT(lo, hi) << ": LookupTable range is empty";
    step_ = (hi_ - lo_) / static_cast<float>(entries - 1);
    table_.resize(entries);
    for (unsigned i = 0; i < entries; ++i)
        table_[i] = fn(lo_ + step_ * static_cast<float>(i));
}

float
LookupTable::evaluate(float x) const
{
    if (std::isnan(x))
        return x; // no table position to read: NaN out, as the exact path
    if (x <= lo_)
        return table_.front();
    if (x >= hi_)
        return table_.back();
    const float pos = (x - lo_) / step_;
    const auto idx = static_cast<std::size_t>(pos);
    const float frac = pos - static_cast<float>(idx);
    return table_[idx] + frac * (table_[idx + 1] - table_[idx]);
}

namespace {

using LutSet = std::vector<LookupTable>;

std::shared_ptr<const LutSet>
buildLuts(unsigned entries)
{
    // One LUT per nonlinearity over a range wide enough that the
    // clamped tails carry negligible mass.
    auto luts = std::make_shared<LutSet>();
    auto build = [&](Nonlinearity f, float lo, float hi) {
        luts->emplace_back(
            [f](float x) { return nonlinearityExact(f, x); }, lo, hi,
            entries);
    };
    build(Nonlinearity::Relu, -8.0f, 8.0f);
    build(Nonlinearity::Sigmoid, -12.0f, 12.0f);
    build(Nonlinearity::Tanh, -6.0f, 6.0f);
    build(Nonlinearity::Gelu, -8.0f, 8.0f);
    build(Nonlinearity::Exp, -20.0f, 10.0f);
    build(Nonlinearity::Rsqrt, 1e-4f, 16.0f);
    build(Nonlinearity::Silu, -12.0f, 12.0f);
    return luts;
}

/** The process-wide LUT set for @p entries, built on first use. */
std::shared_ptr<const LutSet>
sharedLuts(unsigned entries)
{
    static PureMemo<unsigned, std::shared_ptr<const LutSet>> cache;
    return cache.get(entries, [&] { return buildLuts(entries); });
}

} // namespace

SimdEngine::SimdEngine(SimdConfig cfg)
    : cfg_(cfg), tables_(sharedLuts(cfg_.lut_entries))
{
}

const LookupTable &
SimdEngine::tableFor(Nonlinearity f) const
{
    return (*tables_)[static_cast<std::size_t>(f)];
}

Tensor
SimdEngine::apply(Nonlinearity f, const Tensor &x) const
{
    Tensor out(x.shape(), x.dtype());
    const std::int64_t n = x.numel();
    if (f == Nonlinearity::Relu) {
        // ReLU runs on the ALUs, not the LUT: it is exact.
        for (std::int64_t i = 0; i < n; ++i)
            out.set(i, std::max(0.0f, x.at(i)));
        return out;
    }
    if (f == Nonlinearity::Exp) {
        // exp is evaluated on a log-domain LUT for range: the table
        // stores exp over the range and extreme inputs clamp, which
        // the softmax kernel tolerates because inputs are max-shifted.
        const LookupTable &lut = tableFor(f);
        for (std::int64_t i = 0; i < n; ++i)
            out.set(i, lut.evaluate(x.at(i)));
        return out;
    }
    const LookupTable &lut = tableFor(f);
    for (std::int64_t i = 0; i < n; ++i)
        out.set(i, lut.evaluate(x.at(i)));
    return out;
}

float
SimdEngine::applyOne(Nonlinearity f, float x) const
{
    // Must mirror apply() exactly, element for element.
    if (f == Nonlinearity::Relu)
        return std::max(0.0f, x);
    return tableFor(f).evaluate(x);
}

Tensor
SimdEngine::applyExact(Nonlinearity f, const Tensor &x)
{
    Tensor out(x.shape(), x.dtype());
    const std::int64_t n = x.numel();
    for (std::int64_t i = 0; i < n; ++i)
        out.set(i, nonlinearityExact(f, x.at(i)));
    return out;
}

double
SimdEngine::maxLutError(Nonlinearity f, float lo, float hi) const
{
    double max_err = 0.0;
    const int samples = 100000;
    for (int i = 0; i <= samples; ++i) {
        const float x = lo + (hi - lo) * static_cast<float>(i) /
            static_cast<float>(samples);
        const float approx = f == Nonlinearity::Relu
            ? std::max(0.0f, x)
            : tableFor(f).evaluate(x);
        const float exact = nonlinearityExact(f, x);
        max_err = std::max(max_err,
                           std::abs(static_cast<double>(approx) -
                                    static_cast<double>(exact)));
    }
    return max_err;
}

} // namespace mtia
