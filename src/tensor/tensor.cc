#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/check.h"

namespace mtia {

std::int64_t
Shape::numel() const
{
    std::int64_t n = 1;
    for (std::int64_t d : dims_)
        n *= d;
    return n;
}

std::string
Shape::toString() const
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < dims_.size(); ++i)
        os << (i ? "x" : "") << dims_[i];
    os << "]";
    return os.str();
}

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype)
{
    const std::int64_t n = shape_.numel();
    MTIA_CHECK_GE(n, 0) << ": Tensor shape " << shape_.toString()
                        << " has a negative element count";
    data_.assign(static_cast<std::size_t>(n) * dtypeSize(dtype_), 0);
}

float
Tensor::at(std::int64_t i) const
{
    MTIA_DCHECK_GE(i, 0) << ": Tensor::at negative index";
    MTIA_DCHECK_LT(i, numel()) << ": Tensor::at index out of bounds";
    const std::size_t off = static_cast<std::size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::FP32: {
        float v;
        std::memcpy(&v, data_.data() + off, 4);
        return v;
      }
      case DType::FP16: {
        std::uint16_t b;
        std::memcpy(&b, data_.data() + off, 2);
        return fp16BitsToFp32(b);
      }
      case DType::BF16: {
        std::uint16_t b;
        std::memcpy(&b, data_.data() + off, 2);
        return bf16BitsToFp32(b);
      }
      case DType::INT8:
        return static_cast<float>(
            static_cast<std::int8_t>(data_[off]));
      case DType::INT32: {
        std::int32_t v;
        std::memcpy(&v, data_.data() + off, 4);
        return static_cast<float>(v);
      }
    }
    MTIA_UNREACHABLE("Tensor::at: unknown dtype");
}

void
Tensor::set(std::int64_t i, float v)
{
    MTIA_DCHECK_GE(i, 0) << ": Tensor::set negative index";
    MTIA_DCHECK_LT(i, numel()) << ": Tensor::set index out of bounds";
    const std::size_t off = static_cast<std::size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::FP32:
        std::memcpy(data_.data() + off, &v, 4);
        return;
      case DType::FP16: {
        const std::uint16_t b = fp32ToFp16Bits(v);
        std::memcpy(data_.data() + off, &b, 2);
        return;
      }
      case DType::BF16: {
        const std::uint16_t b = fp32ToBf16Bits(v);
        std::memcpy(data_.data() + off, &b, 2);
        return;
      }
      case DType::INT8: {
        const float c = std::clamp(std::nearbyint(v), -128.0f, 127.0f);
        data_[off] = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(c));
        return;
      }
      case DType::INT32: {
        const auto iv = static_cast<std::int32_t>(std::nearbyint(v));
        std::memcpy(data_.data() + off, &iv, 4);
        return;
      }
    }
    MTIA_UNREACHABLE("Tensor::set: unknown dtype");
}

float
Tensor::at2(std::int64_t row, std::int64_t col) const
{
    MTIA_DCHECK_EQ(shape_.rank(), 2u) << ": Tensor::at2 needs rank 2";
    return at(row * shape_.dim(1) + col);
}

void
Tensor::set2(std::int64_t row, std::int64_t col, float v)
{
    MTIA_DCHECK_EQ(shape_.rank(), 2u) << ": Tensor::set2 needs rank 2";
    set(row * shape_.dim(1) + col, v);
}

float *
Tensor::f32Data()
{
    MTIA_CHECK(dtype_ == DType::FP32)
        << ": Tensor::f32Data on a " << dtypeName(dtype_) << " tensor";
    return reinterpret_cast<float *>(data_.data());
}

const float *
Tensor::f32Data() const
{
    MTIA_CHECK(dtype_ == DType::FP32)
        << ": Tensor::f32Data on a " << dtypeName(dtype_) << " tensor";
    return reinterpret_cast<const float *>(data_.data());
}

void
Tensor::flipBit(std::uint64_t bit_index)
{
    const std::uint64_t byte = bit_index / 8;
    MTIA_CHECK_LT(byte, data_.size())
        << ": Tensor::flipBit bit " << bit_index << " out of range";
    data_[byte] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

void
Tensor::fillGaussian(Rng &rng, float mean, float stddev)
{
    const std::int64_t n = numel();
    for (std::int64_t i = 0; i < n; ++i)
        set(i, static_cast<float>(rng.gaussian(mean, stddev)));
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    const std::int64_t n = numel();
    for (std::int64_t i = 0; i < n; ++i)
        set(i, static_cast<float>(rng.uniform(lo, hi)));
}

void
Tensor::fill(float v)
{
    const std::int64_t n = numel();
    for (std::int64_t i = 0; i < n; ++i)
        set(i, v);
}

namespace {

inline bool
isHalfDtype(DType t)
{
    return t == DType::FP16 || t == DType::BF16;
}

} // namespace

Tensor
Tensor::cast(DType to) const
{
    Tensor out(shape_, to);
    const std::int64_t n = numel();
    // fp32 <-> fp16/bf16 casts go through the batch kernels; they are
    // bit-identical to the per-element at()/set() conversions.
    if (dtype_ == DType::FP32 && isHalfDtype(to)) {
        convertBuffer(reinterpret_cast<const float *>(data_.data()),
                      reinterpret_cast<std::uint16_t *>(out.data_.data()),
                      static_cast<std::size_t>(n), to);
        return out;
    }
    if (isHalfDtype(dtype_) && to == DType::FP32) {
        convertBuffer(
            reinterpret_cast<const std::uint16_t *>(data_.data()),
            reinterpret_cast<float *>(out.data_.data()),
            static_cast<std::size_t>(n), dtype_);
        return out;
    }
    for (std::int64_t i = 0; i < n; ++i)
        out.set(i, at(i));
    return out;
}

std::vector<float>
Tensor::toFloats() const
{
    const std::int64_t n = numel();
    std::vector<float> out(static_cast<std::size_t>(n));
    if (dtype_ == DType::FP32) {
        if (!out.empty())
            std::memcpy(out.data(), data_.data(),
                        out.size() * sizeof(float));
        return out;
    }
    if (isHalfDtype(dtype_)) {
        convertBuffer(
            reinterpret_cast<const std::uint16_t *>(data_.data()),
            out.data(), out.size(), dtype_);
        return out;
    }
    for (std::int64_t i = 0; i < n; ++i)
        out[static_cast<std::size_t>(i)] = at(i);
    return out;
}

Tensor
Tensor::fromFloats(const std::vector<float> &vals, Shape shape, DType dtype)
{
    MTIA_CHECK_EQ(static_cast<std::int64_t>(vals.size()), shape.numel())
        << ": Tensor::fromFloats value count must match shape "
        << shape.toString();
    Tensor t(std::move(shape), dtype);
    if (dtype == DType::FP32) {
        if (!vals.empty())
            std::memcpy(t.data_.data(), vals.data(),
                        vals.size() * sizeof(float));
        return t;
    }
    if (isHalfDtype(dtype)) {
        convertBuffer(vals.data(),
                      reinterpret_cast<std::uint16_t *>(t.data_.data()),
                      vals.size(), dtype);
        return t;
    }
    for (std::size_t i = 0; i < vals.size(); ++i)
        t.set(static_cast<std::int64_t>(i), vals[i]);
    return t;
}

bool
Tensor::hasNonFinite() const
{
    const std::int64_t n = numel();
    for (std::int64_t i = 0; i < n; ++i) {
        if (!std::isfinite(at(i)))
            return true;
    }
    return false;
}

double
Tensor::maxAbsDiff(const Tensor &a, const Tensor &b)
{
    MTIA_CHECK(a.shape() == b.shape())
        << ": maxAbsDiff shape mismatch " << a.shape().toString()
        << " vs " << b.shape().toString();
    double m = 0.0;
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        m = std::max(m, std::abs(static_cast<double>(a.at(i)) -
                                 static_cast<double>(b.at(i))));
    return m;
}

double
Tensor::rmse(const Tensor &a, const Tensor &b)
{
    MTIA_CHECK(a.shape() == b.shape())
        << ": rmse shape mismatch " << a.shape().toString() << " vs "
        << b.shape().toString();
    const std::int64_t n = a.numel();
    if (n == 0)
        return 0.0;
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a.at(i)) -
            static_cast<double>(b.at(i));
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(n));
}

FloatView::FloatView(const Tensor &t)
{
    if (t.dtype() == DType::FP32) {
        data_ = t.f32Data();
    } else {
        converted_ = t.toFloats();
        data_ = converted_.data();
    }
}

} // namespace mtia
