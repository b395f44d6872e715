#include "tensor/dtype.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"

namespace mtia {

std::size_t
dtypeSize(DType t)
{
    switch (t) {
      case DType::FP32: return 4;
      case DType::FP16: return 2;
      case DType::BF16: return 2;
      case DType::INT8: return 1;
      case DType::INT32: return 4;
    }
    MTIA_UNREACHABLE("dtypeSize: unknown dtype");
}

std::string
dtypeName(DType t)
{
    switch (t) {
      case DType::FP32: return "fp32";
      case DType::FP16: return "fp16";
      case DType::BF16: return "bf16";
      case DType::INT8: return "int8";
      case DType::INT32: return "int32";
    }
    return "?";
}

std::uint16_t
fp32ToFp16Bits(float f)
{
    const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    const std::uint32_t sign = (x >> 16) & 0x8000u;
    const std::uint32_t exp32 = (x >> 23) & 0xffu;
    std::uint32_t mant = x & 0x7fffffu;

    if (exp32 == 0xffu) {
        // Inf / NaN: preserve NaN-ness with a quiet payload bit.
        const std::uint32_t nan = mant != 0 ? 0x0200u | (mant >> 13) : 0;
        return static_cast<std::uint16_t>(sign | 0x7c00u | nan);
    }

    const int unbiased = static_cast<int>(exp32) - 127;
    int exp16 = unbiased + 15;

    if (exp16 >= 0x1f) {
        // Overflow -> infinity.
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    if (exp16 <= 0) {
        // Denormal (or zero) in fp16.
        if (exp16 < -10)
            return static_cast<std::uint16_t>(sign); // rounds to zero
        mant |= 0x800000u; // restore implicit leading 1
        const int shift = 14 - exp16; // 14..24
        std::uint32_t half = mant >> shift;
        const std::uint32_t rem = mant & ((1u << shift) - 1);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half & 1)))
            ++half; // may carry into the exponent field; that is correct
        return static_cast<std::uint16_t>(sign | half);
    }

    // Normal number: round 23-bit mantissa to 10 bits, nearest-even.
    std::uint32_t half = mant >> 13;
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1)))
        ++half;
    std::uint32_t result = sign |
        (static_cast<std::uint32_t>(exp16) << 10) | (half & 0x3ffu);
    if (half == 0x400u)
        result = sign | (static_cast<std::uint32_t>(exp16 + 1) << 10);
    return static_cast<std::uint16_t>(result);
}

float
fp16BitsToFp32(std::uint16_t h)
{
    const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u)
        << 16;
    const std::uint32_t exp16 = (h >> 10) & 0x1fu;
    const std::uint32_t mant = h & 0x3ffu;

    if (exp16 == 0x1fu) {
        // Inf / NaN.
        const std::uint32_t bits = sign | 0x7f800000u | (mant << 13);
        return std::bit_cast<float>(bits);
    }
    if (exp16 == 0) {
        if (mant == 0)
            return std::bit_cast<float>(sign); // +-0
        // Denormal: normalize.
        int e = -1;
        std::uint32_t m = mant;
        do {
            ++e;
            m <<= 1;
        } while ((m & 0x400u) == 0);
        const std::uint32_t exp32 =
            static_cast<std::uint32_t>(127 - 15 - e);
        const std::uint32_t bits =
            sign | (exp32 << 23) | ((m & 0x3ffu) << 13);
        return std::bit_cast<float>(bits);
    }
    const std::uint32_t exp32 = exp16 + 127 - 15;
    const std::uint32_t bits = sign | (exp32 << 23) | (mant << 13);
    return std::bit_cast<float>(bits);
}

std::uint16_t
fp32ToBf16Bits(float f)
{
    std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    if (std::isnan(f)) {
        // Quiet NaN, preserve sign.
        return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
    }
    // Round to nearest even on the truncated 16 bits.
    const std::uint32_t rounding = 0x7fffu + ((x >> 16) & 1u);
    x += rounding;
    return static_cast<std::uint16_t>(x >> 16);
}

float
bf16BitsToFp32(std::uint16_t b)
{
    const std::uint32_t bits = static_cast<std::uint32_t>(b) << 16;
    return std::bit_cast<float>(bits);
}

float
roundTrip(float f, DType t)
{
    switch (t) {
      case DType::FP32:
        return f;
      case DType::FP16:
        return fp16BitsToFp32(fp32ToFp16Bits(f));
      case DType::BF16:
        return bf16BitsToFp32(fp32ToBf16Bits(f));
      case DType::INT8:
        return std::clamp(std::nearbyint(f), -128.0f, 127.0f);
      case DType::INT32:
        return std::nearbyint(f);
    }
    MTIA_UNREACHABLE("roundTrip: unknown dtype");
}

// ------------------------------------------------------ batch kernels

#if defined(MTIA_SIMD_VEC128)

namespace {

using simd::VecF32;
using simd::VecI32;

/**
 * Branch-free fp32 -> fp16 for four lanes of fp32 bit patterns.
 * Bit-identical to fp32ToFp16Bits (proof sketch per case):
 *
 *  - NaN (absx > 0x7f800000): 0x7e00 | (mant >> 13) equals
 *    0x7c00 | 0x0200 | (mant >> 13) — payload preserved, quiet bit
 *    set, exactly the scalar path.
 *  - Inf / overflow (absx >= 0x47800000, i.e. > 65504 + last-ulp
 *    rounding range): 0x7c00. The scalar path reaches infinity either
 *    through exp16 >= 0x1f or rounding carry; inputs in
 *    [0x477ff000, 0x47800000) carry to 0x7c00 inside the normal-path
 *    integer add below, so the explicit overflow select only needs to
 *    start at 0x47800000.
 *  - Subnormal (absx < 0x38800000 = 2^-14): the denormal-magic float
 *    add. absx reinterpreted as a float lies in [0, 2^-14); adding
 *    0.5f aligns its mantissa to the fp16-denormal grid with a single
 *    IEEE RTNE rounding (ulp(0.5) = 2^-24 = one fp16-denormal step),
 *    and subtracting the bits of 0.5 leaves exactly the 11 result
 *    bits. Covers ±0, the 2^-25 tie-to-zero, and the exp16 < -10
 *    flush that the scalar path special-cases.
 *  - Normal: absx + ((15-127) << 23) + 0xfff + lsb(absx >> 13), then
 *    >> 13: the +0xfff+lsb add is RTNE on the low 13 bits (carry
 *    propagates into the exponent field exactly like the scalar
 *    half == 0x400 fixup).
 */
inline VecI32
fp16FromFp32Vec(VecI32 x)
{
    const VecI32 sign = x & VecI32::broadcastBits(0x80000000u);
    const VecI32 absx = x & VecI32::broadcastBits(0x7fffffffu);

    const VecI32 is_nan =
        simd::cmpGt(absx, VecI32::broadcastBits(0x7f800000u));
    const VecI32 nan16 = VecI32::broadcastBits(0x7e00u) |
        simd::shiftRightLogical<13>(x & VecI32::broadcastBits(0x7fffffu));

    const VecI32 is_ovf =
        simd::cmpGt(absx, VecI32::broadcastBits(0x477fffffu));
    const VecI32 is_sub =
        simd::cmpGt(VecI32::broadcastBits(0x38800000u), absx);

    const VecI32 odd =
        simd::shiftRightLogical<13>(absx) & VecI32::broadcastBits(1u);
    const VecI32 norm = simd::shiftRightLogical<13>(
        absx + VecI32::broadcastBits(0xc8000fffu) + odd);

    const VecF32 magic = simd::bitcastToF32(
        VecI32::broadcastBits(0x3f000000u)); // 0.5f
    const VecI32 sub =
        simd::bitcastToI32(simd::bitcastToF32(absx) + magic) -
        VecI32::broadcastBits(0x3f000000u);

    VecI32 r = simd::select(is_sub, sub, norm);
    r = simd::select(is_ovf, VecI32::broadcastBits(0x7c00u), r);
    r = simd::select(is_nan, nan16, r);
    return r | simd::shiftRightLogical<16>(sign);
}

/**
 * Branch-free fp16 -> fp32 for four lanes of zero-extended fp16 bit
 * patterns. Shift the exponent+mantissa into fp32 position and
 * rebias; Inf/NaN lanes get the rest of the exponent rebias (payload
 * and quietness preserved, matching the scalar mant << 13); zero and
 * denormal lanes are fixed up with one exact float subtract of 2^-14
 * (the magic re-normalizes 0..2^10-1 denormal mantissas with no
 * rounding, reproducing the scalar normalization loop).
 */
inline VecI32
fp32FromFp16Vec(VecI32 h)
{
    const VecI32 sign =
        simd::shiftLeft<16>(h & VecI32::broadcastBits(0x8000u));
    const VecI32 em =
        simd::shiftLeft<13>(h & VecI32::broadcastBits(0x7fffu));
    const VecI32 exp = em & VecI32::broadcastBits(0x0f800000u);

    const VecI32 rebias = VecI32::broadcastBits(
        static_cast<std::uint32_t>(127 - 15) << 23);
    const VecI32 o = em + rebias;

    const VecI32 is_infnan =
        simd::cmpEq(exp, VecI32::broadcastBits(0x0f800000u));
    const VecI32 o_infnan = o + rebias;

    const VecI32 is_subz = simd::cmpEq(exp, VecI32::broadcastBits(0u));
    const VecF32 magic = simd::bitcastToF32(
        VecI32::broadcastBits(0x38800000u)); // 2^-14
    const VecI32 o_sub = simd::bitcastToI32(
        simd::bitcastToF32(o + VecI32::broadcastBits(1u << 23)) - magic);

    VecI32 r = simd::select(is_infnan, o_infnan, o);
    r = simd::select(is_subz, o_sub, r);
    return r | sign;
}

/**
 * Branch-free fp32 -> bf16: RTNE on the truncated 16 bits via the
 * same +0x7fff+lsb integer add as the scalar path; NaN lanes get the
 * scalar's truncate-and-quiet treatment instead.
 */
inline VecI32
bf16FromFp32Vec(VecI32 x)
{
    const VecI32 absx = x & VecI32::broadcastBits(0x7fffffffu);
    const VecI32 is_nan =
        simd::cmpGt(absx, VecI32::broadcastBits(0x7f800000u));
    const VecI32 nan16 =
        simd::shiftRightLogical<16>(x) | VecI32::broadcastBits(0x0040u);
    const VecI32 odd =
        simd::shiftRightLogical<16>(x) & VecI32::broadcastBits(1u);
    const VecI32 rne = simd::shiftRightLogical<16>(
        x + VecI32::broadcastBits(0x7fffu) + odd);
    return simd::select(is_nan, nan16, rne);
}

template <VecI32 (&Kernel)(VecI32), std::uint16_t (&Ref)(float)>
void
narrowBuffer(const float *src, std::uint16_t *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 * simd::kLanes <= n; i += 2 * simd::kLanes) {
        const VecI32 a =
            Kernel(simd::bitcastToI32(VecF32::load(src + i)));
        const VecI32 b = Kernel(
            simd::bitcastToI32(VecF32::load(src + i + simd::kLanes)));
        simd::storeLow16(a, b, dst + i);
    }
    for (; i < n; ++i)
        dst[i] = Ref(src[i]);
}

template <float (&Ref)(std::uint16_t)>
void
widenBuffer(const std::uint16_t *src, float *dst, std::size_t n,
            bool bf16)
{
    std::size_t i = 0;
    if (bf16) {
        for (; i + simd::kLanes <= n; i += simd::kLanes) {
            const VecI32 h = simd::loadU16AsI32(src + i);
            simd::bitcastToF32(simd::shiftLeft<16>(h)).store(dst + i);
        }
    } else {
        for (; i + simd::kLanes <= n; i += simd::kLanes) {
            const VecI32 h = simd::loadU16AsI32(src + i);
            simd::bitcastToF32(fp32FromFp16Vec(h)).store(dst + i);
        }
    }
    for (; i < n; ++i)
        dst[i] = Ref(src[i]);
}

} // namespace

#endif // MTIA_SIMD_VEC128

void
convertBuffer(const float *src, std::uint16_t *dst, std::size_t n,
              DType to)
{
    const simd::SimdIsa isa = simd::activeIsa();
    if (to == DType::FP16 && simd::f16cNarrow(isa, src, dst, n)) {
        numerics::noteBytesConverted(n * sizeof(float));
        return;
    }
#if defined(MTIA_SIMD_VEC128)
    if (isa != simd::SimdIsa::Scalar) {
        MTIA_DCHECK(to == DType::FP16 || to == DType::BF16)
            << ": convertBuffer target must be a 16-bit float dtype";
        if (to == DType::FP16)
            narrowBuffer<fp16FromFp32Vec, fp32ToFp16Bits>(src, dst, n);
        else
            narrowBuffer<bf16FromFp32Vec, fp32ToBf16Bits>(src, dst, n);
        numerics::noteBytesConverted(n * sizeof(float));
        return;
    }
#endif
    scalar::convertBuffer(src, dst, n, to);
}

void
convertBuffer(const std::uint16_t *src, float *dst, std::size_t n,
              DType from)
{
    const simd::SimdIsa isa = simd::activeIsa();
    if (from == DType::FP16 && simd::f16cWiden(isa, src, dst, n)) {
        numerics::noteBytesConverted(n * sizeof(std::uint16_t));
        return;
    }
#if defined(MTIA_SIMD_VEC128)
    if (isa != simd::SimdIsa::Scalar) {
        MTIA_DCHECK(from == DType::FP16 || from == DType::BF16)
            << ": convertBuffer source must be a 16-bit float dtype";
        if (from == DType::FP16)
            widenBuffer<fp16BitsToFp32>(src, dst, n, false);
        else
            widenBuffer<bf16BitsToFp32>(src, dst, n, true);
        numerics::noteBytesConverted(n * sizeof(std::uint16_t));
        return;
    }
#endif
    scalar::convertBuffer(src, dst, n, from);
}

namespace scalar {

void
convertBuffer(const float *src, std::uint16_t *dst, std::size_t n,
              DType to)
{
    MTIA_DCHECK(to == DType::FP16 || to == DType::BF16)
        << ": convertBuffer target must be a 16-bit float dtype";
    if (to == DType::FP16) {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = fp32ToFp16Bits(src[i]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = fp32ToBf16Bits(src[i]);
    }
    numerics::noteBytesConverted(n * sizeof(float));
}

void
convertBuffer(const std::uint16_t *src, float *dst, std::size_t n,
              DType from)
{
    MTIA_DCHECK(from == DType::FP16 || from == DType::BF16)
        << ": convertBuffer source must be a 16-bit float dtype";
    if (from == DType::FP16) {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = fp16BitsToFp32(src[i]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = bf16BitsToFp32(src[i]);
    }
    numerics::noteBytesConverted(n * sizeof(std::uint16_t));
}

} // namespace scalar

} // namespace mtia
