#ifndef MTIA_CORE_SIMD_H_
#define MTIA_CORE_SIMD_H_

/**
 * @file
 * Portable 128-bit SIMD abstraction for the vectorized numerics
 * kernel layer: four-lane float / int32 vectors over SSE2 (x86-64
 * baseline, no -m flags) or NEON (AArch64) intrinsics, a software
 * prefetch, and the runtime SimdIsa tier.
 *
 * The vector types exist only where MTIA_SIMD_VEC128 is defined, and
 * code using them compiles only under that guard. Which path runs is
 * decided at runtime: on SimdIsa::Scalar (e.g. MTIA_SIMD_ISA=scalar,
 * or any target without SSE2/NEON) kernels run their element-at-a-time
 * reference, on every other tier their 128-bit path.
 *
 * Contract: every kernel written on top of this layer must produce
 * bit-identical results to its scalar reference. The integer ops are
 * exact by construction; the float ops (+, -, *) are IEEE-754
 * single-precision with round-to-nearest-even on every backend, so
 * lane-for-lane they match the equivalent scalar expression. Lane
 * reductions (e.g. a running max) reorder only min/max, which are
 * exact for non-NaN inputs. Kernels must not rely on NaN propagation
 * through vmin/vmax — SSE2 and NEON disagree there.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MTIA_SIMD_SSE2 1
#define MTIA_SIMD_VEC128 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define MTIA_SIMD_NEON 1
#define MTIA_SIMD_VEC128 1
#include <arm_neon.h>
#endif

namespace mtia::simd {

/** Lanes per 128-bit vector. */
inline constexpr std::size_t kLanes = 4;

/** Alignment of kernel scratch storage (one cache line). */
inline constexpr std::size_t kAlignment = 64;

#if defined(MTIA_SIMD_VEC128)

/** Hint the cache that @p p will be read soon. */
inline void
prefetch(const void *p)
{
#if defined(MTIA_SIMD_SSE2)
    _mm_prefetch(static_cast<const char *>(p), _MM_HINT_T0);
#elif defined(MTIA_SIMD_NEON)
    __builtin_prefetch(p, 0, 3);
#endif
}

struct VecF32;

/** Four-lane 32-bit integer vector (also the mask type: a comparison
 * yields all-ones / all-zeros lanes). */
struct VecI32
{
#if defined(MTIA_SIMD_SSE2)
    __m128i v;
#elif defined(MTIA_SIMD_NEON)
    int32x4_t v;
#endif

    static VecI32
    broadcast(std::int32_t x)
    {
#if defined(MTIA_SIMD_SSE2)
        return {_mm_set1_epi32(x)};
#elif defined(MTIA_SIMD_NEON)
        return {vdupq_n_s32(x)};
#endif
    }

    /** Broadcast a bit pattern given as unsigned (avoids UB-ish casts
     * at call sites full of 0x8000'0000-style constants). */
    static VecI32
    broadcastBits(std::uint32_t x)
    {
        return broadcast(static_cast<std::int32_t>(x));
    }

    static VecI32
    load(const std::int32_t *p)
    {
#if defined(MTIA_SIMD_SSE2)
        return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p))};
#elif defined(MTIA_SIMD_NEON)
        return {vld1q_s32(p)};
#endif
    }

    void
    store(std::int32_t *p) const
    {
#if defined(MTIA_SIMD_SSE2)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
#elif defined(MTIA_SIMD_NEON)
        vst1q_s32(p, v);
#endif
    }
};

/** Four-lane single-precision float vector. */
struct VecF32
{
#if defined(MTIA_SIMD_SSE2)
    __m128 v;
#elif defined(MTIA_SIMD_NEON)
    float32x4_t v;
#endif

    static VecF32
    broadcast(float x)
    {
#if defined(MTIA_SIMD_SSE2)
        return {_mm_set1_ps(x)};
#elif defined(MTIA_SIMD_NEON)
        return {vdupq_n_f32(x)};
#endif
    }

    static VecF32
    load(const float *p)
    {
#if defined(MTIA_SIMD_SSE2)
        return {_mm_loadu_ps(p)};
#elif defined(MTIA_SIMD_NEON)
        return {vld1q_f32(p)};
#endif
    }

    void
    store(float *p) const
    {
#if defined(MTIA_SIMD_SSE2)
        _mm_storeu_ps(p, v);
#elif defined(MTIA_SIMD_NEON)
        vst1q_f32(p, v);
#endif
    }
};

// ------------------------------------------------------- integer ops

inline VecI32
operator+(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_add_epi32(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vaddq_s32(a.v, b.v)};
#endif
}

inline VecI32
operator-(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_sub_epi32(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vsubq_s32(a.v, b.v)};
#endif
}

/** Lane-wise low-32-bit product (exact for int8×int8 accumulation). */
inline VecI32
mulLo(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    // SSE2 has no 32-bit lane multiply; _mm_mul_epu32 gives the full
    // 64-bit product of the even lanes, whose low words equal the
    // signed low-32 product. Do even and odd lanes, then re-interleave.
    const __m128i even = _mm_mul_epu32(a.v, b.v);
    const __m128i odd = _mm_mul_epu32(_mm_srli_si128(a.v, 4),
                                      _mm_srli_si128(b.v, 4));
    const __m128i even_lo =
        _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0));
    const __m128i odd_lo = _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0));
    return {_mm_unpacklo_epi32(even_lo, odd_lo)};
#elif defined(MTIA_SIMD_NEON)
    return {vmulq_s32(a.v, b.v)};
#endif
}

inline VecI32
operator&(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_and_si128(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vandq_s32(a.v, b.v)};
#endif
}

inline VecI32
operator|(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_or_si128(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vorrq_s32(a.v, b.v)};
#endif
}

inline VecI32
operator^(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_xor_si128(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {veorq_s32(a.v, b.v)};
#endif
}

/** b & ~a (operand order matches _mm_andnot). */
inline VecI32
andnot(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_andnot_si128(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vbicq_s32(b.v, a.v)};
#endif
}

template <int N>
inline VecI32
shiftLeft(VecI32 a)
{
    static_assert(N >= 0 && N < 32);
#if defined(MTIA_SIMD_SSE2)
    return {_mm_slli_epi32(a.v, N)};
#elif defined(MTIA_SIMD_NEON)
    return {vshlq_n_s32(a.v, N)};
#endif
}

/** Logical (zero-filling) right shift. */
template <int N>
inline VecI32
shiftRightLogical(VecI32 a)
{
    static_assert(N >= 0 && N < 32);
#if defined(MTIA_SIMD_SSE2)
    return {_mm_srli_epi32(a.v, N)};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_s32_u32(
        vshrq_n_u32(vreinterpretq_u32_s32(a.v), N))};
#endif
}

/** Signed (>) lane compare: all-ones lane where a > b. */
inline VecI32
cmpGt(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_cmpgt_epi32(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_s32_u32(vcgtq_s32(a.v, b.v))};
#endif
}

inline VecI32
cmpEq(VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_cmpeq_epi32(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_s32_u32(vceqq_s32(a.v, b.v))};
#endif
}

/** Per-lane select: mask lane all-ones -> a, zeros -> b. */
inline VecI32
select(VecI32 mask, VecI32 a, VecI32 b)
{
#if defined(MTIA_SIMD_NEON)
    return {vbslq_s32(vreinterpretq_u32_s32(mask.v), a.v, b.v)};
#else
    return (a & mask) | andnot(mask, b);
#endif
}

// --------------------------------------------------------- float ops

inline VecF32
operator+(VecF32 a, VecF32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_add_ps(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vaddq_f32(a.v, b.v)};
#endif
}

inline VecF32
operator-(VecF32 a, VecF32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_sub_ps(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vsubq_f32(a.v, b.v)};
#endif
}

inline VecF32
operator*(VecF32 a, VecF32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_mul_ps(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vmulq_f32(a.v, b.v)};
#endif
}

/** Per-lane min; exact for non-NaN inputs (NaN lanes unspecified). */
inline VecF32
vmin(VecF32 a, VecF32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_min_ps(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vminq_f32(a.v, b.v)};
#endif
}

/** Per-lane max; exact for non-NaN inputs (NaN lanes unspecified). */
inline VecF32
vmax(VecF32 a, VecF32 b)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_max_ps(a.v, b.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vmaxq_f32(a.v, b.v)};
#endif
}

/** Per-lane `a > 0 ? a : +0`, which is std::max(0.0f, a) bit for bit
 *  on every input: NaN and -0 lanes give +0. */
inline VecF32
relu(VecF32 a)
{
#if defined(MTIA_SIMD_SSE2)
    // maxps returns its second operand unless the first is greater.
    return {_mm_max_ps(a.v, _mm_setzero_ps())};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_f32_u32(
        vandq_u32(vcgtq_f32(a.v, vdupq_n_f32(0.0f)),
                  vreinterpretq_u32_f32(a.v)))};
#endif
}

// ------------------------------------------------------- conversions

inline VecI32
bitcastToI32(VecF32 a)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_castps_si128(a.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_s32_f32(a.v)};
#endif
}

inline VecF32
bitcastToF32(VecI32 a)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_castsi128_ps(a.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_f32_s32(a.v)};
#endif
}

/**
 * Float -> int32 with round-to-nearest-even (the default FP rounding
 * mode, matching std::nearbyint). @pre every lane is finite and fits
 * an int32 after rounding.
 */
inline VecI32
toI32Rtne(VecF32 a)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_cvtps_epi32(a.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vcvtnq_s32_f32(a.v)};
#endif
}

/** Exact int32 -> float conversion (|lane| < 2^24 stays exact). */
inline VecF32
toF32(VecI32 a)
{
#if defined(MTIA_SIMD_SSE2)
    return {_mm_cvtepi32_ps(a.v)};
#elif defined(MTIA_SIMD_NEON)
    return {vcvtq_f32_s32(a.v)};
#endif
}

// ------------------------------------------------ narrow/widen stores

/** Zero-extend four uint16 values into int32 lanes. */
inline VecI32
loadU16AsI32(const std::uint16_t *p)
{
#if defined(MTIA_SIMD_SSE2)
    const __m128i v =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    return {_mm_unpacklo_epi16(v, _mm_setzero_si128())};
#elif defined(MTIA_SIMD_NEON)
    return {vreinterpretq_s32_u32(vmovl_u16(vld1_u16(p)))};
#endif
}

/** Sign-extend four int8 values into int32 lanes. */
inline VecI32
loadI8AsI32(const std::uint8_t *p)
{
    std::int32_t packed;
    std::memcpy(&packed, p, 4);
#if defined(MTIA_SIMD_SSE2)
    __m128i v = _mm_cvtsi32_si128(packed);
    v = _mm_unpacklo_epi8(v, v);
    v = _mm_unpacklo_epi16(v, v);
    return {_mm_srai_epi32(v, 24)};
#elif defined(MTIA_SIMD_NEON)
    const int8x8_t b = vreinterpret_s8_s32(vdup_n_s32(packed));
    return {vmovl_s16(vget_low_s16(vmovl_s8(b)))};
#endif
}

/** Store the low 16 bits of eight int32 lanes (a then b) as uint16. */
inline void
storeLow16(VecI32 a, VecI32 b, std::uint16_t *dst)
{
#if defined(MTIA_SIMD_SSE2)
    // SSE2 lacks an unsigned 32->16 pack; bias into the signed range,
    // pack with (exact, unsaturated) signed saturation, bias back.
    const __m128i bias32 = _mm_set1_epi32(0x8000);
    const __m128i bias16 = _mm_set1_epi16(static_cast<short>(0x8000));
    __m128i p = _mm_packs_epi32(_mm_sub_epi32(a.v, bias32),
                                _mm_sub_epi32(b.v, bias32));
    p = _mm_add_epi16(p, bias16);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), p);
#elif defined(MTIA_SIMD_NEON)
    const uint16x4_t lo = vmovn_u32(vreinterpretq_u32_s32(a.v));
    const uint16x4_t hi = vmovn_u32(vreinterpretq_u32_s32(b.v));
    vst1q_u16(dst, vcombine_u16(lo, hi));
#endif
}

/** Store sixteen int32 lanes as int8 with signed saturation
 * (clamp to [-128, 127]), a..d in order. */
inline void
storeI8Saturate(VecI32 a, VecI32 b, VecI32 c, VecI32 d, std::uint8_t *dst)
{
#if defined(MTIA_SIMD_SSE2)
    const __m128i s16lo = _mm_packs_epi32(a.v, b.v);
    const __m128i s16hi = _mm_packs_epi32(c.v, d.v);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                     _mm_packs_epi16(s16lo, s16hi));
#elif defined(MTIA_SIMD_NEON)
    const int16x8_t s16lo =
        vcombine_s16(vqmovn_s32(a.v), vqmovn_s32(b.v));
    const int16x8_t s16hi =
        vcombine_s16(vqmovn_s32(c.v), vqmovn_s32(d.v));
    const int8x16_t s8 =
        vcombine_s8(vqmovn_s16(s16lo), vqmovn_s16(s16hi));
    vst1q_s8(reinterpret_cast<std::int8_t *>(dst), s8);
#endif
}

#endif // MTIA_SIMD_VEC128

// ------------------------------------------------- runtime dispatch

/**
 * Vector ISA tiers the kernel layers dispatch among at runtime. The
 * GEMM has a micro-kernel per tier; the numerics kernels (dtype
 * conversion, INT8 quantization, TBE gather) run their scalar
 * reference on `Scalar` and the 128-bit VecF32/VecI32 path on every
 * other tier (SSE2 on x86 for Sse2/Avx2/Avx512, NEON on AArch64),
 * except FP16 conversion, which runs F16C on Avx2/Avx512.
 * `Scalar` is the bit-exact reference; every wider tier must produce
 * byte-identical results (same mul-then-add fp chains, vectorized only
 * across independent output columns or elements).
 */
enum class SimdIsa
{
    Scalar = 0,
    Sse2,
    Avx2,
    Avx512,
    Neon,
};

/** Stable lowercase name ("scalar", "sse2", ...) for logs and env. */
const char *isaName(SimdIsa isa);

/**
 * True when the running CPU supports `isa` AND the matching kernel TU
 * was compiled into this binary (Sse2/Neon need MTIA_SIMD_VEC128;
 * AVX2/AVX-512 TUs are built only when the compiler accepts
 * -mavx2 -mf16c / -mavx512f). Avx2 and Avx512 also need the CPU's
 * f16c bit, which their FP16 conversions use.
 */
bool isaSupported(SimdIsa isa);

/** Widest supported tier on this machine (cpuid-probed, cached). */
SimdIsa detectBestIsa();

/**
 * Tier the GEMM and numerics kernels should use right now. Resolution order:
 * innermost thread-local ScopedIsa override, else the cached
 * `MTIA_SIMD_ISA` env override (checked against isaSupported), else
 * detectBestIsa(). ThreadPool::run (core/parallel.h) resolves it on
 * the calling thread and runs every worker shard under that tier, so
 * pool workers inherit the caller's choice, a ScopedIsa included.
 */
SimdIsa activeIsa();

/**
 * FP16 narrowing / widening over F16C (vcvtps2ph with
 * round-to-nearest-even / vcvtph2ps), bit-identical to the scalar
 * fp32ToFp16Bits / fp16BitsToFp32 for every input. When @p isa is
 * Avx2 or Avx512 (tiers that require the f16c cpuid bit) these
 * convert all @p n elements and return true; on any other tier they
 * convert nothing and return false. Buffers must not overlap.
 */
bool f16cNarrow(SimdIsa isa, const float *src, std::uint16_t *dst,
                std::size_t n);
bool f16cWiden(SimdIsa isa, const std::uint16_t *src, float *dst,
               std::size_t n);

namespace detail
{
// The F16C kernels, defined in simd_f16c.cc (built only when CMake's
// compiler checks pass; f16cNarrow/f16cWiden reference them behind
// MTIA_GEMM_HAVE_AVX2).
void narrowFp16F16c(const float *src, std::uint16_t *dst, std::size_t n);
void widenFp16F16c(const std::uint16_t *src, float *dst, std::size_t n);
} // namespace detail

/**
 * RAII thread-local ISA override for tests and tuner sweeps; nests,
 * innermost wins (mirrors core/parallel.h ScopedParallelism). The
 * forced tier must satisfy isaSupported().
 */
class ScopedIsa
{
  public:
    explicit ScopedIsa(SimdIsa isa);
    ~ScopedIsa();
    ScopedIsa(const ScopedIsa &) = delete;
    ScopedIsa &operator=(const ScopedIsa &) = delete;

  private:
    SimdIsa prev_isa_;
    bool prev_active_;
};

} // namespace mtia::simd

#endif // MTIA_CORE_SIMD_H_
