/**
 * SHA-256 block compression on the SHA-NI instructions: sha256rnds2
 * runs two rounds on the state held as {ABEF, CDGH} register pairs,
 * sha256msg1/msg2 extend the message schedule four words at a time.
 * Bit-identical to the portable round loop (Sha256::processBlock) by
 * construction; Sha.* tests compare the two on every supported tier.
 *
 * CMake adds this TU (with -msha -msse4.1) only on x86-64 and only
 * when the compiler accepts both flags, and then defines
 * MTIA_HOST_HAVE_SHANI for sha256.cc. Raw intrinsics are sanctioned
 * here by the raw-intrinsics rule's carve-out for this file.
 */

#include "host/sha256_ni.h"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace mtia::detail {

bool
sha256NiSupported()
{
    static const bool supported = __builtin_cpu_supports("sha") != 0 &&
        __builtin_cpu_supports("sse4.1") != 0;
    return supported;
}

void
sha256BlocksNi(std::uint32_t state[8], const std::uint8_t *data,
               std::size_t blocks)
{
    // Message words are big-endian in the block.
    const __m128i byte_swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

    // {a,b,c,d}, {e,f,g,h} -> ABEF and CDGH, the layout sha256rnds2
    // works on.
    __m128i tmp =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[0]));
    __m128i cdgh =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xb1);
    cdgh = _mm_shuffle_epi32(cdgh, 0x1b);
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // w[g & 3] holds schedule words 4g..4g+3 while group g runs;
        // msg1 starts group g+3's words, msg2 finishes group g+1's.
        __m128i w[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i &cur = w[g & 3];
            if (g < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * g)),
                    byte_swap);
            }
            __m128i msg = _mm_add_epi32(
                cur, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                         kSha256Round + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            if (g >= 3 && g <= 14) {
                __m128i &next = w[(g + 1) & 3];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(cur, w[(g + 3) & 3], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            msg = _mm_shuffle_epi32(msg, 0x0e);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
            if (g >= 1 && g <= 12) {
                __m128i &prev = w[(g + 3) & 3];
                prev = _mm_sha256msg1_epu32(prev, cur);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF and CDGH back to {a,b,c,d}, {e,f,g,h}.
    tmp = _mm_shuffle_epi32(abef, 0x1b);
    cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
    abef = _mm_blend_epi16(tmp, cdgh, 0xf0);
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]), cdgh);
}

} // namespace mtia::detail

#endif
