#ifndef MTIA_HOST_SHA256_NI_H_
#define MTIA_HOST_SHA256_NI_H_

/**
 * @file
 * SHA-256 block compression on the x86 SHA extensions (SHA-NI), the
 * fast path behind Sha256::update. Internal to the host library: the
 * portable round loop in sha256.cc is the reference it must equal.
 */

#include <cstddef>
#include <cstdint>

namespace mtia::detail {

/** The 64 FIPS 180-4 round constants (defined in sha256.cc). */
extern const std::uint32_t kSha256Round[64];

/** True when this binary holds the SHA-NI kernel and the CPU reports
 *  both `sha` and `sse4.1`. Probed once. */
bool sha256NiSupported();

/**
 * Compress @p blocks consecutive 64-byte blocks at @p data into
 * @p state (eight words in FIPS order a..h). Only call it when
 * sha256NiSupported() is true.
 */
void sha256BlocksNi(std::uint32_t state[8], const std::uint8_t *data,
                    std::size_t blocks);

} // namespace mtia::detail

#endif // MTIA_HOST_SHA256_NI_H_
