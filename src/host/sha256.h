#ifndef MTIA_HOST_SHA256_H_
#define MTIA_HOST_SHA256_H_

/**
 * @file
 * SHA-256, used by the secure-boot processor in the Host Interface to
 * verify firmware-bundle images before they run (Section 3.1's secure
 * boot; Section 5.5's firmware-bundle deployment).
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mtia {

/** A 256-bit digest. */
using Sha256Digest = std::array<std::uint8_t, 32>;

/** Incremental SHA-256 (FIPS 180-4). */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p len bytes. */
    void update(const std::uint8_t *data, std::size_t len);
    void update(const std::vector<std::uint8_t> &data)
    {
        update(data.data(), data.size());
    }
    void update(const std::string &s)
    {
        update(reinterpret_cast<const std::uint8_t *>(s.data()),
               s.size());
    }

    /** Finish and return the digest; the object must not be reused. */
    Sha256Digest finish();

    /** One-shot convenience. */
    static Sha256Digest hash(const std::vector<std::uint8_t> &data);
    static Sha256Digest hash(const std::string &s);

    /** Whether update() compresses through SHA-NI on this thread: the
     *  binary holds the kernel, the CPU reports `sha` and `sse4.1`,
     *  and the active SIMD tier is not Scalar. */
    static bool usesShaNi();

    /** Lower-case hex string of a digest. */
    static std::string hex(const Sha256Digest &d);

  private:
    /** Compress @p count whole blocks: SHA-NI when usesShaNi(), else
     *  the portable processBlock loop. */
    void compress(const std::uint8_t *blocks, std::size_t count);
    /** The portable round loop: the reference every path must equal. */
    void processBlock(const std::uint8_t *block);

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t buffered_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace mtia

#endif // MTIA_HOST_SHA256_H_
