#include "host/sha256.h"

#include <algorithm>
#include <cstring>

#include "core/simd.h"
#include "host/sha256_ni.h"

namespace mtia {

namespace detail {

const std::uint32_t kSha256Round[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

} // namespace detail

namespace {

std::uint32_t
rotr(std::uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
            (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
            (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
            static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
            (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
            (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state_;
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + detail::kSha256Round[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

// Selecting by tier means MTIA_SIMD_ISA=scalar and ScopedIsa(Scalar)
// run the portable round loop, which stays the reference.
bool
Sha256::usesShaNi()
{
#if defined(MTIA_HOST_HAVE_SHANI)
    return simd::activeIsa() != simd::SimdIsa::Scalar &&
        detail::sha256NiSupported();
#else
    return false;
#endif
}

void
Sha256::compress(const std::uint8_t *blocks, std::size_t count)
{
    if (count == 0)
        return;
#if defined(MTIA_HOST_HAVE_SHANI)
    if (usesShaNi()) {
        detail::sha256BlocksNi(state_.data(), blocks, count);
        return;
    }
#endif
    for (std::size_t b = 0; b < count; ++b)
        processBlock(blocks + 64 * b);
}

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return; // an empty vector's data() may be null
    total_ += len;
    if (buffered_ > 0) {
        const std::size_t take = std::min(len, buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ < buffer_.size())
            return;
        compress(buffer_.data(), 1);
        buffered_ = 0;
    }
    // Whole blocks straight from the caller's buffer.
    const std::size_t blocks = len / buffer_.size();
    compress(data, blocks);
    data += blocks * buffer_.size();
    len -= blocks * buffer_.size();
    if (len > 0)
        std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
}

Sha256Digest
Sha256::finish()
{
    // Padding: 0x80, zeros up to byte 56 of a block, then the
    // big-endian bit length.
    const std::uint64_t bit_len = total_ * 8;
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::fill(buffer_.begin() + buffered_, buffer_.end(), 0);
        compress(buffer_.data(), 1);
        buffered_ = 0;
    }
    std::fill(buffer_.begin() + buffered_, buffer_.begin() + 56, 0);
    for (int i = 0; i < 8; ++i)
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(buffer_.data(), 1);

    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Sha256Digest
Sha256::hash(const std::vector<std::uint8_t> &data)
{
    Sha256 h;
    h.update(data);
    return h.finish();
}

Sha256Digest
Sha256::hash(const std::string &s)
{
    Sha256 h;
    h.update(s);
    return h.finish();
}

std::string
Sha256::hex(const Sha256Digest &d)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : d) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0x0f]);
    }
    return out;
}

} // namespace mtia
