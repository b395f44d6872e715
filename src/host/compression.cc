#include "host/compression.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "core/check.h"
#include "core/numerics_stats.h"

namespace mtia {

namespace {

// ---------------------------------------------------------------- rANS

constexpr std::uint32_t kProbBits = 12;
constexpr std::uint32_t kProbScale = 1u << kProbBits;
constexpr std::uint32_t kRansL = 1u << 23; // renormalization bound
constexpr std::size_t kBlockSize = 64 * 1024;
constexpr unsigned kRansStreams = 4; // interleaved states in v2
// v2 streams start with this sentinel where v1 stored the
// uncompressed length; a v1 length of 0xFFFFFFFF would mean a 4 GiB
// input, far beyond what the codec is specified for.
constexpr std::uint32_t kFormatSentinel = 0xffffffffu;

/** Append a 32-bit little-endian value. */
void
put32(ByteBuffer &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
get32(const ByteBuffer &in, std::size_t &pos)
{
    MTIA_CHECK_LE(pos + 4, in.size()) << ": rANS truncated stream";
    const std::uint32_t v = static_cast<std::uint32_t>(in[pos]) |
        (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
        (static_cast<std::uint32_t>(in[pos + 2]) << 16) |
        (static_cast<std::uint32_t>(in[pos + 3]) << 24);
    pos += 4;
    return v;
}

/** Normalize byte counts to sum to kProbScale, keeping every present
 * symbol's frequency >= 1. */
std::array<std::uint32_t, 256>
normalizeFreqs(const std::array<std::uint64_t, 256> &counts,
               std::uint64_t total)
{
    std::array<std::uint32_t, 256> freq{};
    std::uint32_t assigned = 0;
    int largest = 0;
    for (int s = 0; s < 256; ++s) {
        if (counts[s] == 0)
            continue;
        std::uint64_t f = counts[s] * kProbScale / total;
        if (f == 0)
            f = 1;
        freq[s] = static_cast<std::uint32_t>(f);
        assigned += freq[s];
        if (counts[s] > counts[largest])
            largest = s;
    }
    // Fix the rounding drift on the most frequent symbol.
    if (assigned != kProbScale) {
        const std::int64_t delta =
            static_cast<std::int64_t>(kProbScale) - assigned;
        const std::int64_t adjusted = freq[largest] + delta;
        MTIA_CHECK_GE(adjusted, 1)
            << ": rANS frequency normalization failed";
        freq[largest] = static_cast<std::uint32_t>(adjusted);
    }
    return freq;
}

/** Count, normalize, and write the shared block header (length +
 * 512-byte frequency table); returns the normalized frequencies. */
std::array<std::uint32_t, 256>
writeBlockHeader(const std::uint8_t *data, std::size_t n,
                 ByteBuffer &out)
{
    std::array<std::uint64_t, 256> counts{};
    for (std::size_t i = 0; i < n; ++i)
        ++counts[data[i]];
    const auto freq = normalizeFreqs(counts, n);
    put32(out, static_cast<std::uint32_t>(n));
    for (int s = 0; s < 256; ++s) {
        out.push_back(static_cast<std::uint8_t>(freq[s]));
        out.push_back(static_cast<std::uint8_t>(freq[s] >> 8));
    }
    return freq;
}

/** Parse the shared block header written by writeBlockHeader. */
std::uint32_t
readBlockHeader(const ByteBuffer &in, std::size_t &pos,
                std::array<std::uint32_t, 256> &freq,
                std::array<std::uint32_t, 257> &cum,
                std::vector<std::uint8_t> &slot2sym)
{
    const std::uint32_t n = get32(in, pos);
    MTIA_CHECK_LE(pos + 512, in.size())
        << ": rANS truncated frequency table";
    for (int s = 0; s < 256; ++s) {
        freq[s] = static_cast<std::uint32_t>(in[pos]) |
            (static_cast<std::uint32_t>(in[pos + 1]) << 8);
        pos += 2;
    }
    cum[0] = 0;
    for (int s = 0; s < 256; ++s)
        cum[s + 1] = cum[s] + freq[s];
    MTIA_CHECK_EQ(cum[256], kProbScale)
        << ": rANS corrupted frequency table";
    slot2sym.assign(kProbScale, 0);
    for (int s = 0; s < 256; ++s)
        for (std::uint32_t i = cum[s]; i < cum[s + 1]; ++i)
            slot2sym[i] = static_cast<std::uint8_t>(s);
    return n;
}

void
compressBlockV1(const std::uint8_t *data, std::size_t n, ByteBuffer &out)
{
    const auto freq = writeBlockHeader(data, n, out);
    std::array<std::uint32_t, 257> cum{};
    for (int s = 0; s < 256; ++s)
        cum[s + 1] = cum[s] + freq[s];

    // Encode back-to-front; bytes come out reversed.
    ByteBuffer rev;
    rev.reserve(n);
    std::uint32_t x = kRansL;
    for (std::size_t i = n; i-- > 0;) {
        const std::uint8_t s = data[i];
        const std::uint32_t f = freq[s];
        const std::uint32_t x_max = ((kRansL >> kProbBits) << 8) * f;
        while (x >= x_max) {
            rev.push_back(static_cast<std::uint8_t>(x));
            x >>= 8;
        }
        x = ((x / f) << kProbBits) + (x % f) + cum[s];
    }
    for (int b = 0; b < 4; ++b) {
        rev.push_back(static_cast<std::uint8_t>(x));
        x >>= 8;
    }

    put32(out, static_cast<std::uint32_t>(rev.size()));
    out.insert(out.end(), rev.rbegin(), rev.rend());
}

void
decompressBlockV1(const ByteBuffer &in, std::size_t &pos, ByteBuffer &out)
{
    std::array<std::uint32_t, 256> freq{};
    std::array<std::uint32_t, 257> cum{};
    std::vector<std::uint8_t> slot2sym;
    const std::uint32_t n = readBlockHeader(in, pos, freq, cum, slot2sym);

    const std::uint32_t payload = get32(in, pos);
    const std::size_t end = pos + payload;
    MTIA_CHECK_LE(end, in.size()) << ": rANS truncated payload";

    auto next_byte = [&]() -> std::uint32_t {
        MTIA_CHECK_LT(pos, end) << ": rANS payload underrun";
        return in[pos++];
    };

    std::uint32_t x = 0;
    for (int b = 0; b < 4; ++b)
        x = (x << 8) | next_byte();

    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t slot = x & (kProbScale - 1);
        const std::uint8_t s = slot2sym[slot];
        out.push_back(s);
        x = freq[s] * (x >> kProbBits) + slot - cum[s];
        while (x < kRansL && pos < end)
            x = (x << 8) | next_byte();
    }
    pos = end;
}

/**
 * v2 block: four interleaved rANS states over one shared byte stream
 * (symbol i belongs to state i & 3). Encoding walks the block
 * back-to-front, renormalizing state s before absorbing each symbol;
 * the four final states flush high state first so that the reversed
 * stream starts with state 0. Because every state's renorm bytes
 * enter the shared stream in LIFO order and decode order is the exact
 * reverse of encode order, the decoder's forward walk consumes each
 * byte for the same (symbol, state) step that produced it — the
 * standard interleaved-rANS construction.
 */
void
compressBlockV2(const std::uint8_t *data, std::size_t n, ByteBuffer &out)
{
    const auto freq = writeBlockHeader(data, n, out);
    std::array<std::uint32_t, 257> cum{};
    for (int s = 0; s < 256; ++s)
        cum[s + 1] = cum[s] + freq[s];

    ByteBuffer rev;
    rev.reserve(n + 4 * kRansStreams);
    std::array<std::uint32_t, kRansStreams> x;
    x.fill(kRansL);
    for (std::size_t i = n; i-- > 0;) {
        const unsigned lane = i & (kRansStreams - 1);
        const std::uint8_t s = data[i];
        const std::uint32_t f = freq[s];
        const std::uint32_t x_max = ((kRansL >> kProbBits) << 8) * f;
        while (x[lane] >= x_max) {
            rev.push_back(static_cast<std::uint8_t>(x[lane]));
            x[lane] >>= 8;
        }
        x[lane] = ((x[lane] / f) << kProbBits) + (x[lane] % f) + cum[s];
    }
    for (unsigned lane = kRansStreams; lane-- > 0;) {
        for (int b = 0; b < 4; ++b) {
            rev.push_back(static_cast<std::uint8_t>(x[lane]));
            x[lane] >>= 8;
        }
    }

    put32(out, static_cast<std::uint32_t>(rev.size()));
    out.insert(out.end(), rev.rbegin(), rev.rend());
}

void
decompressBlockV2(const ByteBuffer &in, std::size_t &pos, ByteBuffer &out)
{
    std::array<std::uint32_t, 256> freq{};
    std::array<std::uint32_t, 257> cum{};
    std::vector<std::uint8_t> slot2sym;
    const std::uint32_t n = readBlockHeader(in, pos, freq, cum, slot2sym);

    const std::uint32_t payload = get32(in, pos);
    const std::size_t end = pos + payload;
    MTIA_CHECK_LE(end, in.size()) << ": rANS truncated payload";

    auto next_byte = [&]() -> std::uint32_t {
        MTIA_CHECK_LT(pos, end) << ": rANS payload underrun";
        return in[pos++];
    };

    std::array<std::uint32_t, kRansStreams> x{};
    for (unsigned lane = 0; lane < kRansStreams; ++lane)
        for (int b = 0; b < 4; ++b)
            x[lane] = (x[lane] << 8) | next_byte();

    const std::size_t prev = out.size();
    out.resize(prev + n);
    std::uint8_t *dst = out.data() + prev;
    for (std::uint32_t i = 0; i < n; ++i) {
        const unsigned lane = i & (kRansStreams - 1);
        const std::uint32_t slot = x[lane] & (kProbScale - 1);
        const std::uint8_t s = slot2sym[slot];
        dst[i] = s;
        x[lane] = freq[s] * (x[lane] >> kProbBits) + slot - cum[s];
        while (x[lane] < kRansL && pos < end)
            x[lane] = (x[lane] << 8) | next_byte();
    }
    pos = end;
}

// ----------------------------------------------------------------- LZ

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kChainMask = 65535; // position ring == window
constexpr int kMaxChainWalk = 32;         // candidates tried per pos

std::uint32_t
hash4(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
writeVarLen(ByteBuffer &out, std::size_t v)
{
    while (v >= 255) {
        out.push_back(255);
        v -= 255;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t
readVarLen(const ByteBuffer &in, std::size_t &pos, std::size_t base)
{
    if (base < 15)
        return base;
    std::size_t v = base;
    while (true) {
        MTIA_CHECK_LT(pos, in.size()) << ": LZ truncated length";
        const std::uint8_t b = in[pos++];
        v += b;
        if (b != 255)
            break;
    }
    return v;
}

void
emitSequence(ByteBuffer &out, const std::uint8_t *lit, std::size_t nlit,
             std::size_t match_len, std::size_t offset)
{
    const std::size_t lit_nib = std::min<std::size_t>(nlit, 15);
    const std::size_t mat_nib =
        match_len >= kMinMatch
            ? std::min<std::size_t>(match_len - kMinMatch, 15)
            : 0;
    out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | mat_nib));
    if (lit_nib == 15)
        writeVarLen(out, nlit - 15);
    out.insert(out.end(), lit, lit + nlit);
    if (match_len >= kMinMatch) {
        out.push_back(static_cast<std::uint8_t>(offset));
        out.push_back(static_cast<std::uint8_t>(offset >> 8));
        if (mat_nib == 15)
            writeVarLen(out, match_len - kMinMatch - 15);
    }
}

} // namespace

ByteBuffer
RansCodec::compress(const ByteBuffer &input, RansFormat format)
{
    numerics::noteBytesCompressed(input.size());
    ByteBuffer out;
    if (format == RansFormat::V2Interleaved) {
        put32(out, kFormatSentinel);
        out.push_back(static_cast<std::uint8_t>(RansFormat::V2Interleaved));
    }
    put32(out, static_cast<std::uint32_t>(input.size()));
    for (std::size_t off = 0; off < input.size(); off += kBlockSize) {
        const std::size_t n = std::min(kBlockSize, input.size() - off);
        if (format == RansFormat::V2Interleaved)
            compressBlockV2(input.data() + off, n, out);
        else
            compressBlockV1(input.data() + off, n, out);
    }
    return out;
}

ByteBuffer
RansCodec::decompress(const ByteBuffer &input)
{
    std::size_t pos = 0;
    std::uint32_t total = get32(input, pos);
    bool interleaved = false;
    if (total == kFormatSentinel) {
        MTIA_CHECK_LT(pos, input.size()) << ": rANS truncated version";
        const unsigned version = input[pos++];
        MTIA_CHECK_EQ(version,
                      static_cast<unsigned>(RansFormat::V2Interleaved))
            << ": rANS unknown container version";
        interleaved = true;
        total = get32(input, pos);
    }
    ByteBuffer out;
    out.reserve(total);
    while (out.size() < total) {
        if (interleaved)
            decompressBlockV2(input, pos, out);
        else
            decompressBlockV1(input, pos, out);
    }
    return out;
}

double
RansCodec::ratio(const ByteBuffer &input)
{
    if (input.empty())
        return 1.0;
    return static_cast<double>(compress(input).size()) /
        static_cast<double>(input.size());
}

double
RansCodec::entropyBitsPerByte(const ByteBuffer &input)
{
    if (input.empty())
        return 0.0;
    std::array<std::uint64_t, 256> counts{};
    for (std::uint8_t b : input)
        ++counts[b];
    double h = 0.0;
    const double n = static_cast<double>(input.size());
    for (std::uint64_t c : counts) {
        if (c == 0)
            continue;
        const double p = static_cast<double>(c) / n;
        h -= p * std::log2(p);
    }
    return h;
}

ByteBuffer
LzCodec::compress(const ByteBuffer &input)
{
    numerics::noteBytesCompressed(input.size());
    ByteBuffer out;
    put32(out, static_cast<std::uint32_t>(input.size()));
    const std::size_t n = input.size();
    if (n == 0)
        return out;

    // Hash-chain matcher: head[h] is the most recent position with
    // hash h; chain[p & kChainMask] links position p to the previous
    // position with the same hash. A slot of chain[] can only be
    // overwritten by a position >= 64 KiB newer, which the window
    // check rejects before the stale link is followed.
    std::vector<std::int64_t> head(1u << kHashBits, -1);
    std::vector<std::int64_t> chain(kChainMask + 1, -1);
    const std::uint8_t *data = input.data();
    const std::size_t last_insert = n - kMinMatch; // last hashable pos

    auto insert = [&](std::size_t p) {
        const std::uint32_t h = hash4(data + p);
        chain[p & kChainMask] = head[h];
        head[h] = static_cast<std::int64_t>(p);
    };

    std::size_t anchor = 0; // start of the pending literal run
    std::size_t i = 0;
    while (i + kMinMatch <= n) {
        std::size_t best_len = 0;
        std::size_t best_off = 0;
        std::int64_t cand = head[hash4(data + i)];
        int walk = kMaxChainWalk;
        while (cand >= 0 &&
               i - static_cast<std::size_t>(cand) <= kMaxOffset &&
               walk-- > 0) {
            if (i + best_len >= n)
                break; // already matched to the end of input
            const auto c = static_cast<std::size_t>(cand);
            // Cheap reject: a longer match must extend past best_len.
            if (best_len == 0 || data[c + best_len] == data[i + best_len]) {
                if (std::memcmp(data + c, data + i, kMinMatch) == 0) {
                    std::size_t len = kMinMatch;
                    while (i + len < n && data[c + len] == data[i + len])
                        ++len;
                    if (len > best_len) {
                        best_len = len;
                        best_off = i - c;
                    }
                }
            }
            cand = chain[c & kChainMask];
        }
        if (best_len >= kMinMatch) {
            emitSequence(out, data + anchor, i - anchor, best_len,
                         best_off);
            const std::size_t stop =
                std::min(i + best_len, last_insert + 1);
            for (std::size_t j = i; j < stop; ++j)
                insert(j);
            i += best_len;
            anchor = i;
        } else {
            insert(i);
            ++i;
        }
    }
    // Trailing literals with no match.
    emitSequence(out, data + anchor, n - anchor, 0, 0);
    return out;
}

ByteBuffer
LzCodec::compressGreedy(const ByteBuffer &input)
{
    numerics::noteBytesCompressed(input.size());
    ByteBuffer out;
    put32(out, static_cast<std::uint32_t>(input.size()));
    const std::size_t n = input.size();
    if (n == 0)
        return out;

    std::vector<std::int64_t> table(1u << kHashBits, -1);
    const std::uint8_t *data = input.data();
    std::size_t anchor = 0; // start of the pending literal run
    std::size_t i = 0;
    while (i + kMinMatch <= n) {
        const std::uint32_t h = hash4(data + i);
        const std::int64_t cand = table[h];
        table[h] = static_cast<std::int64_t>(i);
        if (cand >= 0 &&
            i - static_cast<std::size_t>(cand) <= kMaxOffset &&
            std::memcmp(data + cand, data + i, kMinMatch) == 0) {
            // Extend the match.
            std::size_t len = kMinMatch;
            while (i + len < n &&
                   data[cand + len] == data[i + len]) {
                ++len;
            }
            emitSequence(out, data + anchor, i - anchor, len,
                         i - static_cast<std::size_t>(cand));
            i += len;
            anchor = i;
        } else {
            ++i;
        }
    }
    // Trailing literals with no match.
    emitSequence(out, data + anchor, n - anchor, 0, 0);
    return out;
}

ByteBuffer
LzCodec::decompress(const ByteBuffer &input)
{
    std::size_t pos = 0;
    const std::uint32_t total = get32(input, pos);
    ByteBuffer out;
    out.reserve(total);
    while (out.size() < total) {
        MTIA_CHECK_LT(pos, input.size()) << ": LZ truncated stream";
        const std::uint8_t token = input[pos++];
        std::size_t nlit = readVarLen(input, pos, token >> 4);
        MTIA_CHECK_LE(pos + nlit, input.size())
            << ": LZ truncated literals";
        out.insert(out.end(), input.begin() + pos,
                   input.begin() + pos + nlit);
        pos += nlit;
        if (out.size() >= total)
            break;
        MTIA_CHECK_LE(pos + 2, input.size()) << ": LZ truncated offset";
        const std::size_t offset = input[pos] |
            (static_cast<std::size_t>(input[pos + 1]) << 8);
        pos += 2;
        std::size_t match_len =
            readVarLen(input, pos, token & 0x0f) + kMinMatch;
        MTIA_CHECK_GT(offset, 0u) << ": LZ zero match offset";
        MTIA_CHECK_LE(offset, out.size())
            << ": LZ match offset outside the window";
        const std::size_t start = out.size();
        out.resize(start + match_len);
        std::uint8_t *dst = out.data() + start;
        const std::uint8_t *src = dst - offset;
        if (offset >= match_len) {
            // Non-overlapping: one block copy.
            std::memcpy(dst, src, match_len);
        } else {
            // Overlapping matches replicate the window byte-by-byte.
            for (std::size_t j = 0; j < match_len; ++j)
                dst[j] = src[j];
        }
    }
    return out;
}

double
LzCodec::ratio(const ByteBuffer &input)
{
    if (input.empty())
        return 1.0;
    return static_cast<double>(compress(input).size()) /
        static_cast<double>(input.size());
}

} // namespace mtia
