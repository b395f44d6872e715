#include "host/compression.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

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

/**
 * Per-symbol encoder constants (ryg_rans' RansEncSymbol). The state
 * update x' = (x / f) * M + x % f + cum[s] becomes
 * x' = x + bias + q * (M - f), with q = x / f taken from a multiply by
 * the exact reciprocal of f. That quotient is exact for every x below
 * 2^31, and the renormalized state never reaches it (x < x_max <=
 * 2^31), so the states, and the stream, are bit-identical to the
 * division form. f == 1 uses rcp_freq = ~0 (q = x - 1) and folds the
 * missing M - 1 into bias.
 */
struct RansEncSymbol
{
    std::uint32_t x_max;     ///< renormalize while x >= x_max
    std::uint32_t rcp_freq;  ///< fixed-point reciprocal of f
    std::uint32_t bias;      ///< cum[s], plus M - 1 when f == 1
    std::uint16_t cmpl_freq; ///< M - f
    std::uint16_t rcp_shift; ///< post-multiply shift of q
};

std::array<RansEncSymbol, 256>
encSymbols(const std::array<std::uint32_t, 256> &freq)
{
    std::array<RansEncSymbol, 256> syms{};
    std::uint32_t cum = 0;
    for (int s = 0; s < 256; ++s) {
        const std::uint32_t f = freq[s];
        RansEncSymbol &e = syms[s];
        e.x_max = ((kRansL >> kProbBits) << 8) * f;
        e.cmpl_freq = static_cast<std::uint16_t>(kProbScale - f);
        if (f < 2) {
            e.rcp_freq = ~0u;
            e.rcp_shift = 0;
            e.bias = cum + kProbScale - 1;
        } else {
            std::uint32_t shift = 0;
            while (f > (1u << shift))
                ++shift;
            e.rcp_freq = static_cast<std::uint32_t>(
                ((std::uint64_t{1} << (shift + 31)) + f - 1) / f);
            e.rcp_shift = static_cast<std::uint16_t>(shift - 1);
            e.bias = cum;
        }
        cum += f;
    }
    return syms;
}

/**
 * Renormalize @p x for @p sym, writing bytes backward at @p ptr, then
 * absorb the symbol. A state below 2^31 sheds at most two bytes
 * (x_max >= 2^19), so both candidate bytes are stored and @p ptr moves
 * back by the count the byte loop `while (x >= x_max)` would emit; a
 * byte past that count is overwritten by the next symbol or the flush.
 */
inline void
ransEncPut(std::uint32_t &x, std::uint8_t *&ptr, const RansEncSymbol &sym)
{
    const std::uint32_t nb = static_cast<std::uint32_t>(x >= sym.x_max) +
        static_cast<std::uint32_t>(std::uint64_t{x} >=
                                   (std::uint64_t{sym.x_max} << 8));
    ptr[-1] = static_cast<std::uint8_t>(x);
    ptr[-2] = static_cast<std::uint8_t>(x >> 8);
    ptr -= nb;
    const std::uint32_t v = x >> (8 * nb);
    const std::uint32_t q = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(v) * sym.rcp_freq) >> 32) >>
        sym.rcp_shift;
    x = v + sym.bias + q * sym.cmpl_freq;
}

/** Scratch bytes a block of @p n symbols can need: at most two renorm
 *  bytes per symbol (see ransEncPut), four flushed bytes per state, and
 *  ransEncPut's two stores just below the stream. */
constexpr std::size_t
maxPayload(std::size_t n)
{
    return 2 * n + 4 * kRansStreams;
}

/**
 * One block with kLanes interleaved states over one shared byte
 * stream (v1: one state; v2: four, symbol i belongs to state i % 4).
 * Encoding walks the block back-to-front, renormalizing the symbol's
 * state before absorbing it, and writes bytes backward from
 * @p scratch_end; the final states flush high state first, so the
 * stream starts with state 0. Because every state's renorm bytes
 * enter the shared stream in LIFO order and decode order is the exact
 * reverse of encode order, the decoder's forward walk consumes each
 * byte for the same (symbol, state) step that produced it — the
 * standard interleaved-rANS construction.
 */
template <unsigned kLanes>
void
compressBlock(const std::uint8_t *data, std::size_t n, ByteBuffer &out,
              std::uint8_t *scratch_end)
{
    const auto syms = encSymbols(writeBlockHeader(data, n, out));
    std::array<std::uint32_t, kLanes> x;
    x.fill(kRansL);
    std::uint8_t *ptr = scratch_end;
    std::size_t i = n;
    for (const std::size_t body = n - n % kLanes; i > body;) {
        --i;
        ransEncPut(x[i % kLanes], ptr, syms[data[i]]);
    }
    for (; i > 0; i -= kLanes) {
#pragma GCC unroll 4
        for (unsigned k = 1; k <= kLanes; ++k)
            ransEncPut(x[kLanes - k], ptr, syms[data[i - k]]);
    }
    for (unsigned lane = kLanes; lane-- > 0;) {
        for (int b = 0; b < 4; ++b) {
            *--ptr = static_cast<std::uint8_t>(x[lane]);
            x[lane] >>= 8;
        }
    }
    put32(out, static_cast<std::uint32_t>(scratch_end - ptr));
    out.insert(out.end(), ptr, scratch_end);
}

/**
 * Parse the shared block header written by writeBlockHeader into one
 * packed decode entry per slot: symbol (bits 0-7), slot - cum[symbol]
 * (bits 8-19) and frequency - 1 (bits 20-31). Rejects a block longer
 * than kBlockSize or than the @p room left of the declared total.
 */
std::uint32_t
readBlockHeader(const ByteBuffer &in, std::size_t &pos, std::size_t room,
                std::array<std::uint32_t, kProbScale> &slots)
{
    const std::uint32_t n = get32(in, pos);
    MTIA_CHECK_LE(n, kBlockSize) << ": rANS block length above 64 KiB";
    MTIA_CHECK_LE(n, room) << ": rANS block runs past the declared length";
    MTIA_CHECK_LE(pos + 512, in.size())
        << ": rANS truncated frequency table";
    std::array<std::uint32_t, 256> freq{};
    std::uint32_t total = 0;
    for (int s = 0; s < 256; ++s) {
        freq[s] = static_cast<std::uint32_t>(in[pos]) |
            (static_cast<std::uint32_t>(in[pos + 1]) << 8);
        pos += 2;
        total += freq[s];
    }
    MTIA_CHECK_EQ(total, kProbScale) << ": rANS corrupted frequency table";
    std::uint32_t cum = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        for (std::uint32_t k = 0; k < freq[s]; ++k)
            slots[cum + k] = s | (k << 8) | ((freq[s] - 1) << 20);
        cum += freq[s];
    }
    return n;
}

/** Decode one symbol from state @p x. */
inline std::uint8_t
ransDecGet(std::uint32_t &x, const std::uint32_t *slots)
{
    const std::uint32_t e = slots[x & (kProbScale - 1)];
    x = ((e >> 20) + 1) * (x >> kProbBits) + ((e >> 8) & 0xfff);
    return static_cast<std::uint8_t>(e);
}

/**
 * Refill @p x to at least kRansL from in[pos, end). A decoded state is
 * at least 2^11, so it needs at most two bytes: while two remain, read
 * both and shift in as many as needed without a branch. The checked
 * loop after it keeps the byte-at-a-time semantics for the last bytes
 * and for corrupt streams.
 */
inline void
ransDecRenorm(std::uint32_t &x, const std::uint8_t *in, std::size_t &pos,
              std::size_t end)
{
    if (end - pos >= 2) {
        const std::uint32_t nb =
            static_cast<std::uint32_t>(x < kRansL) +
            static_cast<std::uint32_t>(x < (kRansL >> 8));
        const std::uint32_t two =
            (static_cast<std::uint32_t>(in[pos]) << 8) | in[pos + 1];
        x = (x << (8 * nb)) | (two >> (8 * (2 - nb)));
        pos += nb;
    }
    while (x < kRansL && pos < end)
        x = (x << 8) | in[pos++];
}

/** Decode one kLanes-state block into @p dst, which has @p room bytes
 *  left; returns the block length. */
template <unsigned kLanes>
std::size_t
decompressBlock(const ByteBuffer &in, std::size_t &pos, std::uint8_t *dst,
                std::size_t room)
{
    std::array<std::uint32_t, kProbScale> slots;
    const std::uint32_t n = readBlockHeader(in, pos, room, slots);

    const std::uint32_t payload = get32(in, pos);
    const std::size_t end = pos + payload;
    MTIA_CHECK_LE(end, in.size()) << ": rANS truncated payload";

    std::array<std::uint32_t, kLanes> x{};
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        for (int b = 0; b < 4; ++b) {
            MTIA_CHECK_LT(pos, end) << ": rANS payload underrun";
            x[lane] = (x[lane] << 8) | in[pos++];
        }
    }

    const std::uint8_t *src = in.data();
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 4
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            dst[i + lane] = ransDecGet(x[lane], slots.data());
            ransDecRenorm(x[lane], src, pos, end);
        }
    }
    for (unsigned lane = 0; i < n; ++i, ++lane) {
        dst[i] = ransDecGet(x[lane], slots.data());
        ransDecRenorm(x[lane], src, pos, end);
    }
    pos = end;
    return n;
}

// ----------------------------------------------------------------- LZ

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kChainMask = 65535; // position ring == window
constexpr int kMaxChainWalk = 32;         // candidates tried per pos
// After a failed search the matcher steps 1 + (misses >> kSkipTrigger)
// positions, capped at kMaxStride, where misses counts the failed
// searches since the last match (LZ4's acceleration rule).
constexpr unsigned kSkipTrigger = 8;
constexpr std::size_t kMaxStride = 16;

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint32_t
hashWord(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Length of the common prefix of @p a and @p b, at most @p limit. On
 *  little-endian targets eight bytes at a time: the lowest set bit of
 *  the XOR lies in the first byte that differs. */
std::size_t
commonPrefix(const std::uint8_t *a, const std::uint8_t *b, std::size_t limit)
{
    std::size_t len = 0;
    if constexpr (std::endian::native == std::endian::little) {
        for (; len + 8 <= limit; len += 8) {
            std::uint64_t wa, wb;
            std::memcpy(&wa, a + len, 8);
            std::memcpy(&wb, b + len, 8);
            if (wa != wb)
                return len + static_cast<std::size_t>(
                                 std::countr_zero(wa ^ wb) >> 3);
        }
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
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
        MTIA_CHECK(pos < in.size()) << ": LZ truncated length";
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
    ByteBuffer scratch(maxPayload(std::min(kBlockSize, input.size())));
    std::uint8_t *const scratch_end = scratch.data() + scratch.size();
    for (std::size_t off = 0; off < input.size(); off += kBlockSize) {
        const std::size_t n = std::min(kBlockSize, input.size() - off);
        if (format == RansFormat::V2Interleaved)
            compressBlock<kRansStreams>(input.data() + off, n, out,
                                        scratch_end);
        else
            compressBlock<1>(input.data() + off, n, out, scratch_end);
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
    // Every block spends at least its length, table and payload length
    // (520 bytes) on at most kBlockSize symbols, so the rest of the
    // stream bounds the output before any of it is allocated.
    constexpr std::size_t kBlockHeaderBytes = 4 + 512 + 4;
    MTIA_CHECK_LE(total,
                  (input.size() - pos) / kBlockHeaderBytes * kBlockSize)
        << ": rANS declared length exceeds what the stream can hold";
    ByteBuffer out(total);
    std::size_t done = 0;
    while (done < total) {
        done += interleaved
            ? decompressBlock<kRansStreams>(input, pos, out.data() + done,
                                            total - done)
            : decompressBlock<1>(input, pos, out.data() + done,
                                 total - done);
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
    const std::size_t n = input.size();
    ByteBuffer out;
    // The longest stream: all literals, one length byte per 255.
    out.reserve(4 + 1 + n + n / 255 + 1);
    put32(out, static_cast<std::uint32_t>(n));
    if (n == 0)
        return out;

    // Hash-chain matcher: head[h] is 1 + the most recent position with
    // hash h, and chain[p & kChainMask] is 1 + the position before p
    // with the same hash (0: none in either). A slot of chain[] can
    // only be overwritten by a position >= 64 KiB newer, which the
    // window check rejects before the stale link is followed.
    std::vector<std::uint32_t> head(1u << kHashBits, 0);
    std::vector<std::uint32_t> chain(kChainMask + 1, 0);
    const std::uint8_t *data = input.data();
    const std::size_t last_insert = n - kMinMatch; // last hashable pos

    // Link position p into the chain whose head is @p h.
    auto link = [&](std::size_t p, std::uint32_t &h) {
        chain[p & kChainMask] = h;
        h = static_cast<std::uint32_t>(p + 1);
    };

    std::size_t anchor = 0; // start of the pending literal run
    std::size_t misses = 0; // failed searches since the last match
    std::size_t i = 0;
    while (i + kMinMatch <= n) {
        std::size_t best_len = 0;
        std::size_t best_off = 0;
        const std::uint32_t word = load32(data + i);
        std::uint32_t &bucket = head[hashWord(word)];
        const std::uint32_t first = bucket;
        std::size_t c = first - 1;
        for (int walk = kMaxChainWalk;
             first != 0 && walk > 0 && i - c <= kMaxOffset; --walk) {
            if (i + best_len >= n)
                break; // already matched to the end of input
            // Cheap reject: a longer match must extend past best_len.
            if ((best_len == 0 || data[c + best_len] == data[i + best_len]) &&
                load32(data + c) == word) {
                const std::size_t len = kMinMatch +
                    commonPrefix(data + c + kMinMatch, data + i + kMinMatch,
                                 n - i - kMinMatch);
                if (len > best_len) {
                    best_len = len;
                    best_off = i - c;
                }
            }
            const std::uint32_t next = chain[c & kChainMask];
            if (next == 0)
                break;
            c = next - 1;
        }
        if (best_len >= kMinMatch) {
            emitSequence(out, data + anchor, i - anchor, best_len,
                         best_off);
            const std::size_t stop =
                std::min(i + best_len, last_insert + 1);
            for (std::size_t j = i; j < stop; ++j)
                link(j, head[hashWord(load32(data + j))]);
            i += best_len;
            anchor = i;
            misses = 0;
        } else {
            // Bytes that keep failing to match are skipped ever faster,
            // so incompressible input costs a fraction of a search per
            // byte; the skipped positions are never linked.
            link(i, bucket);
            i += std::min(1 + (misses++ >> kSkipTrigger), kMaxStride);
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
        const std::uint32_t h = hashWord(load32(data + i));
        const std::int64_t cand = table[h];
        table[h] = static_cast<std::int64_t>(i);
        if (cand >= 0 &&
            i - static_cast<std::size_t>(cand) <= kMaxOffset &&
            std::memcmp(data + cand, data + i, kMinMatch) == 0) {
            const std::size_t len = kMinMatch +
                commonPrefix(data + cand + kMinMatch, data + i + kMinMatch,
                             n - i - kMinMatch);
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
    // An input byte decodes to at most 255 output bytes (a match-length
    // byte); so does a 3-byte token + offset, at 19. The rest of the
    // stream therefore bounds the output before any of it is
    // allocated.
    constexpr std::size_t kMaxExpansion = 255;
    MTIA_CHECK_LE(total, kMaxExpansion * (input.size() - pos))
        << ": LZ declared length exceeds what the stream can encode";
    ByteBuffer out(total);
    std::uint8_t *const base = out.data();
    const std::uint8_t *const in = input.data();
    const std::size_t in_size = input.size();
    std::size_t size = 0;
    // The per-sequence checks use the plain MTIA_CHECK form: it costs
    // one compare when it holds, where the _LE/_LT forms call out to
    // format their operands.
    while (size < total) {
        MTIA_CHECK(pos < in_size) << ": LZ truncated stream";
        const std::uint8_t token = in[pos++];
        const std::size_t nlit = readVarLen(input, pos, token >> 4);
        MTIA_CHECK(pos + nlit <= in_size) << ": LZ truncated literals";
        MTIA_CHECK(nlit <= total - size)
            << ": LZ literals run past the declared length";
        std::memcpy(base + size, in + pos, nlit);
        pos += nlit;
        size += nlit;
        if (size >= total)
            break;
        MTIA_CHECK(pos + 2 <= in_size) << ": LZ truncated offset";
        const std::size_t offset =
            in[pos] | (static_cast<std::size_t>(in[pos + 1]) << 8);
        pos += 2;
        const std::size_t match_len =
            readVarLen(input, pos, token & 0x0f) + kMinMatch;
        MTIA_CHECK(offset > 0) << ": LZ zero match offset";
        MTIA_CHECK(offset <= size) << ": LZ match offset outside the window";
        MTIA_CHECK(match_len <= total - size)
            << ": LZ match runs past the declared length";
        std::uint8_t *dst = base + size;
        const std::uint8_t *src = dst - offset;
        if (offset >= match_len) {
            // Non-overlapping: one block copy.
            std::memcpy(dst, src, match_len);
        } else {
            // Overlapping matches replicate the window byte-by-byte.
            for (std::size_t j = 0; j < match_len; ++j)
                dst[j] = src[j];
        }
        size += match_len;
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
