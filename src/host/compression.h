#ifndef MTIA_HOST_COMPRESSION_H_
#define MTIA_HOST_COMPRESSION_H_

/**
 * @file
 * Real compression codecs backing MTIA 2i's two engines:
 *
 *  - rANS (range asymmetric numeral system), the "ANS" weight
 *    compressor of Section 3.3: order-0 entropy coding that reaches
 *    ~50% on INT8 weight distributions but does little for FP16
 *    (random mantissa bytes carry ~8 bits of entropy).
 *  - An LZ byte codec standing in for the GZIP engine on the PCIe
 *    path (up to 25 GB/s on the device side), which exploits the
 *    repetitive structure of batched input feature data.
 *
 * Both are real encoders/decoders with exact round-trip tests; the
 * benches measure genuine ratios on synthetic weight/input data.
 *
 * The rANS container is format-versioned: streams written by the seed
 * codec (v1, single encoder state) start with their uncompressed
 * length, while v2 streams (four interleaved encoder states, the
 * default — the per-symbol decode dependency chain is the bottleneck,
 * and four states give the CPU four independent chains) start with a
 * 0xFFFFFFFF sentinel + version byte. decompress() sniffs the header,
 * so old golden data keeps decoding bit-exactly.
 */

#include <cstdint>
#include <vector>

namespace mtia {

/** Byte buffer alias used by the codecs. */
using ByteBuffer = std::vector<std::uint8_t>;

/** rANS container format selector (see file comment). */
enum class RansFormat : std::uint8_t {
    V1Scalar = 1,      ///< seed format: one encoder state per block
    V2Interleaved = 2, ///< four interleaved states per block (default)
};

/**
 * Order-0 rANS codec with per-block frequency tables (64 KiB blocks,
 * 12-bit probability resolution).
 */
class RansCodec
{
  public:
    /** Compress @p input; the result always round-trips. */
    static ByteBuffer compress(const ByteBuffer &input,
                               RansFormat format =
                                   RansFormat::V2Interleaved);

    /** Decompress a buffer produced by compress() (any format). */
    static ByteBuffer decompress(const ByteBuffer &input);

    /** compressed/original size; > 1 means expansion. */
    static double ratio(const ByteBuffer &input);

    /** Shannon entropy of the byte distribution, in bits/byte. */
    static double entropyBitsPerByte(const ByteBuffer &input);
};

/**
 * LZ4-flavoured LZ77 codec matching against a 64 KiB window with
 * token/extension encoding. Fast-path analog of the GZIP engine.
 * compress() finds matches with a hash-chain matcher (bounded
 * candidate walk per position). After a failed search it steps
 * 1 + misses / 256 positions, at most 16, where misses counts the
 * failed searches since the last match: incompressible input (FP16
 * weights, wide-spectrum INT8) is skipped through at a fraction of a
 * search per byte, while input with a match every few hundred bytes
 * is searched at every position. compressGreedy() is the seed
 * single-entry-hash greedy matcher kept as the reference. Both emit
 * the same stream format and decompress() reads either.
 */
class LzCodec
{
  public:
    static ByteBuffer compress(const ByteBuffer &input);
    static ByteBuffer compressGreedy(const ByteBuffer &input);
    static ByteBuffer decompress(const ByteBuffer &input);
    static double ratio(const ByteBuffer &input);
};

} // namespace mtia

#endif // MTIA_HOST_COMPRESSION_H_
