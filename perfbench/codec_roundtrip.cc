/**
 * @file
 * codec_roundtrip: one op round-trips four 512 KiB buffers drawn from
 * the seed (INT8 narrow-spectrum activations, INT8 wide-spectrum
 * activations, FP16 weights, batched feature records) through
 * RansCodec (v2) and LzCodec, compress then decompress, and checks the
 * SHA-256 of every decoded buffer against its input's. The host codecs
 * take under 1% of every other workload, so they get their own; encode
 * runs beside decode, so a change that speeds one and slows the other
 * shows.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "harness.h"
#include "host/compression.h"
#include "host/sha256.h"
#include "sim/random.h"
#include "tensor/dtype.h"

namespace mtia::perfbench {
namespace {

constexpr std::size_t kBufferBytes = 512 * 1024;

std::uint8_t
int8Byte(double v)
{
    const double c = std::clamp(std::round(v), -128.0, 127.0);
    return static_cast<std::uint8_t>(static_cast<std::int8_t>(c));
}

/** The four buffer kinds, each kBufferBytes long. */
std::vector<ByteBuffer>
makeBuffers(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<ByteBuffer> out(4, ByteBuffer(kBufferBytes));
    for (std::size_t i = 0; i < kBufferBytes; ++i) {
        out[0][i] = int8Byte(rng.gaussian(0.0, 3.0));  // narrow spectrum
        out[1][i] = int8Byte(rng.gaussian(0.0, 45.0)); // wide spectrum
    }

    std::vector<float> w(kBufferBytes / 2);
    for (float &x : w)
        x = static_cast<float>(rng.gaussian(0.0, 0.02));
    std::vector<std::uint16_t> half(w.size());
    convertBuffer(w.data(), half.data(), w.size(), DType::FP16);
    std::memcpy(out[2].data(), half.data(), kBufferBytes);

    // Feature records: Zipf user and item ids plus a small dense
    // payload, the shape of a batched ranking request.
    const ZipfSampler users(100'000, 1.1);
    const ZipfSampler items(20'000, 0.9);
    for (std::size_t off = 0; off + 16 <= kBufferBytes; off += 16) {
        const auto user = static_cast<std::uint32_t>(users.sample(rng));
        const auto item = static_cast<std::uint32_t>(items.sample(rng));
        const auto hour = static_cast<std::uint32_t>(rng.below(24));
        const auto clicks = static_cast<std::uint32_t>(rng.poisson(2.0));
        std::memcpy(&out[3][off], &user, 4);
        std::memcpy(&out[3][off + 4], &item, 4);
        std::memcpy(&out[3][off + 8], &hour, 4);
        std::memcpy(&out[3][off + 12], &clicks, 4);
    }
    return out;
}

class CodecRoundtrip final : public Workload
{
  public:
    bool
    setup(std::uint64_t seed) override
    {
        buffers_ = makeBuffers(seed);
        digests_.clear();
        for (const ByteBuffer &b : buffers_)
            digests_.push_back(Sha256::hash(b));
        return op(0, nullptr).ok; // warm-up
    }

    OpOutcome
    op(std::uint64_t i, SpanRecorder *spans) override
    {
        OpOutcome o;
        for (std::size_t b = 0; b < buffers_.size(); ++b) {
            const ByteBuffer &in = buffers_[b];
            ByteBuffer rans, lz, rans_out, lz_out;
            {
                const ScopedSpan s(spans, "host.rans_encode", i);
                rans = RansCodec::compress(in);
            }
            {
                const ScopedSpan s(spans, "host.lz_encode", i);
                lz = LzCodec::compress(in);
            }
            {
                const ScopedSpan s(spans, "host.rans_decode", i);
                rans_out = RansCodec::decompress(rans);
            }
            Sha256Digest rans_hash, lz_hash;
            {
                const ScopedSpan s(spans, "host.sha256", i);
                rans_hash = Sha256::hash(rans_out);
            }
            {
                const ScopedSpan s(spans, "host.lz_decode", i);
                lz_out = LzCodec::decompress(lz);
            }
            {
                const ScopedSpan s(spans, "host.sha256", i);
                lz_hash = Sha256::hash(lz_out);
            }
            o.ok = o.ok && rans_hash == digests_[b] && lz_hash == digests_[b];
            note(o, b, rans.size(), lz.size());
            if (spans == nullptr)
                continue;
            traced_bytes_ += static_cast<double>(in.size());
            if (i < kFixedTraceOps) {
                original_ += static_cast<double>(in.size());
                rans_bytes_ += static_cast<double>(rans.size());
                lz_bytes_ += static_cast<double>(lz.size());
            }
        }
        return o;
    }

    std::vector<std::string>
    mainSpans() const override
    {
        return {"host.rans_encode", "host.rans_decode", "host.lz_encode",
                "host.lz_decode", "host.sha256"};
    }

    void
    layerMetrics(const SpanRecorder &spans, Metrics &out) const override
    {
        const double mb = traced_bytes_ / 1e6;
        for (const char *name : {"rans_encode", "rans_decode", "lz_encode",
                                 "lz_decode"}) {
            out[std::string("host.") + name + "_mb_s"] = {
                mb / spans.total(std::string("host.") + name), "MB/s"};
        }
        // Two digests per input byte: the rANS and the LZ output.
        out["host.sha256_mb_s"] = {2.0 * mb / spans.total("host.sha256"),
                                   "MB/s"};
        out["host.rans_ratio"] = {rans_bytes_ / original_, "ratio"};
        out["host.lz_ratio"] = {lz_bytes_ / original_, "ratio"};
    }

  private:
    void
    note(OpOutcome &o, std::size_t b, std::size_t rans, std::size_t lz) const
    {
        o.work += static_cast<double>(buffers_[b].size()) / 1e6;
        char line[64];
        std::snprintf(line, sizeof line, "%zu rans=%zu lz=%zu\n", b, rans,
                      lz);
        o.digest += line;
    }

    std::vector<ByteBuffer> buffers_;
    std::vector<Sha256Digest> digests_;
    double traced_bytes_ = 0.0;
    double original_ = 0.0;
    double rans_bytes_ = 0.0;
    double lz_bytes_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeCodecRoundtrip()
{
    return std::make_unique<CodecRoundtrip>();
}

} // namespace mtia::perfbench
