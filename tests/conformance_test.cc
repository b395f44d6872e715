/**
 * One conformance table for every fast path whose bytes must not
 * depend on the SIMD tier or the lane count: dtype conversion, the
 * quantizers, the codecs and SHA-256, the TBE gather, the GEMM
 * drivers, the functional executor, the event queue and the cost
 * surrogate.
 *
 * A row is {fast path, reference, input generator}. The reference is
 * an element-at-a-time twin (scalar::*, DotProductEngine,
 * gatherAccumulateScalar, reference_surrogate.h, copy_executor.h,
 * ReferenceQueue), the fast path itself on the scalar tier (the
 * portable SHA round loop, quantizeStatic), a recorded digest, or the
 * contract's checked failure. The harness runs each reference once on
 * the scalar tier at one lane, then each fast path on every supported
 * tier (and at 1, 2 and 8 lanes for rows that fan out). Every run must
 * give the same bytes or the same checked failure, and move the
 * numerics.* counters as far as the first. A row that takes sized or
 * floating-point input also meets the shared edge classes. Each row is
 * its own ctest, under the name of the test it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "autotune/surrogate.h"
#include "copy_executor.h"
#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/simd_gemm.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "host/compression.h"
#include "host/sha256.h"
#include "models/model_zoo.h"
#include "ops/gemm_kernels.h"
#include "ops/sparse_ops.h"
#include "pe/dpe.h"
#include "pe/simd_engine.h"
#include "reference_surrogate.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "tensor/dtype.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

// ------------------------------------------------------------ harness

/** Bytes a path produced. */
using Output = std::vector<std::uint8_t>;

void
append(Output &)
{
}

/** Appends the bytes of each argument: a tensor's shape and payload,
 *  a contiguous container's elements, or a trivially copyable value. */
template <typename T, typename... Rest>
void
append(Output &out, const T &v, const Rest &...rest)
{
    if constexpr (std::is_same_v<T, Tensor>) {
        append(out, v.shape().dims(), v.raw());
    } else if constexpr (std::is_same_v<T, QuantizedTensor>) {
        append(out, v.values, v.scales, v.group_rows);
    } else if constexpr (requires { v.data(); v.size(); }) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(v.data());
        out.insert(out.end(), p, p + v.size() * sizeof(*v.data()));
    } else {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        out.insert(out.end(), p, p + sizeof v);
    }
    append(out, rest...);
}

template <typename... Ts>
Output
bytesOf(const Ts &...vs)
{
    Output out;
    append(out, vs...);
    return out;
}

/** One input of a row: the fast path, run under the tier and lane
 *  count the harness sets, and its reference. */
struct Case
{
    std::string input;
    std::function<Output()> fast;
    std::function<Output()> reference;
};
using Cases = std::vector<Case>;

/** A case whose reference is @p fn on the scalar tier at one lane. */
Case
sameAsScalar(std::string input, std::function<Output()> fn)
{
    return {std::move(input), fn, fn};
}

/** A case whose reference is the recorded @p want. */
Case
pinned(std::string input, std::function<Output()> fn, Output want)
{
    return {std::move(input), std::move(fn),
            [want = std::move(want)] { return want; }};
}

/** The reference of an input the contract rejects with an MTIA_CHECK. */
Output
checkedFailure()
{
    throw CheckFailedError("the contract rejects this input");
}

Output
hexBytes(const std::string &hex)
{
    return Output(hex.begin(), hex.end());
}

/**
 * A shared edge class: a length (0 and 1, and one either side of each
 * tier's vector width at 4, 8, 16 and 32 lanes), or a value planted in
 * 33 elements (a full lane group and a tail on every tier).
 */
struct Edge
{
    std::string name;
    std::size_t n;
    std::optional<float> value;
};

const std::vector<Edge> &
edgeClasses()
{
    static const std::vector<Edge> edges = [] {
        std::vector<Edge> e;
        for (const std::size_t n :
             {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u})
            e.push_back({"n=" + std::to_string(n), n, std::nullopt});
        const std::pair<const char *, std::uint32_t> values[] = {
            {"qnan", 0x7fc00000u},       {"-nan-payload", 0xffc00001u},
            {"snan", 0x7f800001u},       {"+inf", 0x7f800000u},
            {"-inf", 0xff800000u},       {"-0", 0x80000000u},
            {"denorm-min", 0x00000001u}, {"-denorm-max", 0x807fffffu},
            {"+max", 0x7f7fffffu},       {"-max", 0xff7fffffu}};
        for (const auto &[name, bits] : values)
            e.push_back({name, 33, std::bit_cast<float>(bits)});
        return e;
    }();
    return edges;
}

/** e.n Gaussian floats (seeded by the class); a value class sets its
 *  value at the first, middle and last element. */
std::vector<float>
edgeFloats(const Edge &e, double sigma = 1.0)
{
    Rng rng(0xED6E + e.n * 131 + (e.value ? 7 : 0));
    std::vector<float> v(e.n);
    for (float &x : v)
        x = static_cast<float>(rng.gaussian(0.0, sigma));
    if (e.value && e.n > 0)
        v[0] = v[e.n / 2] = v[e.n - 1] = *e.value;
    return v;
}

/** A value class's float bytes, or e.n Gaussian bytes. */
ByteBuffer
edgeBytes(const Edge &e)
{
    const std::vector<float> v = edgeFloats(e, 40.0);
    if (e.value)
        return bytesOf(v);
    ByteBuffer out(e.n);
    for (std::size_t i = 0; i < e.n; ++i)
        out[i] = static_cast<std::uint8_t>(static_cast<int>(v[i]));
    return out;
}

/** The one list of tiers: every SimdIsa this machine supports. */
std::vector<simd::SimdIsa>
supportedTiers()
{
    std::vector<simd::SimdIsa> tiers;
    for (const simd::SimdIsa isa :
         {simd::SimdIsa::Scalar, simd::SimdIsa::Sse2, simd::SimdIsa::Neon,
          simd::SimdIsa::Avx2, simd::SimdIsa::Avx512}) {
        if (simd::isaSupported(isa))
            tiers.push_back(isa);
    }
    return tiers;
}

struct Row
{
    const char *suite;
    const char *name;
    /** The lane counts the fast path runs at; 0 is the ambient count. */
    std::vector<unsigned> lanes;
    Cases (*cases)();
    /** Cases for one edge class; null for rows whose input is a whole
     *  model, a recorded stream or an event script. */
    Cases (*edge)(const Edge &) = nullptr;
};

/** A path's bytes, or nullopt when it failed an MTIA_CHECK. */
std::optional<Output>
outcome(const std::function<Output()> &path)
{
    try {
        return path();
    } catch (const CheckFailedError &) {
        return std::nullopt;
    }
}

std::string
describe(const std::optional<Output> &out)
{
    return out ? std::to_string(out->size()) + " bytes" : "checked failure";
}

std::array<std::uint64_t, 4>
numericsCounters()
{
    return {numerics::bytesConverted(), numerics::bytesCompressed(),
            numerics::gatherRows(), numerics::gemmFlops()};
}

void
runRow(const Row &row)
{
    const ScopedCheckThrow guard;
    Cases cases = row.cases();
    for (const Edge &e : row.edge ? edgeClasses() : std::vector<Edge>{}) {
        for (Case &c : row.edge(e)) {
            c.input = e.name + ", " + c.input;
            cases.push_back(std::move(c));
        }
    }
    std::vector<std::optional<Output>> want;
    {
        const simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
        const ScopedParallelism one(1);
        for (const Case &c : cases)
            want.push_back(outcome(c.reference));
    }
    std::optional<std::array<std::uint64_t, 4>> want_delta;
    int reported = 0;
    for (const simd::SimdIsa isa : supportedTiers()) {
        for (const unsigned lanes : row.lanes) {
            const simd::ScopedIsa tier(isa);
            std::optional<ScopedParallelism> fan_out;
            if (lanes > 0)
                fan_out.emplace(lanes);
            const std::string at = std::string(", tier ") +
                simd::isaName(isa) + ", lanes " + std::to_string(lanes);
            std::array<std::uint64_t, 4> delta = numericsCounters();
            for (std::size_t i = 0; i < cases.size(); ++i) {
                const std::optional<Output> got = outcome(cases[i].fast);
                if (got != want[i] && reported++ < 10)
                    ADD_FAILURE() << cases[i].input << at << ": "
                                  << describe(got) << " differ from the "
                                  << describe(want[i]) << " wanted";
            }
            const std::array<std::uint64_t, 4> after = numericsCounters();
            for (std::size_t k = 0; k < delta.size(); ++k)
                delta[k] = after[k] - delta[k];
            if (!want_delta)
                want_delta = delta;
            EXPECT_EQ(delta, *want_delta)
                << "numerics counter deltas (converted, compressed, "
                   "gathered, flops)"
                << at;
        }
    }
}

// -------------------------------------------------------- dtype rows

/** convertBuffer of fp32 into 16-bit floats or back: the fast path,
 *  or with @p ref scalar::convertBuffer. */
template <typename From>
Output
convert(const std::vector<From> &src, DType dt, bool ref)
{
    using To = std::conditional_t<std::is_same_v<From, float>,
                                  std::uint16_t, float>;
    std::vector<To> dst(src.size());
    if (ref)
        scalar::convertBuffer(src.data(), dst.data(), src.size(), dt);
    else
        convertBuffer(src.data(), dst.data(), src.size(), dt);
    return bytesOf(dst);
}

/** convertBuffer against scalar::convertBuffer, or against the
 *  per-element function @p elem when one is given. */
template <typename From, typename Elem = std::nullptr_t>
Case
conversion(std::string input, std::vector<From> src, DType dt,
           Elem elem = nullptr)
{
    const auto in = std::make_shared<const std::vector<From>>(std::move(src));
    const auto fast = [in, dt] { return convert(*in, dt, false); };
    if constexpr (std::is_null_pointer_v<Elem>) {
        return {std::move(input), fast,
                [in, dt] { return convert(*in, dt, true); }};
    } else {
        return {std::move(input) + " per element", fast, [in, elem] {
                    std::vector<decltype(elem(From{}))> out;
                    for (const From x : *in)
                        out.push_back(elem(x));
                    return bytesOf(out);
                }};
    }
}

/** convertBuffer of @p src must give the recorded @p want. */
template <typename From, typename To>
Case
anchors(std::string input, std::vector<From> src, DType dt,
        std::vector<To> want)
{
    return pinned(std::move(input),
                  [src, dt] { return convert(src, dt, false); },
                  bytesOf(want));
}

std::vector<std::uint16_t>
halves(const std::vector<float> &src, DType dt)
{
    std::vector<std::uint16_t> h(src.size());
    scalar::convertBuffer(src.data(), h.data(), src.size(), dt);
    return h;
}

std::vector<std::uint16_t>
allHalfPatterns()
{
    std::vector<std::uint16_t> bits(1 << 16);
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = static_cast<std::uint16_t>(i);
    return bits;
}

/**
 * The F16C kernel called directly on the active tier: a leading byte
 * says whether it ran exactly on the AVX tiers, then its output, or
 * the per-element conversion's where it did not run (uncounted, as the
 * kernel is).
 */
template <typename From>
Case
f16cDirect(std::string input, std::vector<From> src)
{
    const auto in = std::make_shared<const std::vector<From>>(std::move(src));
    const auto run = [in](bool reference) {
        using To = std::conditional_t<std::is_same_v<From, float>,
                                      std::uint16_t, float>;
        const simd::SimdIsa isa = simd::activeIsa();
        std::vector<To> dst(in->size());
        bool ran = false;
        if constexpr (std::is_same_v<From, float>) {
            if (!reference)
                ran = simd::f16cNarrow(isa, in->data(), dst.data(), dst.size());
            for (std::size_t i = 0; !ran && i < dst.size(); ++i)
                dst[i] = fp32ToFp16Bits((*in)[i]);
        } else {
            if (!reference)
                ran = simd::f16cWiden(isa, in->data(), dst.data(), dst.size());
            for (std::size_t i = 0; !ran && i < dst.size(); ++i)
                dst[i] = fp16BitsToFp32((*in)[i]);
        }
        const bool avx = isa == simd::SimdIsa::Avx2 ||
            isa == simd::SimdIsa::Avx512;
        return bytesOf(reference || ran == avx, dst);
    };
    return {std::move(input), [run] { return run(false); },
            [run] { return run(true); }};
}

/** The fp32 specials every conversion path must agree on. */
const std::vector<float> kSpecialFloats = {
    0.0f, -0.0f, 1.0f, -1.0f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::signaling_NaN(),
    65504.0f,         // fp16 max normal
    -65504.0f,
    65519.9f,         // rounds to fp16 max normal
    65520.0f,         // first value rounding to fp16 inf
    1e30f,            // far overflow
    6.103515625e-5f,  // 2^-14, smallest fp16 normal
    6.0975552e-5f,    // just below: fp16 denormal range
    5.9604645e-8f,    // 2^-24, smallest fp16 denormal
    2.9802322e-8f,    // 2^-25: ties to even (zero)
    2.9802326e-8f,    // just above 2^-25: rounds up
    1e-40f,           // fp32 denormal, flushes to fp16 zero
    std::numeric_limits<float>::denorm_min(),
    0.1f, 0.5f, 1.5f, 2.5f, // RTNE tie patterns after scaling
    3.14159265f,
};

/** Narrowing to @p dt and widening back, on one edge class. */
template <DType dt>
Cases
conversionEdge(const Edge &e)
{
    const std::vector<float> f = edgeFloats(e, 100.0);
    return {conversion("narrow", f, dt), conversion("widen", halves(f, dt), dt)};
}

Cases
fp16Specials()
{
    const std::vector<float> s = kSpecialFloats;
    return {conversion("specials", s, DType::FP16),
            conversion("specials", s, DType::FP16, fp32ToFp16Bits),
            anchors("anchors",
                    std::vector<float>{0.0f, -0.0f, 65504.0f, 65520.0f,
                                       2.9802322e-8f, 2.9802326e-8f, 1e-40f,
                                       std::bit_cast<float>(0x7fc00000u)},
                    DType::FP16,
                    std::vector<std::uint16_t>{0x0000, 0x8000, 0x7bff, 0x7c00,
                                               0x0000, 0x0001, 0x0000,
                                               0x7e00})};
}

Cases
bf16Specials()
{
    // Exact RTNE ties (low half 0x8000) round to even; a NaN keeps its
    // payload.
    const std::vector<float> ties = {std::bit_cast<float>(0x3f808000u),
                                     std::bit_cast<float>(0x3f818000u),
                                     std::bit_cast<float>(0x7fa00001u)};
    std::vector<float> s = kSpecialFloats;
    s.insert(s.end(), ties.begin(), ties.end());
    return {conversion("specials", s, DType::BF16),
            conversion("specials", s, DType::BF16, fp32ToBf16Bits),
            anchors("ties and payload", ties, DType::BF16,
                    std::vector<std::uint16_t>{0x3f80, 0x3f82, 0x7fe0})};
}

Cases
fp16Widen()
{
    return {conversion("all halves", allHalfPatterns(), DType::FP16),
            conversion("all halves", allHalfPatterns(), DType::FP16,
                       fp16BitsToFp32),
            anchors("inf, -0, smallest denormal",
                    std::vector<std::uint16_t>{0x7c00, 0x8000, 0x0001},
                    DType::FP16,
                    std::vector<std::uint32_t>{0x7f800000u, 0x80000000u,
                                               0x33800000u})};
}

Cases
bf16Widen()
{
    return {conversion("all halves", allHalfPatterns(), DType::BF16),
            conversion("all halves", allHalfPatterns(), DType::BF16,
                       bf16BitsToFp32)};
}

Cases
millionElements()
{
    constexpr std::size_t kN = std::size_t{1} << 20;
    Rng rng(77);
    std::vector<float> src(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        // Span the whole exponent range, specials included.
        const double mag = rng.uniform(-44.0, 44.0);
        src[i] =
            static_cast<float>(rng.gaussian(0.0, 1.0) * std::pow(10.0, mag));
        if (i % 997 == 0)
            src[i] = std::numeric_limits<float>::quiet_NaN();
        if (i % 991 == 0)
            src[i] = std::numeric_limits<float>::infinity();
    }
    return {conversion("fp16", src, DType::FP16),
            conversion("bf16", src, DType::BF16),
            conversion("fp16 widen", halves(src, DType::FP16), DType::FP16)};
}

Cases
bothHalfEdges(const Edge &e)
{
    Cases c = conversionEdge<DType::FP16>(e);
    for (Case &b : conversionEdge<DType::BF16>(e))
        c.push_back(std::move(b));
    return c;
}

/**
 * Every half widened at several start offsets and lengths (unaligned
 * loads, every tail length); a narrowing sweep over each half's value,
 * the exact ties around it, their fp32 neighbours, the subnormal and
 * overflow edges, and NaN payloads of both kinds. convertBuffer, and
 * the F16C kernel called directly.
 */
Cases
f16cSweep()
{
    std::vector<float> narrow;
    const auto add = [&](std::uint32_t bits) {
        narrow.push_back(std::bit_cast<float>(bits));
    };
    for (const std::uint32_t sign : {0u, 0x80000000u}) {
        for (std::uint16_t h = 0; h < 0x7c00u; ++h) {
            const float lo = fp16BitsToFp32(h);
            const float hi = fp16BitsToFp32(static_cast<std::uint16_t>(h + 1));
            const auto tie = std::bit_cast<std::uint32_t>((lo + hi) * 0.5f);
            for (const std::uint32_t b :
                 {std::bit_cast<std::uint32_t>(lo), tie - 1, tie, tie + 1})
                add(b | sign);
        }
        // Below the smallest subnormal: 2^-25 ties to zero, anything
        // above it rounds up; fp32 denormals flush.
        for (const std::uint32_t b :
             {0x33000000u, 0x33000001u, 0x32ffffffu, 0x00000001u,
              0x007fffffu, 0x387fffffu, 0x38800000u, 0x477fefffu,
              0x477ff000u, 0x477fffffu, 0x47800000u, 0x7f800000u})
            add(b | sign);
        // NaNs: every top-ten payload, quiet and signalling, with and
        // without low payload bits the narrowing drops.
        for (std::uint32_t top = 0; top < 0x400u; ++top) {
            for (const std::uint32_t low : {0x0u, 0x1u, 0x1fffu}) {
                if (((top << 13) | low) != 0)
                    add(sign | 0x7f800000u | (top << 13) | low);
            }
        }
    }
    const std::vector<std::uint16_t> all = allHalfPatterns();
    Cases cases;
    for (const std::ptrdiff_t start : {0, 1, 3, 7}) {
        for (const std::ptrdiff_t trim : {0, 1, 5}) {
            const std::vector<std::uint16_t> part(all.begin() + start,
                                                  all.end() - trim);
            const std::string in = "widen start " + std::to_string(start) +
                " trim " + std::to_string(trim);
            cases.push_back(conversion(in, part, DType::FP16));
            cases.push_back(f16cDirect(in + " f16c", part));
        }
    }
    for (const std::ptrdiff_t start : {0, 5}) {
        const std::vector<float> part(narrow.begin() + start, narrow.end());
        const std::string in = "narrow start " + std::to_string(start);
        cases.push_back(conversion(in, part, DType::FP16));
        cases.push_back(f16cDirect(in + " f16c", part));
    }
    return cases;
}

Cases
f16cEdge(const Edge &e)
{
    const std::vector<float> f = edgeFloats(e, 100.0);
    return {f16cDirect("narrow f16c", f),
            f16cDirect("widen f16c", halves(f, DType::FP16))};
}

// ----------------------------------------------------- quantize rows

/** Every dynamic granularity on @p src, as FP32 and cast to FP16:
 *  quantizeDynamic + dequantize against the scalar:: twins. */
Cases
dynamicQuant(const std::string &input, const Tensor &src)
{
    struct Granularity
    {
        const char *name;
        QuantGranularity g;
        std::int64_t rows;
    };
    Cases cases;
    for (const Tensor &t : {src, src.cast(DType::FP16)}) {
        const auto in = std::make_shared<const Tensor>(t);
        for (const Granularity q :
             {Granularity{"per-tensor", QuantGranularity::PerTensor, 1},
              Granularity{"per-row", QuantGranularity::PerRow, 1},
              Granularity{"group 4", QuantGranularity::PerRowGroup, 4},
              Granularity{"group 16", QuantGranularity::PerRowGroup, 16}}) {
            cases.push_back(
                {input + " " + dtypeName(t.dtype()) + " " + q.name,
                 [in, q] {
                     const QuantizedTensor v = quantizeDynamic(*in, q.g, q.rows);
                     return bytesOf(v, dequantize(v));
                 },
                 [in, q] {
                     const QuantizedTensor v =
                         scalar::quantizeDynamic(*in, q.g, q.rows);
                     return bytesOf(v, scalar::dequantize(v));
                 }});
        }
    }
    return cases;
}

/** quantizeStatic (full range and 99th percentile) + dequantize. */
Case
staticQuant(std::string input, const Tensor &src)
{
    const auto in = std::make_shared<const Tensor>(src);
    return sameAsScalar(std::move(input), [in] {
        const QuantizedTensor full = quantizeStatic(*in);
        const QuantizedTensor clipped = quantizeStatic(*in, 99.0);
        return bytesOf(full, dequantize(full), clipped, dequantize(clipped));
    });
}

/** A 2 x e.n tensor: the class's floats, then a plain row. */
Tensor
edgeTensor(const Edge &e)
{
    std::vector<float> v = edgeFloats(e, 3.0);
    const std::vector<float> plain = edgeFloats(Edge{"", e.n, {}}, 2.0);
    v.insert(v.end(), plain.begin(), plain.end());
    return Tensor::fromFloats(v, Shape{2, static_cast<std::int64_t>(e.n)},
                              DType::FP32);
}

Cases
dynamicGranularities()
{
    // Odd shape so every kernel tail path runs; a zero row and an
    // outlier row stress the scale guard and the clamp.
    Rng rng(11);
    Tensor act(Shape{37, 129}, DType::FP32);
    act.fillGaussian(rng, 0.0f, 3.0f);
    for (std::int64_t k = 0; k < 129; ++k)
        act.set(5 * 129 + k, 0.0f);
    act.set(7 * 129 + 3, 6e4f); // finite in fp16 as well
    Cases cases = dynamicQuant("37x129", act);
    act.set(7 * 129 + 3, 1e6f); // inf in fp16: rejected there
    for (Case &c : dynamicQuant("37x129 1e6 outlier", act))
        cases.push_back(std::move(c));
    return cases;
}

Cases
dynamicEdge(const Edge &e)
{
    return dynamicQuant("", edgeTensor(e));
}

Cases
staticOutliers()
{
    Rng rng(13);
    Tensor w(Shape{64, 64}, DType::FP32);
    w.fillGaussian(rng);
    w.set(0, 1e8f); // outlier far beyond the percentile clip
    Tensor w16 = w.cast(DType::FP16);
    w16.set(0, 6e4f); // finite in fp16, like every quantizer input
    // The clipped outlier pins to +127, not wrap (the int32 overflow
    // case the float-domain pre-clamp guards against).
    const auto saturated = [w] {
        const QuantizedTensor q = quantizeStatic(w, 99.0);
        return bytesOf(q.values.raw()[0], sqnrDb(w, dequantize(q)) > 0.0);
    };
    return {staticQuant("64x64 fp32", w), staticQuant("64x64 fp16", w16),
            pinned("outlier saturates", saturated,
                   bytesOf(std::uint8_t{127}, true))};
}

Cases
staticEdge(const Edge &e)
{
    const Tensor t = edgeTensor(e);
    return {staticQuant("fp32", t), staticQuant("fp16", t.cast(DType::FP16))};
}

/**
 * Without the check, inf * 0 and NaN reach the int8 cast and the
 * payload bytes differ by tier. Element 3 sits in the first vector
 * lane group; element 13 in the second row. Finite input quantizes.
 */
Cases
nonFiniteRejected()
{
    Cases cases;
    const auto add = [&](const std::string &in, const Tensor &t, bool ok) {
        const std::pair<const char *, std::function<QuantizedTensor()>>
            quantizers[] = {
                {"dynamic per-tensor",
                 [t] {
                     return quantizeDynamic(t, QuantGranularity::PerTensor);
                 }},
                {"dynamic per-row",
                 [t] { return quantizeDynamic(t, QuantGranularity::PerRow); }},
                {"scalar dynamic",
                 [t] {
                     return scalar::quantizeDynamic(
                         t, QuantGranularity::PerTensor);
                 }},
                {"static", [t] { return quantizeStatic(t); }},
                {"static p99", [t] { return quantizeStatic(t, 99.0); }}};
        for (const auto &[name, q] : quantizers) {
            const std::function<Output()> run = [q] { return bytesOf(q()); };
            cases.push_back(
                {in + " " + name, run, ok ? run : checkedFailure});
        }
    };
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()}) {
        for (const std::size_t at : {3u, 13u, 15u}) {
            std::vector<float> vals(16, 0.25f);
            vals[at] = bad;
            add(std::to_string(bad) + " at " + std::to_string(at),
                Tensor::fromFloats(vals, Shape{2, 8}, DType::FP32), false);
        }
    }
    add("finite",
        Tensor::fromFloats(std::vector<float>(16, 0.25f), Shape{2, 8},
                           DType::FP32),
        true);
    return cases;
}

// -------------------------------------------------------- codec rows

/** Seeded input of one of six kinds: INT8 narrow (0) and wide (1)
 *  spectrum, FP16 weights (2), 16-byte feature records (3), all-equal
 *  bytes (4) and uniform random bytes (5). */
ByteBuffer
pinnedCodecInput(int kind, std::size_t n)
{
    Rng rng = Rng(4099).fork(static_cast<std::uint64_t>(kind) * 1000003 + n);
    ByteBuffer out(n);
    if (n == 0)
        return out; // an empty buffer's data() may be null

    const auto int8 = [&](double sigma) {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(static_cast<std::int8_t>(
                std::clamp(std::round(rng.gaussian(0.0, sigma)), -128.0,
                           127.0)));
    };
    switch (kind) {
    case 0:
        int8(3.0);
        break;
    case 1:
        int8(45.0);
        break;
    case 2: {
        std::vector<float> w((n + 1) / 2);
        for (float &x : w)
            x = static_cast<float>(rng.gaussian(0.0, 0.02));
        std::vector<std::uint16_t> half(w.size());
        convertBuffer(w.data(), half.data(), w.size(), DType::FP16);
        std::memcpy(out.data(), half.data(), n);
        break;
    }
    case 3: {
        const ZipfSampler users(100'000, 1.1);
        const ZipfSampler items(20'000, 0.9);
        ByteBuffer records((n + 15) / 16 * 16);
        for (std::size_t off = 0; off < records.size(); off += 16) {
            const std::uint32_t fields[4] = {
                static_cast<std::uint32_t>(users.sample(rng)),
                static_cast<std::uint32_t>(items.sample(rng)),
                static_cast<std::uint32_t>(rng.below(24)),
                static_cast<std::uint32_t>(rng.poisson(2.0))};
            std::memcpy(&records[off], fields, 16);
        }
        std::memcpy(out.data(), records.data(), n);
        break;
    }
    case 4:
        std::fill(out.begin(), out.end(), std::uint8_t{0x5a});
        break;
    default:
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
    return out;
}

/** rANS v2, rANS v1, LZ chain and LZ greedy streams of @p in; each
 *  must decode back to @p in. */
std::array<ByteBuffer, 4>
codecStreams(const ByteBuffer &in)
{
    std::array<ByteBuffer, 4> s = {
        RansCodec::compress(in, RansFormat::V2Interleaved),
        RansCodec::compress(in, RansFormat::V1Scalar),
        LzCodec::compress(in), LzCodec::compressGreedy(in)};
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(k < 2 ? RansCodec::decompress(s[k])
                        : LzCodec::decompress(s[k]),
                  in)
            << in.size() << " bytes, stream " << k
            << " (0 rANS v2, 1 rANS v1, 2 LZ chain, 3 LZ greedy)";
    }
    return s;
}

/**
 * One SHA-256 per (input kind, stream) over every size's stream, each
 * prefixed by its length. The rANS and greedy LZ digests were recorded
 * from the byte-at-a-time codecs (rANS with per-symbol division, LZ
 * with a byte compare loop), so a fast path that changes any stream
 * byte fails here. The LZ chain digests (column 2) were recorded from
 * the matcher with its miss-run stride: the stride changed kinds 0, 1,
 * 2 and 5, and kinds 3 and 4 kept the digests of the matcher that
 * searched every position. The digests are taken on the scalar tier,
 * so they do not depend on the SHA-NI path either.
 */
Cases
pinnedStreams()
{
    static constexpr std::size_t kSizes[] = {
        0, 1, 3, 4, 5, 63, 64, 65, 65535, 65536, 65537, 524288};
    static constexpr const char *kPinned[6][4] = {
        {"34e7203bf72f099d2c6ac6540ca2de61e2fd5d4d1a7144c36e41df9c7470de69",
         "26c62197d0b123dc5e861d87a2df35efa87986c87e6611b20ec31e6a4c682c6d",
         "e28a37bb5512df9219b1d02fba2fa3c8a9543d98ea1bc3b83cd9d3c6ae96a075",
         "48ca76223a9bbcc14c543284d607e4d5a34a643783d585ba58f2b028c88242ce"},
        {"8e023e8cd5936fbbe2b0e4099bc449f9189c68a4de849cb926d168770069faa4",
         "7071a10517983acd9eee5de1a04e873b93e51cba64492583e6d60e76cf67ba3b",
         "6758069140b81f2bd5e73a86c0fb06db3345d17d7afff11b624b9c48e4d606bb",
         "f9a15fc29b212cb271378bb70355e5fa565c72d61095613ac6ebeb480d22b295"},
        {"0a555c6cab83fabfc59218c084ed2fdf59a138573488a458547a61be15d4c32f",
         "0dfeef7919b39185e8c411a739c4e493c42a9ee705dd3c1f7d82bd7fbca48684",
         "69921a440078e9842f34b61b92cd7ea554c15851c8b8d7bf2efd77211aa5d413",
         "ad4fd1087fc73a5761c8c5ecb52bd5f1b489869ef6e9868c92e0e92e56e4e541"},
        {"4aad5cfce2ec14f1a9653061d86583a88039ff67a6d22411922a1df382e5dd64",
         "ab9084e45f5067dfda5df4c94bf3d5895b56e632e9d48643e926da2a2fca0201",
         "23ed1ca329829ee0e570a65596f9faa8d851331ced2a84c5b9c5ba8a79b3aedb",
         "3ad30d61f0ed894882cd8b5ceff9497b0757538cd549c554e28d065046f7cf62"},
        {"5215e38cbc4a81775cc231c617b056b6c30247c8c41403d48eb17a430fb06b32",
         "6d32dddd59d939e94d18979bef637f1a7aa2dde6d435cf9250b6fbfc53c7c128",
         "55ace9c208a286674774e3e9b784f3a4c10c0b2d62059ce09ba79f2994d4fe38",
         "55ace9c208a286674774e3e9b784f3a4c10c0b2d62059ce09ba79f2994d4fe38"},
        {"278bcce7aefca10485296433db3d24844c8fd7c459b2a4efa03984daa2dc5fe8",
         "0e875ff22e93d26ca98263fd7d9582ce33b141d4335a56a022bded1fdea419fd",
         "c7b2b0bcee8d977c14d0f692a5eca1b79a9d7a055e48c98de91ba507f16c3cd3",
         "5fc4e995ce44ea354e3ba37dbc9420f18e88eb842c9d7e093bf3cced4d8dd7a6"},
    };
    Cases cases;
    for (int kind = 0; kind < 6; ++kind) {
        const auto digests = [kind] {
            std::array<Sha256, 4> digest;
            for (const std::size_t n : kSizes) {
                const auto streams = codecStreams(pinnedCodecInput(kind, n));
                const simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
                for (int s = 0; s < 4; ++s) {
                    const std::uint64_t len = streams[s].size();
                    digest[s].update(bytesOf(len));
                    digest[s].update(streams[s]);
                }
            }
            const simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
            std::string hex;
            for (Sha256 &d : digest)
                hex += Sha256::hex(d.finish()) + " ";
            return hexBytes(hex);
        };
        std::string want;
        for (const char *d : kPinned[kind])
            want += std::string(d) + " ";
        cases.push_back(pinned("kind " + std::to_string(kind) +
                                   " (rANS v2, rANS v1, LZ chain, LZ greedy)",
                               digests, hexBytes(want)));
    }
    return cases;
}

Cases
streamsEdge(const Edge &e)
{
    const ByteBuffer in = edgeBytes(e);
    return {sameAsScalar("streams", [in] {
        const auto s = codecStreams(in);
        return bytesOf(s[0], s[1], s[2], s[3]);
    })};
}

// ---------------------------------------------------------- SHA rows

/** One shot and ragged chunks against the portable round loop (the
 *  scalar tier's one-shot digest). */
Cases
shaCases(const std::string &input, std::vector<std::uint8_t> data)
{
    const auto in = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(data));
    const auto once = [in] { return bytesOf(Sha256::hash(*in)); };
    Cases cases = {{input, once, once}};
    for (const std::size_t chunk : {1, 63, 64, 65, 1000}) {
        cases.push_back({input + " in chunks of " + std::to_string(chunk),
                         [in, chunk] {
                             Sha256 inc;
                             for (std::size_t p = 0; p < in->size(); p += chunk)
                                 inc.update(in->data() + p,
                                            std::min(chunk, in->size() - p));
                             return bytesOf(inc.finish());
                         },
                         once});
    }
    return cases;
}

Cases
shaEdge(const Edge &e)
{
    return shaCases("sha", edgeBytes(e));
}

Cases
fipsVectors()
{
    const auto hex = [](std::string msg) {
        return [msg] { return hexBytes(Sha256::hex(Sha256::hash(msg))); };
    };
    const auto million_a = [] {
        Sha256 h;
        const std::string chunk(1000, 'a');
        for (int i = 0; i < 1000; ++i)
            h.update(chunk);
        return hexBytes(Sha256::hex(h.finish()));
    };
    return {
        pinned("empty", hex(""),
               hexBytes("e3b0c44298fc1c149afbf4c8996fb924"
                        "27ae41e4649b934ca495991b7852b855")),
        pinned("abc", hex("abc"),
               hexBytes("ba7816bf8f01cfea414140de5dae2223"
                        "b00361a396177a9cb410ff61f20015ad")),
        pinned("448 bits",
               hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
               hexBytes("248d6a61d20638b8e5c026930c3e6039"
                        "a33ce45964ff2167f6ecedd419db06c1")),
        pinned("a million a's", million_a,
               hexBytes("cdc76e5c9914fb9281a1c7e284d73e67"
                        "f1809a48a497200e046d39ccc7112cd0"))};
}

Cases
shaIncremental()
{
    Rng rng(77);
    std::vector<std::uint8_t> data(100000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::size_t> takes;
    for (std::size_t pos = 0; pos < data.size(); pos += takes.back())
        takes.push_back(
            std::min<std::size_t>(1 + rng.below(999), data.size() - pos));
    return {{"ragged updates",
             [data, takes] {
                 Sha256 inc;
                 std::size_t pos = 0;
                 for (const std::size_t t : takes) {
                     inc.update(data.data() + pos, t);
                     pos += t;
                 }
                 return bytesOf(inc.finish());
             },
             [data] { return bytesOf(Sha256::hash(data)); }}};
}

Cases
shaLengths()
{
    // Every length 0..300 (each padding case: tails of 0..63 bytes,
    // 55/56/64 at the length-field boundary) and 1 MiB.
    Rng rng(81);
    Cases cases;
    for (std::size_t n = 0; n <= 301; ++n) {
        std::vector<std::uint8_t> data(n <= 300 ? n : std::size_t{1} << 20);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        const std::string in = std::to_string(data.size()) + " bytes";
        for (Case &c : shaCases(in, std::move(data)))
            cases.push_back(std::move(c));
    }
    return cases;
}

// ------------------------------------------------------- gather rows

/** gatherAccumulate against gatherAccumulateScalar: @p count rows of a
 *  pool of @p dim-wide rows, each with a weight in [0.5, 1.5). */
Case
gather(std::string input, std::vector<float> pool, std::int64_t dim,
       std::size_t count, Rng &rng)
{
    const auto d = static_cast<std::size_t>(dim);
    const std::size_t pool_rows = d > 0 ? pool.size() / d : 1;
    std::vector<std::size_t> rows;
    std::vector<float> weights;
    for (std::size_t p = 0; p < count; ++p) {
        rows.push_back(rng.below(pool_rows));
        weights.push_back(static_cast<float>(rng.uniform(0.5, 1.5)));
    }
    const auto run = [pool = std::move(pool), rows, weights, d,
                      dim](bool ref) {
        std::vector<const float *> ptrs;
        for (const std::size_t r : rows)
            ptrs.push_back(pool.data() + r * d);
        std::vector<float> out(d, 0.0f);
        if (ref)
            tbe_kernels::gatherAccumulateScalar(ptrs.data(), weights.data(),
                                                ptrs.size(), dim, out.data());
        else
            tbe_kernels::gatherAccumulate(ptrs.data(), weights.data(),
                                          ptrs.size(), dim, out.data());
        return bytesOf(out);
    };
    return {std::move(input), [run] { return run(false); },
            [run] { return run(true); }};
}

Cases
gatherDims()
{
    Rng rng(29);
    Cases cases;
    for (const std::int64_t dim : {1, 3, 4, 8, 11, 64, 103}) {
        std::vector<float> pool(64 * static_cast<std::size_t>(dim));
        for (float &v : pool)
            v = static_cast<float>(rng.gaussian(0.0, 0.3));
        for (const std::size_t count : {0u, 1u, 7u, 256u})
            cases.push_back(gather("dim " + std::to_string(dim) + " count " +
                                       std::to_string(count),
                                   pool, dim, count, rng));
    }
    // TbeOp::run resolves the tier once for all of its bags.
    cases.push_back(sameAsScalar("TbeOp::run", [] {
        const TbeOp tbe(
            TbeTableSpec{.tables = 2, .rows_per_table = 1000, .dim = 11}, 3,
            5, true);
        Rng op_rng(31);
        OpContext ctx{.rng = &op_rng};
        return bytesOf(tbe.run({}, ctx));
    }));
    return cases;
}

Cases
gatherEdge(const Edge &e)
{
    // A pool of four e.n-wide rows, the class's value in row 0.
    std::vector<float> pool = edgeFloats(e, 0.3);
    for (int r = 1; r < 4; ++r) {
        const std::vector<float> row = edgeFloats(Edge{"", e.n, {}}, 0.3 * r);
        pool.insert(pool.end(), row.begin(), row.end());
    }
    Rng rng(0x6A7 + e.n);
    const auto dim = static_cast<std::int64_t>(e.n);
    return {gather("count 1", pool, dim, 1, rng),
            gather("count 9", pool, dim, 9, rng)};
}

// --------------------------------------------------------- GEMM rows

struct GemmShape
{
    std::int64_t m, n, k;

    std::string
    name() const
    {
        return std::to_string(m) + "x" + std::to_string(n) + "x" +
            std::to_string(k);
    }
};

/** An m x k and a k x n Gaussian FP32 operand. */
std::pair<Tensor, Tensor>
operands(const GemmShape &s, Rng &rng)
{
    std::pair<Tensor, Tensor> ab{Tensor(Shape{s.m, s.k}, DType::FP32),
                                 Tensor(Shape{s.k, s.n}, DType::FP32)};
    ab.first.fillGaussian(rng);
    ab.second.fillGaussian(rng);
    return ab;
}

/**
 * Writes raw element bits into @p t at flat index @p i: FP32 takes
 * all 32 bits, FP16/BF16 the low 16.
 */
void
setBits(Tensor &t, std::int64_t i, std::uint32_t bits)
{
    std::uint8_t *p = t.raw().data() + i * dtypeSize(t.dtype());
    if (t.dtype() == DType::FP32) {
        std::memcpy(p, &bits, 4);
    } else {
        const auto h = static_cast<std::uint16_t>(bits);
        std::memcpy(p, &h, 2);
    }
}

using Operands = std::shared_ptr<const std::pair<Tensor, Tensor>>;

Operands
share(const Tensor &a, const Tensor &b)
{
    return std::make_shared<const std::pair<Tensor, Tensor>>(a, b);
}

/** gemm_kernels::gemm on the active tier against DotProductEngine. */
Case
gemmCase(std::string input, Operands ab, DType dt,
         simd::GemmBlocking blk = {})
{
    return {std::move(input),
            [ab, dt, blk] {
                return bytesOf(gemm_kernels::gemm(ab->first, ab->second, dt,
                                                  simd::activeIsa(), blk));
            },
            [ab, dt] {
                return bytesOf(
                    DotProductEngine().gemm(ab->first, ab->second, dt));
            }};
}

/** fusedGemmActivation (LUT, then exact) against the unfused
 *  composition: DotProductEngine, then the SIMD engine's activation. */
Cases
fusedActivation(const std::string &input, Operands ab, DType dt,
                Nonlinearity f)
{
    Cases cases;
    for (const bool lut : {true, false}) {
        cases.push_back(
            {input + " " + nonlinearityName(f) + (lut ? " lut" : " exact"),
             [ab, dt, f, lut] {
                 return bytesOf(gemm_kernels::fusedGemmActivation(
                     ab->first, ab->second, dt, f, lut, simd::activeIsa(),
                     simd::GemmBlocking{}));
             },
             [ab, dt, f, lut] {
                 const Tensor c =
                     DotProductEngine().gemm(ab->first, ab->second, dt);
                 return bytesOf(
                     lut ? gemm_kernels::sharedSimdEngine().apply(f, c)
                         : SimdEngine::applyExact(f, c));
             }});
    }
    return cases;
}

/** fusedQuantizedGemm (plain, then with ReLU) against the unfused
 *  composition: per-row quantizeDynamic, gemmInt8, activation. */
Cases
fusedInt8(const std::string &input, Operands ab)
{
    Cases cases;
    for (const bool act : {false, true}) {
        cases.push_back(
            {input + (act ? " int8 relu" : " int8"),
             [ab, act] {
                 return bytesOf(gemm_kernels::fusedQuantizedGemm(
                     ab->first, quantizeStatic(ab->second), act,
                     Nonlinearity::Relu, /*use_lut=*/true, simd::activeIsa(),
                     simd::GemmBlocking{}));
             },
             [ab, act] {
                 const Tensor c = DotProductEngine().gemmInt8(
                     quantizeDynamic(ab->first, QuantGranularity::PerRow),
                     quantizeStatic(ab->second));
                 return bytesOf(act ? gemm_kernels::sharedSimdEngine().apply(
                                          Nonlinearity::Relu, c)
                                    : c);
             }});
    }
    return cases;
}

/**
 * The operands of one edge class: an e.n x 19 by 19 x e.n product (m
 * and n on either side of every mr and nr), a value class planted once
 * in each row of A, so no output element meets two.
 */
Operands
edgeOperands(const Edge &e)
{
    Rng rng(0x6E44 + e.n);
    const auto n = static_cast<std::int64_t>(e.n);
    auto [a, b] = operands({n, n, 19}, rng);
    for (std::int64_t r = 0; e.value && r < n; ++r)
        a.set(r * 19 + (r * 7) % 19, *e.value);
    return share(a, b);
}

/** Plain GEMM in every dtype on one edge class. */
template <std::int64_t mc = 64, std::int64_t kc = 256, std::int64_t nc = 512>
Cases
gemmEdge(const Edge &e)
{
    Cases cases;
    for (const DType dt : {DType::FP32, DType::FP16, DType::BF16})
        cases.push_back(
            gemmCase(dtypeName(dt), edgeOperands(e), dt, {mc, kc, nc}));
    return cases;
}

Cases
gemmDtypes()
{
    // Odd extents exercise every partial-tile path of every micro-kernel
    // (mr/nr remainders, nc blocks that end mid-strip, kc tails).
    Rng rng(101);
    Cases cases;
    for (const GemmShape s : {GemmShape{37, 29, 53}, GemmShape{64, 48, 32},
                              GemmShape{1, 7, 5}, GemmShape{128, 96, 64},
                              GemmShape{4, 33, 128}}) {
        const auto [a, b] = operands(s, rng);
        for (const DType dt : {DType::FP32, DType::FP16, DType::BF16})
            cases.push_back(gemmCase(s.name() + " " + dtypeName(dt),
                                     share(a, b), dt));
    }
    return cases;
}

/**
 * Every stored dtype x compute dtype the row source converts between,
 * on shapes off the mr/nr/kc multiples (n = 1 and k = 0 included).
 * Each operand carries a signalling NaN, a quiet NaN and denormals. A
 * NaN sits in only one operand per run and at most once per A row (B
 * column), so no output element meets two NaNs and the result bits do
 * not depend on which one an add keeps.
 */
Cases
rowSourceMatrix()
{
    constexpr DType kDtypes[] = {DType::FP32, DType::FP16, DType::BF16};
    Rng rng(108);
    Cases cases;
    for (const GemmShape s : {GemmShape{7, 37, 300}, GemmShape{5, 1, 19},
                              GemmShape{6, 33, 0}, GemmShape{13, 65, 257},
                              GemmShape{1, 31, 1}}) {
        for (const DType stored : kDtypes) {
            // {signalling NaN, quiet NaN, smallest and largest denormal}
            const std::array<std::uint32_t, 4> sp =
                stored == DType::FP16
                ? std::array{0x7d01u, 0xfe03u, 0x0001u, 0x83ffu}
                : stored == DType::BF16
                ? std::array{0x7f81u, 0xffc3u, 0x0001u, 0x807fu}
                : std::array{0x7f800101u, 0xffc00003u, 0x00000001u,
                             0x807fffffu};
            for (const bool nan_in_a : {true, false}) {
                Tensor a(Shape{s.m, s.k}, stored);
                Tensor b(Shape{s.k, s.n}, stored);
                a.fillGaussian(rng);
                b.fillGaussian(rng);
                if (s.k > 0) {
                    setBits(a, 0, sp[2]);
                    setBits(a, s.m * s.k - 1, sp[3]);
                    setBits(b, 0, sp[3]);
                    setBits(b, s.k * s.n - 1, sp[2]);
                    if (nan_in_a) {
                        setBits(a, (s.m / 2) * s.k + s.k / 3, sp[0]);
                        if (s.m > 1)
                            setBits(a, (s.m - 1) * s.k, sp[1]);
                    } else {
                        setBits(b, (s.k / 2) * s.n + s.n / 2, sp[0]);
                        if (s.n > 1)
                            setBits(b, (s.k - 1) * s.n + s.n - 1, sp[1]);
                    }
                }
                for (const DType compute : kDtypes) {
                    for (const simd::GemmBlocking blk :
                         {simd::GemmBlocking{}, simd::GemmBlocking{5, 7, 40}})
                        cases.push_back(gemmCase(
                            s.name() + " stored " + dtypeName(stored) +
                                " compute " + dtypeName(compute) +
                                (nan_in_a ? " nan in a" : " nan in b") +
                                " kc " + std::to_string(blk.kc),
                            share(a, b), compute, blk));
                }
            }
        }
    }
    return cases;
}

Cases
rowSourceEdge(const Edge &e)
{
    const Operands ab = edgeOperands(e);
    Cases cases;
    for (const DType stored : {DType::FP16, DType::BF16}) {
        const Operands ab16 =
            share(ab->first.cast(stored), ab->second.cast(stored));
        for (const DType compute : {DType::FP32, stored})
            cases.push_back(gemmCase(std::string("stored ") +
                                         dtypeName(stored) + " compute " +
                                         dtypeName(compute),
                                     ab16, compute, {5, 7, 40}));
    }
    return cases;
}

/** Plain FP32 GEMM and fused ReLU on @p relu_ab, fused INT8 on @p ab. */
Cases
gemmFusedTrio(const std::string &input, const Operands &ab,
              const Operands &relu_ab)
{
    return {gemmCase(input, relu_ab, DType::FP32),
            fusedActivation(input, relu_ab, DType::FP32,
                            Nonlinearity::Relu)[0],
            fusedInt8(input, ab)[0]};
}

Cases
edgeShapes()
{
    // n = 1, and m and n one past a multiple of each tier's tile: 4k+1
    // rows (mr = 4 on every tier); 8k+1, 16k+1 and 32k+1 columns (the
    // fp32 nr of vec128, avx2 and avx512, and the int8 nr8 of each).
    // k = 300 and 257 cross the 256-deep panel boundary. The fp32
    // operand of the plain and ReLU GEMMs also carries an inf and a NaN
    // in distinct rows, so the fused epilogue meets inf, -inf and NaN.
    Rng rng(109);
    Cases cases;
    for (const GemmShape s :
         {GemmShape{5, 1, 37}, GemmShape{9, 33, 64}, GemmShape{65, 65, 300},
          GemmShape{4, 17, 19}, GemmShape{13, 9, 257}, GemmShape{1, 1, 1},
          GemmShape{8, 129, 40}}) {
        const auto [a, b] = operands(s, rng);
        Tensor special = a;
        if (s.m > 1) {
            setBits(special, s.k / 2, 0x7f800000u);
            setBits(special, (s.m - 1) * s.k, 0x7fc00001u);
        }
        for (Case &c : gemmFusedTrio(s.name(), share(a, b), share(special, b)))
            cases.push_back(std::move(c));
    }
    return cases;
}

Cases
edgeShapesEdge(const Edge &e)
{
    const Operands ab = edgeOperands(e);
    return gemmFusedTrio("", ab, ab);
}

Cases
smallBlockings()
{
    Rng rng(102);
    const auto [a, b] = operands({65, 51, 47}, rng);
    Cases cases;
    for (const simd::GemmBlocking blk :
         {simd::GemmBlocking{8, 16, 24}, simd::GemmBlocking{1, 1, 1},
          simd::GemmBlocking{16, 8, 8}, simd::GemmBlocking{64, 256, 512}})
        cases.push_back(gemmCase("mc " + std::to_string(blk.mc) + " kc " +
                                     std::to_string(blk.kc) + " nc " +
                                     std::to_string(blk.nc),
                                 share(a, b), DType::FP32, blk));
    return cases;
}

constexpr Nonlinearity kActivations[] = {
    Nonlinearity::Relu, Nonlinearity::Gelu, Nonlinearity::Tanh,
    Nonlinearity::Silu};

Cases
fusedActivations()
{
    Rng rng(103);
    const auto [a, b] = operands({45, 41, 37}, rng);
    Cases cases;
    for (const Nonlinearity f : kActivations)
        for (Case &c : fusedActivation("45x41x37", share(a, b), DType::FP16, f))
            cases.push_back(std::move(c));
    return cases;
}

Cases
fusedActivationsEdge(const Edge &e)
{
    Cases cases;
    for (const Nonlinearity f : kActivations)
        for (Case &c : fusedActivation("", edgeOperands(e), DType::FP16, f))
            cases.push_back(std::move(c));
    return cases;
}

Cases
fusedInt8Gemm()
{
    Rng rng(104);
    const auto [a, b] = operands({33, 29, 61}, rng);
    return fusedInt8("33x29x61", share(a, b));
}

Cases
fusedInt8Edge(const Edge &e)
{
    return fusedInt8("", edgeOperands(e));
}

Cases
millionOutputs()
{
    Rng rng(105);
    const auto [a, b] = operands({1024, 1024, 64}, rng);
    return {gemmCase("1024x1024x64", share(a, b), DType::FP16)};
}

/** gemm_kernels::gemm without a tier argument takes the active tier. */
Cases
activeTierDefault(const Operands &ab)
{
    return {{"default tier",
             [ab] {
                 return bytesOf(
                     gemm_kernels::gemm(ab->first, ab->second, DType::FP32));
             },
             [ab] {
                 return bytesOf(gemm_kernels::gemm(
                     ab->first, ab->second, DType::FP32, simd::activeIsa(),
                     simd::GemmBlocking{}));
             }}};
}

Cases
activeTier()
{
    Rng rng(106);
    const auto [a, b] = operands({19, 31, 23}, rng);
    return activeTierDefault(share(a, b));
}

Cases
activeTierEdge(const Edge &e)
{
    return activeTierDefault(edgeOperands(e));
}

/**
 * A half operand stored in the compute dtype is widened in one pass
 * per row segment. Read through the row source in ragged column
 * segments, as the pack does, it must equal the three-pass round trip
 * (widen, narrow, widen) on every bit pattern, signalling NaNs
 * included.
 */
Case
rowSourceReads(std::string input, const Tensor &t)
{
    return {std::move(input),
            [t] {
                const std::int64_t cols = t.shape().dim(1);
                const gemm_kernels::OperandRows op{&t, t.dtype()};
                const simd::RowSource src = op.source();
                std::vector<float> got(static_cast<std::size_t>(t.numel()));
                for (std::int64_t r = 0; r < t.shape().dim(0); ++r) {
                    for (std::int64_t c0 = 0; c0 < cols; c0 += 97) {
                        const std::int64_t len =
                            std::min<std::int64_t>(97, cols - c0);
                        float *dst = got.data() + r * cols + c0;
                        const float *row = src.row(r, c0, len, dst);
                        std::copy(row, row + len, dst);
                    }
                }
                return bytesOf(got);
            },
            [t] {
                std::vector<float> ref = t.toFloats();
                std::vector<std::uint16_t> narrow(ref.size());
                convertBuffer(ref.data(), narrow.data(), ref.size(),
                              t.dtype());
                convertBuffer(narrow.data(), ref.data(), ref.size(),
                              t.dtype());
                return bytesOf(ref);
            }};
}

Cases
operandConversion()
{
    Cases cases;
    for (const DType dt : {DType::FP16, DType::BF16}) {
        Tensor t(Shape{256, 256}, dt);
        std::memcpy(t.raw().data(), allHalfPatterns().data(), t.raw().size());
        cases.push_back(rowSourceReads(dtypeName(dt), t));
    }
    return cases;
}

Cases
operandConversionEdge(const Edge &e)
{
    const Tensor t = Tensor::fromFloats(
        edgeFloats(e), Shape{1, static_cast<std::int64_t>(e.n)}, DType::FP32);
    return {rowSourceReads("fp16", t.cast(DType::FP16)),
            rowSourceReads("bf16", t.cast(DType::BF16))};
}

// ----------------------------------------------------- executor rows

/** Every output's shape and bytes in node-id order, then the peak. */
Output
executionBytes(const ExecutionResult &r)
{
    Output out;
    for (const auto &[id, t] : r.outputs)
        append(out, id, t);
    append(out, r.peak_bytes);
    return out;
}

/**
 * Executor::run output digests of the DHEN functional model (batch
 * 192, 8 x 64K x 64 FP16 tables, two DHEN layers, vertical
 * FC+activation fusion applied) for executor seeds 1, 2 and 3.
 */
Cases
dhenDigests()
{
    constexpr const char *kDigests[] = {
        "dede8f3bc0cacc9e15a704cd4a8ff9289a3b50323622899bb47e79632568ad7d",
        "dfda6ed78fb8f0149aeb00f999d27ef5b26e14a65c6e2d2604f5dbfe3b941704",
        "b8ceb7ec382465a4500fceea7ba879488cb6583408574fd2bfc3ee577d79ea0d",
    };
    RankingModelParams p;
    p.name = "dhen-functional";
    p.batch = 192;
    p.tbe.tables = 8;
    p.tbe.rows_per_table = 64 * 1024;
    p.tbe.dim = 64;
    p.dhen_layers = 2;
    const auto m = std::make_shared<ModelInfo>(buildRankingModel(p));
    fuseVerticalFcActivation(m->graph);
    Cases cases;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto digest = [m, seed] {
            Sha256 h;
            for (const auto &[id, t] : Executor(seed).run(m->graph).outputs)
                h.update(t.raw());
            return hexBytes(Sha256::hex(h.finish()));
        };
        cases.push_back(pinned("executor seed " + std::to_string(seed),
                               digest, hexBytes(kDigests[seed - 1])));
    }
    return cases;
}

/** Executor::run against tests/copy_executor.h, as built and after
 *  optimizeGraph. */
Cases
copySemantics()
{
    RankingModelParams p;
    p.batch = 16;
    p.dense_features = 32;
    p.bottom_mlp = {32, 16};
    p.tbe.tables = 2;
    p.tbe.rows_per_table = 1024;
    p.tbe.dim = 16;
    p.tbe_pooling = 4;
    p.top_mlp = {32, 1};
    p.dhen_layers = 2;
    p.dhen_width = 64;
    p.mha_blocks = 1;
    p.mha_seq = 4;
    p.mha_dim = 16;
    Cases cases;
    for (const bool optimized : {false, true}) {
        const auto m = std::make_shared<ModelInfo>(buildRankingModel(p));
        if (optimized) {
            EXPECT_GT(optimizeGraph(m->graph), 0);
        }
        cases.push_back(
            {optimized ? "optimized" : "as built",
             [m] { return executionBytes(Executor(42).run(m->graph)); },
             [m] {
                 const CopySemanticsRun ref = runWithInputCopies(m->graph, 42);
                 EXPECT_GT(ref.movable_input_bytes, 0u);
                 return executionBytes(ref.result);
             }});
    }
    return cases;
}

// -------------------------------------------------- event queue row

/**
 * Reference for the event queue: the textbook (when, seq) queue, one
 * std::priority_queue with the EventQueue interface the script uses.
 */
class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }
    void schedule(Tick when, Callback cb)
    {
        heap_.push(Entry{when, seq_++, std::move(cb)});
    }
    Tick nextEventTick() const { return heap_.top().when; }
    void
    runUntil(Tick limit)
    {
        while (!heap_.empty() && heap_.top().when <= limit)
            dispatchTop();
        now_ = std::max(now_, limit);
    }
    void
    run()
    {
        while (!heap_.empty())
            dispatchTop();
    }
    void clear() { heap_ = {}; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    void
    dispatchTop()
    {
        Entry e = heap_.top();
        heap_.pop();
        now_ = e.when;
        e.cb();
    }

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

/**
 * One seeded operation script, run against queue type Q. Returns the
 * trace: every dispatch as (event id, tick), plus every
 * nextEventTick(), pending() and now() the script reads. Callbacks
 * draw from the same Rng, so two queues only produce equal traces if
 * they dispatch in the same order.
 */
template <typename Q>
Output
dispatchTrace(std::uint64_t seed)
{
    constexpr std::uint64_t kRead = ~std::uint64_t{0};
    struct Ctx
    {
        Q q;
        Rng rng;
        std::vector<std::pair<std::uint64_t, Tick>> trace;
        std::uint64_t next_id = 0;
        std::uint64_t budget = 20000; // events callbacks may spawn

        void
        add(Tick when)
        {
            const std::uint64_t id = next_id++;
            q.schedule(when, [this, id] { fire(id); });
        }

        void
        fire(std::uint64_t id)
        {
            trace.emplace_back(id, q.now());
            if (budget == 0)
                return;
            --budget;
            switch (rng.below(6)) {
            case 0: // same tick as the dispatching event
                add(q.now());
                break;
            case 1: // short hop
                add(q.now() + 1 + rng.below(16));
                break;
            case 2: // service-like delta
                add(q.now() + rng.below(5000));
                break;
            case 3: // lands on the earliest pending tick, if any
                add(q.pending() > 0 ? q.nextEventTick() : q.now());
                break;
            default: // no child
                break;
            }
        }
    };
    Ctx c{Q{}, Rng(seed), {}, 0, 20000};
    Tick chain_a = 0;
    Tick chain_b = 0;
    for (int op = 0; op < 3000; ++op) {
        const Tick now = c.q.now();
        switch (c.rng.below(10)) {
        case 0: { // same-tick burst
            const Tick t = now + c.rng.below(4);
            const std::uint64_t k = 1 + c.rng.below(12);
            for (std::uint64_t i = 0; i < k; ++i)
                c.add(t);
            break;
        }
        case 1: // two interleaved monotone chains
            chain_a = std::max(chain_a, now) + c.rng.below(300);
            c.add(chain_a);
            break;
        case 2:
            chain_b = std::max(chain_b, now) + c.rng.below(300);
            c.add(chain_b);
            break;
        case 3: // out of order, microsecond-scale spread
            c.add(now + c.rng.below(100000));
            break;
        case 4: // chain A's tick again: a same-tick tie, later seq
            c.add(std::max(chain_a, now));
            break;
        case 5: // runUntil exactly at the earliest pending event
            if (c.q.pending() > 0)
                c.q.runUntil(c.q.nextEventTick());
            c.trace.emplace_back(kRead, c.q.now());
            break;
        case 6: // runUntil an arbitrary limit
            c.q.runUntil(now + c.rng.below(3000));
            c.trace.emplace_back(kRead, c.q.now());
            break;
        case 7:
            c.trace.emplace_back(
                kRead, c.q.pending() > 0 ? c.q.nextEventTick() : 0);
            c.trace.emplace_back(kRead, c.q.pending());
            break;
        case 8:
            if (c.rng.below(40) == 0)
                c.q.clear();
            c.trace.emplace_back(kRead, c.q.pending());
            break;
        default: // sorted arrivals far ahead, as a trace pre-schedules
            for (int i = 0; i < 8; ++i)
                c.add(now + 100000 + static_cast<Tick>(i) * 977);
            break;
        }
    }
    c.q.run();
    c.trace.emplace_back(kRead, c.q.now());
    EXPECT_GT(c.trace.size(), 10000u) << "seed " << seed;
    return bytesOf(c.trace);
}

Cases
dispatchTraces()
{
    Cases cases;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        cases.push_back({"seed " + std::to_string(seed),
                         [seed] { return dispatchTrace<EventQueue>(seed); },
                         [seed] { return dispatchTrace<ReferenceQueue>(seed); }});
    return cases;
}

// ---------------------------------------------------- surrogate row

/** A training set for the surrogate row. */
struct TrainingSet
{
    std::vector<FeatureVec> x;
    std::vector<double> y;
};

/**
 * n rows whose columns are each constant, binary, ordinal {0,1,2},
 * continuous, or drawn from a three-value pool holding both zeros;
 * with warm rows, a prefix of rows carries other shape columns (0..2)
 * while the rest share one shape, as tuneSurrogate's warm start
 * gives. Targets are asinh'd costs with 1e18 penalties, raw costs
 * with raw 1e18 penalties, a constant, a few repeated values, or a
 * smooth function of the features.
 */
TrainingSet
randomTrainingSet(Rng &rng, std::size_t n)
{
    TrainingSet t;
    t.x.assign(n, FeatureVec{});
    for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
        const std::uint64_t mode = rng.below(5);
        const double c = static_cast<double>(rng.range(-2, 12));
        const double pool[3] = {-0.0, 0.0, rng.uniform(-3.0, 3.0)};
        for (std::size_t i = 0; i < n; ++i) {
            double v = c;
            if (mode == 1)
                v = static_cast<double>(rng.below(2));
            else if (mode == 2)
                v = static_cast<double>(rng.below(3));
            else if (mode == 3)
                v = rng.uniform(-4.0, 12.0);
            else if (mode == 4)
                v = pool[rng.below(3)];
            t.x[i][f] = v;
        }
    }
    if (rng.chance(0.5)) {
        const std::size_t warm = rng.below(std::min<std::size_t>(n, 9));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t f = 0; f < 3; ++f) {
                t.x[i][f] = i < warm
                    ? static_cast<double>(rng.range(4, 14))
                    : static_cast<double>(f + 8);
            }
        }
    }
    const std::uint64_t target = rng.below(5);
    const double constant = rng.uniform(-50.0, 50.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double cost = rng.chance(0.3) ? 1e18 : rng.uniform(1e5, 1e8);
        double v = constant;
        if (target == 0)
            v = std::asinh(cost);
        else if (target == 1)
            v = cost;
        else if (target == 3)
            v = static_cast<double>(rng.below(4)) * 2.5;
        else if (target == 4)
            v = 3.0 * t.x[i][3] - t.x[i][5] * t.x[i][5] +
                rng.uniform(-0.1, 0.1);
        t.y.push_back(v);
    }
    return t;
}

/** Prediction rows: training rows, per-column mixes of training
 *  values and of threshold-style midpoints between two of them, and
 *  fresh random rows (only these when there are no training rows). */
std::vector<FeatureVec>
predictionGrid(Rng &rng, const TrainingSet &t, std::size_t rows)
{
    std::vector<FeatureVec> grid;
    for (std::size_t r = 0; r < rows; ++r) {
        FeatureVec g{};
        const std::uint64_t kind = t.x.empty() ? 2 : rng.below(3);
        if (kind == 0) {
            g = t.x[rng.below(t.x.size())];
        } else {
            for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
                if (kind == 2) {
                    g[f] = rng.uniform(-5.0, 15.0);
                    continue;
                }
                const double a = t.x[rng.below(t.x.size())][f];
                const double b = t.x[rng.below(t.x.size())][f];
                g[f] = rng.chance(0.5) ? a : a + (b - a) * 0.5;
            }
        }
        grid.push_back(g);
    }
    return grid;
}

/** CostSurrogate::fit, describe, predictAll and predict against
 *  reference::CostSurrogate's fit, describe and predict. The fit has
 *  no tier-dispatched kernel, so it runs once; the predictions run on
 *  every tier. */
Case
surrogateCase(std::string input, TrainingSet t, std::vector<FeatureVec> grid)
{
    struct In
    {
        TrainingSet t;
        std::vector<FeatureVec> grid;
        std::optional<CostSurrogate> model;
    };
    const auto in =
        std::make_shared<In>(In{std::move(t), std::move(grid), {}});
    return {std::move(input),
            [in] {
                if (!in->model) {
                    CostSurrogate model;
                    model.fit(in->t.x, in->t.y);
                    in->model = std::move(model);
                }
                std::vector<double> each;
                for (const FeatureVec &g : in->grid)
                    each.push_back(in->model->predict(g));
                return bytesOf(in->model->describe(),
                               in->model->predictAll(in->grid), each);
            },
            [in] {
                reference::CostSurrogate ref;
                ref.fit(in->t.x, in->t.y);
                std::vector<double> each;
                for (const FeatureVec &g : in->grid)
                    each.push_back(ref.predict(g));
                return bytesOf(ref.describe(), each, each);
            }};
}

Cases
surrogateTrials()
{
    Rng rng(2811);
    Cases cases;
    for (std::size_t trial = 0; trial < 640; ++trial) {
        TrainingSet t = randomTrainingSet(rng, 1 + trial % 64);
        const std::size_t rows = trial % 7 == 0 ? 288 : 1 + rng.below(80);
        std::vector<FeatureVec> grid = predictionGrid(rng, t, rows);
        cases.push_back(surrogateCase("trial " + std::to_string(trial),
                                      std::move(t), std::move(grid)));
    }
    return cases;
}

Cases
surrogateEdge(const Edge &e)
{
    // e.n training rows; a value class sets feature 3 and the target of
    // the first, middle and last row.
    Rng rng(0x5077 + e.n);
    TrainingSet t = randomTrainingSet(rng, e.n);
    for (const std::size_t i : {std::size_t{0}, e.n / 2, e.n - 1}) {
        if (e.value && e.n > 0)
            t.x[i][3] = t.y[i] = *e.value;
    }
    std::vector<FeatureVec> grid = predictionGrid(rng, t, 40);
    return {surrogateCase("surrogate", std::move(t), std::move(grid))};
}

// --------------------------------------------------------- the table

/** The ambient lane count, and the counts GEMM and executor rows fan
 *  out to. */
const std::vector<unsigned> kAmbient{0};
const std::vector<unsigned> kFanOut{1, 2, 8};

const Row kRows[] = {
    {"NumericsDtype", "Fp16SpecialsMatchScalarAndPerElement", kAmbient,
     fp16Specials, conversionEdge<DType::FP16>},
    {"NumericsDtype", "Bf16SpecialsAndTiesMatchScalar", kAmbient, bf16Specials,
     conversionEdge<DType::BF16>},
    {"NumericsDtype", "Fp16WidenExhaustiveAllBitPatterns", kAmbient, fp16Widen,
     conversionEdge<DType::FP16>},
    {"NumericsDtype", "Bf16WidenExhaustiveAllBitPatterns", kAmbient, bf16Widen,
     conversionEdge<DType::BF16>},
    {"NumericsDtype", "RandomizedMillionElementEquivalence", kAmbient,
     millionElements, bothHalfEdges},
    {"NumericsDtype", "F16cWidenExhaustiveAndNarrowStructuredSweep", kAmbient,
     f16cSweep, f16cEdge},
    {"NumericsQuantize", "DynamicMatchesScalarAcrossGranularities", kAmbient,
     dynamicGranularities, dynamicEdge},
    {"NumericsQuantize", "StaticPercentileClippedOutliersStaySaturated",
     kAmbient, staticOutliers, staticEdge},
    {"ContractsTensor", "QuantizersRejectNonFiniteInputOnEveryTier", kAmbient,
     nonFiniteRejected},
    {"NumericsCodec", "StreamBytesArePinned", kAmbient, pinnedStreams,
     streamsEdge},
    {"Sha", "FipsVectors", kAmbient, fipsVectors, shaEdge},
    {"Sha", "IncrementalMatchesOneShot", kAmbient, shaIncremental, shaEdge},
    {"Sha", "ActiveTierMatchesPortableRoundLoop", kAmbient, shaLengths,
     shaEdge},
    {"NumericsGather", "AccumulateMatchesScalarAcrossDims", kAmbient,
     gatherDims, gatherEdge},
    {"GemmKernelsTest", "EveryTierAndThreadCountMatchesDpeReference", kFanOut,
     gemmDtypes, gemmEdge<>},
    {"GemmKernelsTest", "RowSourceMatrixMatchesDpeOnEveryTierAndLaneCount",
     kFanOut, rowSourceMatrix, rowSourceEdge},
    {"GemmKernelsTest", "EdgeShapesMatchDpeOnEveryTierAndLaneCount", kFanOut,
     edgeShapes, edgeShapesEdge},
    {"GemmKernelsTest", "SmallBlockingsSplitEveryLoopIdentically", kAmbient,
     smallBlockings, gemmEdge<8, 16, 24>},
    {"GemmKernelsTest", "FusedActivationMatchesUnfusedComposition", kFanOut,
     fusedActivations, fusedActivationsEdge},
    {"GemmKernelsTest", "FusedQuantizedGemmMatchesUnfusedComposition", kFanOut,
     fusedInt8Gemm, fusedInt8Edge},
    {"GemmKernelsTest", "MillionElementPropertySweep", kFanOut, millionOutputs,
     gemmEdge<>},
    {"GemmKernelsTest", "ActiveIsaDefaultMatchesExplicitTier", kAmbient,
     activeTier, activeTierEdge},
    {"GemmKernelsTest",
     "OperandConversionMatchesThreePassRoundTripOnAllHalfPatterns", kAmbient,
     operandConversion, operandConversionEdge},
    {"ExecutorGolden", "DhenDigestsOneLane", {1}, dhenDigests},
    {"ExecutorGolden", "DhenDigestsTwoLanes", {2}, dhenDigests},
    {"ExecutorGolden", "DhenDigestsEightLanes", {8}, dhenDigests},
    {"ExecutorOwnership", "ZooModelMatchesCopySemantics", kFanOut,
     copySemantics},
    {"EventQueue", "DispatchTraceMatchesReferenceHeap", kAmbient,
     dispatchTraces},
    {"SurrogateTest", "FitAndPredictAllMatchTheReferenceOnEveryTier", kAmbient,
     surrogateTrials, surrogateEdge},
};

/** A row's ctest: the harness over that row. */
class RowTest : public ::testing::Test
{
  public:
    explicit RowTest(const Row &row) : row_(row) {}
    void TestBody() override { runRow(row_); }

  private:
    const Row &row_;
};

[[maybe_unused]] const bool kRegistered = [] {
    for (const Row &row : kRows) {
        ::testing::RegisterTest(row.suite, row.name, nullptr, nullptr,
                                __FILE__, __LINE__,
                                [&row]() -> ::testing::Test * {
                                    return new RowTest(row);
                                });
    }
    return true;
}();

// ----------------------------------------------- the tier list itself

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndBestIsSupported)
{
    EXPECT_TRUE(simd::isaSupported(simd::SimdIsa::Scalar));
    EXPECT_TRUE(simd::isaSupported(simd::detectBestIsa()));
    EXPECT_TRUE(simd::isaSupported(simd::activeIsa()));
}

TEST(SimdDispatchTest, ScopedIsaOverridesAndNests)
{
    const simd::SimdIsa base = simd::activeIsa();
    {
        simd::ScopedIsa outer(simd::SimdIsa::Scalar);
        EXPECT_EQ(simd::activeIsa(), simd::SimdIsa::Scalar);
        for (const simd::SimdIsa isa : supportedTiers()) {
            simd::ScopedIsa inner(isa);
            EXPECT_EQ(simd::activeIsa(), isa);
        }
        EXPECT_EQ(simd::activeIsa(), simd::SimdIsa::Scalar);
    }
    EXPECT_EQ(simd::activeIsa(), base);
}

TEST(SimdDispatchTest, TierNamesRoundTrip)
{
    for (const simd::SimdIsa isa : supportedTiers())
        EXPECT_STRNE(simd::isaName(isa), "");
}

// ------------------------------------------------- codec size bound

TEST(NumericsCodec, LzChainRatioHoldsOnEveryKindAndMixedInputs)
{
    // The chain matcher may skip ahead through a long run of failed
    // searches. This guards what that costs: each stream below may be
    // at most the size the matcher wrote when it searched every
    // position (recorded constants), plus 0.05% of the input for the
    // six pinned kinds and 0.1% for the mixes of random and repetitive
    // bytes, where the skip must wind down at the boundary.
    constexpr std::size_t kBytes = 512 * 1024;
    static constexpr std::size_t kKindBytes[6] = {374550, 526326, 526227,
                                                  263864, 2065,   526345};
    for (int kind = 0; kind < 6; ++kind) {
        const ByteBuffer in = pinnedCodecInput(kind, kBytes);
        const ByteBuffer lz = LzCodec::compress(in);
        EXPECT_EQ(LzCodec::decompress(lz), in) << "kind " << kind;
        EXPECT_LE(lz.size(), kKindBytes[kind] + kBytes * 5 / 10000)
            << "kind " << kind;
    }

    // Mixes of two 256 KiB halves: uniform random bytes and the
    // (i % 96) * 5 pattern with 1% of its bytes flipped.
    constexpr std::size_t kHalf = kBytes / 2;
    Rng rng(4111);
    ByteBuffer random(kHalf), pattern(kHalf);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t i = 0; i < kHalf; ++i) {
        pattern[i] = static_cast<std::uint8_t>((i % 96) * 5);
        if (rng.chance(0.01))
            pattern[i] ^= 0xff;
    }
    ByteBuffer mixes[3];
    mixes[0] = random; // random, then repetitive
    mixes[0].insert(mixes[0].end(), pattern.begin(), pattern.end());
    mixes[1] = pattern; // repetitive, then random
    mixes[1].insert(mixes[1].end(), random.begin(), random.end());
    constexpr std::size_t kPiece = 4096; // 64 pieces of each, alternating
    for (std::size_t off = 0; off < kHalf; off += kPiece) {
        mixes[2].insert(mixes[2].end(), random.begin() + off,
                        random.begin() + off + kPiece);
        mixes[2].insert(mixes[2].end(), pattern.begin() + off,
                        pattern.begin() + off + kPiece);
    }
    static constexpr std::size_t kMixBytes[3] = {274757, 274758, 275872};
    for (int m = 0; m < 3; ++m) {
        ASSERT_EQ(mixes[m].size(), kBytes);
        const ByteBuffer lz = LzCodec::compress(mixes[m]);
        EXPECT_EQ(LzCodec::decompress(lz), mixes[m]) << "mix " << m;
        EXPECT_LE(lz.size(), kMixBytes[m] + kBytes / 1000) << "mix " << m;
    }
}

} // namespace
} // namespace mtia
