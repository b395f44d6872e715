#include "core/simd.h"

#include <cstdlib>
#include <cstring>

#include "core/check.h"

namespace mtia::simd
{
namespace
{

// Thread-local ScopedIsa stack top (mirrors ScopedParallelism).
thread_local SimdIsa tl_isa = SimdIsa::Scalar;
thread_local bool tl_isa_active = false;

bool
cpuHasIsa(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Sse2:
        // SSE2 is architectural baseline for x86-64.
#if defined(__x86_64__) || defined(_M_X64)
        return true;
#else
        return false;
#endif
    case SimdIsa::Avx2:
#if (defined(__x86_64__) || defined(_M_X64)) &&                         \
    (defined(__GNUC__) || defined(__clang__))
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case SimdIsa::Avx512:
#if (defined(__x86_64__) || defined(_M_X64)) &&                         \
    (defined(__GNUC__) || defined(__clang__))
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
    case SimdIsa::Neon:
#if defined(__ARM_NEON) && defined(__aarch64__)
        return true;
#else
        return false;
#endif
    }
    MTIA_UNREACHABLE("bad SimdIsa");
}

// Whether the kernels for this tier exist in the binary. Sse2 and Neon
// ride on core/simd.h's 128-bit backend (MTIA_SIMD_VEC128; cpuHasIsa
// tells the two apart); the wider x86 tiers are separate GEMM TUs
// added by CMake only when the compiler accepts their -m flags
// (MTIA_GEMM_HAVE_* definitions).
bool
tierCompiled(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Sse2:
    case SimdIsa::Neon:
#if defined(MTIA_SIMD_VEC128)
        return true;
#else
        return false;
#endif
    case SimdIsa::Avx2:
#if defined(MTIA_GEMM_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    case SimdIsa::Avx512:
#if defined(MTIA_GEMM_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    }
    MTIA_UNREACHABLE("bad SimdIsa");
}

SimdIsa
parseIsaName(const char *name)
{
    static constexpr SimdIsa kAll[] = {SimdIsa::Scalar, SimdIsa::Sse2,
                                       SimdIsa::Avx2, SimdIsa::Avx512,
                                       SimdIsa::Neon};
    for (SimdIsa isa : kAll) {
        if (std::strcmp(name, isaName(isa)) == 0)
            return isa;
    }
    MTIA_CHECK(false) << ": MTIA_SIMD_ISA='" << name
                      << "' is not one of scalar/sse2/avx2/avx512/neon";
    return SimdIsa::Scalar;
}

} // namespace

const char *
isaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return "scalar";
    case SimdIsa::Sse2:
        return "sse2";
    case SimdIsa::Avx2:
        return "avx2";
    case SimdIsa::Avx512:
        return "avx512";
    case SimdIsa::Neon:
        return "neon";
    }
    MTIA_UNREACHABLE("bad SimdIsa");
}

bool
isaSupported(SimdIsa isa)
{
    return cpuHasIsa(isa) && tierCompiled(isa);
}

SimdIsa
detectBestIsa()
{
    static const SimdIsa best = [] {
        static constexpr SimdIsa kWidestFirst[] = {
            SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon, SimdIsa::Sse2};
        for (SimdIsa isa : kWidestFirst) {
            if (isaSupported(isa))
                return isa;
        }
        return SimdIsa::Scalar;
    }();
    return best;
}

SimdIsa
activeIsa()
{
    if (tl_isa_active)
        return tl_isa;
    static const SimdIsa env_or_best = [] {
        const char *env = std::getenv("MTIA_SIMD_ISA");
        if (env != nullptr && *env != '\0') {
            const SimdIsa forced = parseIsaName(env);
            MTIA_CHECK(isaSupported(forced))
                << ": MTIA_SIMD_ISA=" << isaName(forced)
                << " is not supported on this machine/build";
            return forced;
        }
        return detectBestIsa();
    }();
    return env_or_best;
}

ScopedIsa::ScopedIsa(SimdIsa isa)
    : prev_isa_(tl_isa), prev_active_(tl_isa_active)
{
    MTIA_CHECK(isaSupported(isa))
        << ": ScopedIsa(" << isaName(isa)
        << ") is not supported on this machine/build";
    tl_isa = isa;
    tl_isa_active = true;
}

ScopedIsa::~ScopedIsa()
{
    tl_isa = prev_isa_;
    tl_isa_active = prev_active_;
}

} // namespace mtia::simd
