// Positive fixture: raw-intrinsics — platform SIMD intrinsics called
// outside the kernel layer (src/core/simd*). Never compiled. Linted
// with --treat-as-src, so the linter must flag every call site.

void
badX86(float *p)
{
    auto v = _mm_loadu_ps(p);
    _mm_storeu_ps(p, _mm_add_ps(v, v));
    auto w = _mm256_loadu_ps(p);
    _mm256_storeu_ps(p, w);
}

void
badNeon(float *p, signed char *q)
{
    auto v = vld1q_f32(p);
    vst1q_f32(p, vaddq_f32(v, v));
    auto b = vld1q_s8(q);
    vst1q_s8(q, b);
}
