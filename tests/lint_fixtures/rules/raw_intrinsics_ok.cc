// Negative fixture: raw-intrinsics — intrinsic-shaped spellings that
// must stay clean. Never compiled.

struct Vec
{
    float lane(float x) const { return x; }
};

// Intrinsic-like names defined with an explicit qualifier: exempt.
float Vec::vaddq_f32(float x) const { return lane(x); }
float Vec::_mm_helper(float x) const { return lane(x); }

float
fine(const Vec &v, const float *data, int n)
{
    float acc = v.vaddq_f32(1.0f) + v._mm_helper(2.0f);
    // A v-prefixed name whose lane suffix is not terminal.
    const auto vscale_f32_apply = [](float x) { return x * 2.0f; };
    acc += vscale_f32_apply(acc);
    // A lane-typed identifier that is indexed, not called.
    for (int i = 0; i < n; ++i)
        acc += data[i];
    int lanes_f32[4] = {0, 1, 2, 3};
    acc += static_cast<float>(lanes_f32[0]);
    // "_mm_add_ps(" inside a string literal stays invisible.
    const char *doc = "wrapper over _mm_add_ps( and vld1q_f32(";
    return acc + static_cast<float>(doc[0]);
}
