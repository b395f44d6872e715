// Deliberately broken file seeding the scalar-hot-loop rule: a
// per-element dtype conversion inside a loop, outside the kernel
// layer (src/tensor/dtype.*). Never compiled — the LintFixtures
// gtest asserts the linter flags it.

#include <cstdint>
#include <vector>

namespace mtia {

std::uint16_t fp32ToFp16Bits(float f);
float fp16BitsToFp32(std::uint16_t h);

float
scalarHotLoop(const std::vector<float> &src)
{
    float sum = 0.0f;
    // scalar-hot-loop: bulk conversion one element at a time; this
    // must go through convertBuffer so the batch kernels run.
    for (const float v : src)
        sum += fp16BitsToFp32(fp32ToFp16Bits(v));
    return sum;
}

} // namespace mtia
