#include "pe/mlu.h"

#include <algorithm>

#include "core/check.h"

namespace mtia {

Tensor
MemoryLayoutUnit::transpose(const Tensor &t)
{
    MTIA_CHECK_EQ(t.shape().rank(), 2u)
        << ": MLU::transpose expects rank 2";
    const std::int64_t m = t.shape().dim(0);
    const std::int64_t n = t.shape().dim(1);
    Tensor out(Shape{n, m}, t.dtype());
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            out.set2(j, i, t.at2(i, j));
    return out;
}

Tensor
MemoryLayoutUnit::permute3(const Tensor &t, const std::array<int, 3> &perm)
{
    MTIA_CHECK_EQ(t.shape().rank(), 3u)
        << ": MLU::permute3 expects rank 3";
    const std::int64_t d0 = t.shape().dim(0);
    const std::int64_t d1 = t.shape().dim(1);
    const std::int64_t d2 = t.shape().dim(2);
    const std::int64_t in_dims[3] = {d0, d1, d2};
    Shape out_shape{in_dims[perm[0]], in_dims[perm[1]], in_dims[perm[2]]};
    Tensor out(out_shape, t.dtype());
    for (std::int64_t i = 0; i < d0; ++i) {
        for (std::int64_t j = 0; j < d1; ++j) {
            for (std::int64_t k = 0; k < d2; ++k) {
                const std::int64_t idx[3] = {i, j, k};
                const std::int64_t oi = idx[perm[0]];
                const std::int64_t oj = idx[perm[1]];
                const std::int64_t ok = idx[perm[2]];
                out.set((oi * out_shape.dim(1) + oj) * out_shape.dim(2) +
                            ok,
                        t.at((i * d1 + j) * d2 + k));
            }
        }
    }
    return out;
}

Tensor
MemoryLayoutUnit::concat(const std::vector<Tensor> &parts, int axis)
{
    MTIA_CHECK(!parts.empty()) << ": MLU::concat with no parts";
    MTIA_CHECK(axis == 0 || axis == 1)
        << ": MLU::concat axis " << axis << " not supported";
    const DType dt = parts[0].dtype();
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const Shape &s = parts[p].shape();
        MTIA_CHECK_EQ(s.rank(), 2u)
            << ": MLU::concat part " << p << " must be rank 2";
        MTIA_CHECK(parts[p].dtype() == dt)
            << ": MLU::concat part " << p << " is "
            << dtypeName(parts[p].dtype()) << ", part 0 is "
            << dtypeName(dt);
        if (p == 0) {
            rows = s.dim(0);
            cols = s.dim(1);
        } else if (axis == 0) {
            MTIA_CHECK_EQ(s.dim(1), cols)
                << ": MLU::concat part " << p << " column mismatch";
            rows += s.dim(0);
        } else {
            MTIA_CHECK_EQ(s.dim(0), rows)
                << ": MLU::concat part " << p << " row mismatch";
            cols += s.dim(1);
        }
    }
    // Same dtype throughout, so rows move as raw bytes.
    Tensor out(Shape{rows, cols}, dt);
    std::uint8_t *dst = out.raw().data();
    if (axis == 0) {
        for (const Tensor &p : parts)
            dst = std::copy_n(p.raw().data(), p.raw().size(), dst);
        return out;
    }
    const std::size_t elem = dtypeSize(dt);
    for (std::int64_t i = 0; i < rows; ++i) {
        for (const Tensor &p : parts) {
            const std::size_t row =
                static_cast<std::size_t>(p.shape().dim(1)) * elem;
            dst = std::copy_n(
                p.raw().data() + static_cast<std::size_t>(i) * row, row,
                dst);
        }
    }
    return out;
}

Tensor
MemoryLayoutUnit::sliceRows(const Tensor &t, std::int64_t begin,
                            std::int64_t end)
{
    MTIA_CHECK_EQ(t.shape().rank(), 2u)
        << ": MLU::sliceRows expects rank 2";
    MTIA_CHECK_GE(begin, 0) << ": MLU::sliceRows range start";
    MTIA_CHECK_LE(end, t.shape().dim(0)) << ": MLU::sliceRows range end";
    MTIA_CHECK_LE(begin, end) << ": MLU::sliceRows reversed range";
    Tensor out(Shape{end - begin, t.shape().dim(1)}, t.dtype());
    const std::size_t row = static_cast<std::size_t>(t.shape().dim(1)) *
        dtypeSize(t.dtype());
    std::copy_n(t.raw().data() + static_cast<std::size_t>(begin) * row,
                out.raw().size(), out.raw().data());
    return out;
}

Tensor
MemoryLayoutUnit::reshape(const Tensor &t, Shape new_shape)
{
    MTIA_CHECK_EQ(new_shape.numel(), t.numel())
        << ": MLU::reshape must preserve the element count";
    Tensor out(new_shape, t.dtype());
    out.raw() = t.raw();
    return out;
}

} // namespace mtia
