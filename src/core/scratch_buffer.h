#ifndef MTIA_CORE_SCRATCH_BUFFER_H_
#define MTIA_CORE_SCRATCH_BUFFER_H_

/**
 * @file
 * Grow-only, cache-line-aligned, uninitialized kernel scratch. Hot
 * kernels hold one per thread (`thread_local`), so repeated calls
 * neither allocate nor first-touch fresh pages: the GEMM's pack
 * panels (core/simd_gemm.cc) and the TBE row cache (ops/sparse_ops.cc).
 */

#include <cstddef>
#include <cstdint>
#include <new>

#include "core/simd.h"

namespace mtia {

/**
 * A request no larger than the capacity reuses the storage; a larger
 * one replaces it, so what a buffer retains is the largest request it
 * has served. Contents are never zeroed and do not survive a
 * replacement: callers write every slot they read.
 */
class ScratchBuffer
{
  public:
    ScratchBuffer() = default;
    ScratchBuffer(const ScratchBuffer &) = delete;
    ScratchBuffer &operator=(const ScratchBuffer &) = delete;
    ~ScratchBuffer() { release(); }

    template <typename T>
    T *
    get(std::int64_t n)
    {
        const auto bytes = static_cast<std::size_t>(n) * sizeof(T);
        if (bytes > bytes_) {
            release();
            ptr_ = ::operator new(bytes, std::align_val_t{simd::kAlignment});
            bytes_ = bytes;
        }
        return static_cast<T *>(ptr_);
    }

  private:
    void
    release()
    {
        if (ptr_ != nullptr)
            ::operator delete(ptr_, std::align_val_t{simd::kAlignment});
        ptr_ = nullptr;
        bytes_ = 0;
    }

    void *ptr_ = nullptr;
    std::size_t bytes_ = 0;
};

} // namespace mtia

#endif // MTIA_CORE_SCRATCH_BUFFER_H_
