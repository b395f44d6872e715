#ifndef MTIA_TENSOR_TENSOR_H_
#define MTIA_TENSOR_TENSOR_H_

/**
 * @file
 * Dense tensor storing raw bytes in its logical dtype. Elements are
 * read and written through float accessors that perform the bit-exact
 * dtype conversion, while the raw byte view is available for the
 * error-injection and compression experiments, which operate on real
 * memory representations.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "sim/random.h"
#include "sim/types.h"
#include "tensor/dtype.h"

namespace mtia {

/** Tensor shape: a small vector of dimension extents. */
class Shape
{
  public:
    Shape() = default;
    Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
    explicit Shape(std::vector<std::int64_t> dims)
        : dims_(std::move(dims)) {}

    std::size_t rank() const { return dims_.size(); }
    std::int64_t dim(std::size_t i) const
    {
        MTIA_CHECK(i < dims_.size())
            << ": Shape::dim axis " << i << " out of rank " << dims_.size();
        return dims_[i];
    }
    std::int64_t numel() const;

    const std::vector<std::int64_t> &dims() const { return dims_; }

    bool operator==(const Shape &o) const { return dims_ == o.dims_; }

    std::string toString() const;

  private:
    std::vector<std::int64_t> dims_;
};

/** Dense tensor with dtype-typed raw storage. */
class Tensor
{
  public:
    Tensor() = default;
    Tensor(Shape shape, DType dtype);

    const Shape &shape() const { return shape_; }
    DType dtype() const { return dtype_; }
    std::int64_t numel() const { return shape_.numel(); }
    Bytes sizeBytes() const { return data_.size(); }

    /** Read element @p i (flat index) converted to float. */
    float at(std::int64_t i) const;

    /** Write element @p i (flat index), converting to the dtype. */
    void set(std::int64_t i, float v);

    /** Read element at (row, col) of a rank-2 tensor. */
    float at2(std::int64_t row, std::int64_t col) const;

    /** Write element at (row, col) of a rank-2 tensor. */
    void set2(std::int64_t row, std::int64_t col, float v);

    /** Element storage of an FP32 tensor (a contract violation for
     *  any other dtype). */
    float *f32Data();
    const float *f32Data() const;

    /** Raw byte storage (for injection / compression). */
    std::vector<std::uint8_t> &raw() { return data_; }
    const std::vector<std::uint8_t> &raw() const { return data_; }

    /** Flip one bit of the raw representation. */
    void flipBit(std::uint64_t bit_index);

    /** Fill with i.i.d. Gaussian(mean, stddev) values. */
    void fillGaussian(Rng &rng, float mean = 0.0f, float stddev = 1.0f);

    /** Fill with uniform values in [lo, hi). */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Fill every element with a constant. */
    void fill(float v);

    /** Copy converted to another dtype (values round-trip). */
    Tensor cast(DType to) const;

    /** Materialize as a flat float vector. */
    std::vector<float> toFloats() const;

    /** Build from a flat float vector. */
    static Tensor fromFloats(const std::vector<float> &vals, Shape shape,
                             DType dtype = DType::FP32);

    /** True if any element is NaN or Inf. */
    bool hasNonFinite() const;

    /** Max |a_i - b_i| between two same-shaped tensors. */
    static double maxAbsDiff(const Tensor &a, const Tensor &b);

    /** Root-mean-square difference between two same-shaped tensors. */
    static double rmse(const Tensor &a, const Tensor &b);

  private:
    Shape shape_;
    DType dtype_ = DType::FP32;
    std::vector<std::uint8_t> data_;
};

/**
 * Contiguous FP32 view of a tensor's elements for row loops: borrows
 * an FP32 tensor's storage, and holds a converted copy (toFloats) of
 * any other dtype. Valid while the viewed tensor is unchanged.
 */
class FloatView
{
  public:
    explicit FloatView(const Tensor &t);
    FloatView(const FloatView &) = delete;
    FloatView &operator=(const FloatView &) = delete;

    const float *data() const { return data_; }

  private:
    std::vector<float> converted_;
    const float *data_;
};

} // namespace mtia

#endif // MTIA_TENSOR_TENSOR_H_
