#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"

namespace mhbench::ops {
namespace {

// Iterates over every combination of the given per-dimension index lists in
// contiguous blocks.  The longest suffix of unindexed dimensions is folded
// into one block of `block` elements that is contiguous in both the small
// and the large tensor, so the gather/scatter family runs a bulk
// memcpy/vector loop per block instead of a lambda call per element.  The
// callback receives (small_off, large_off, block).
template <typename Fn>
void ForEachSelectedBlock(const Shape& full_shape, const DimIndices& index,
                          Fn&& fn) {
  const int nd = static_cast<int>(full_shape.size());
  MHB_CHECK_EQ(static_cast<int>(index.size()), nd);
  if (ShapeNumel(full_shape) == 0) return;

  // Contiguous tail: trailing dims kept whole.
  int lead = nd;
  std::size_t block = 1;
  while (lead > 0 && !index[static_cast<std::size_t>(lead - 1)].has_value()) {
    --lead;
    block *= static_cast<std::size_t>(full_shape[static_cast<std::size_t>(lead)]);
  }

  // Effective per-dimension index lists for the leading dims (identity when
  // absent), validated against the large tensor's extents.
  std::vector<std::vector<int>> idx(static_cast<std::size_t>(lead));
  for (int d = 0; d < lead; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (index[du].has_value()) {
      idx[du] = *index[du];
      for (int i : idx[du]) {
        MHB_CHECK(i >= 0 && i < full_shape[du])
            << "index" << i << "out of range for dim" << d << "of"
            << ShapeToString(full_shape);
      }
    } else {
      idx[du].resize(static_cast<std::size_t>(full_shape[du]));
      for (int i = 0; i < full_shape[du]; ++i) {
        idx[du][static_cast<std::size_t>(i)] = i;
      }
    }
  }

  // Strides of the large tensor over the leading dims, in units of `block`.
  std::vector<std::size_t> stride(static_cast<std::size_t>(lead), 1);
  for (int d = lead - 2; d >= 0; --d) {
    const auto du = static_cast<std::size_t>(d);
    stride[du] = stride[du + 1] * static_cast<std::size_t>(full_shape[du + 1]);
  }

  if (lead == 0) {
    fn(std::size_t{0}, std::size_t{0}, block);
    return;
  }

  // Odometer over the small tensor's leading coordinates.
  std::vector<std::size_t> pos(static_cast<std::size_t>(lead), 0);
  std::size_t small_off = 0;
  for (;;) {
    std::size_t large_off = 0;
    for (int d = 0; d < lead; ++d) {
      const auto du = static_cast<std::size_t>(d);
      large_off += stride[du] * static_cast<std::size_t>(idx[du][pos[du]]);
    }
    fn(small_off, large_off * block, block);
    small_off += block;
    int d = lead - 1;
    for (; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      if (++pos[du] < idx[du].size()) break;
      pos[du] = 0;
    }
    if (d < 0) break;
  }
}

Shape SelectedShape(const Shape& full_shape, const DimIndices& index) {
  Shape out = full_shape;
  for (std::size_t d = 0; d < index.size(); ++d) {
    if (index[d].has_value()) {
      MHB_CHECK(!index[d]->empty()) << "empty index list for dim" << d;
      out[d] = static_cast<int>(index[d]->size());
    }
  }
  return out;
}

// Output extent of one convolution axis.
int ConvOut(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// The output positions [lo, hi) along one axis whose kernel tap at offset
// `k` reads input index o*stride + k - pad inside [0, in); the others read
// padding.
struct TapSpan {
  int lo;
  int hi;
};
TapSpan SpanOf(int in, int out, int k, int stride, int pad) {
  const int first = pad - k;    // o*stride >= first
  const int end = in + pad - k;  // o*stride < end
  const int lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  const int hi = end <= 0 ? 0 : std::min(out, (end + stride - 1) / stride);
  return {std::min(lo, hi), hi};
}

void AddRun(float* __restrict dst, const float* __restrict src,
            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

// One image's OH x OW block of the colsᵀ row for the tap at input offset
// (dy, dx) = (ky - pad_h, kx - pad_w): dst[oy*ow + ox] reads the input
// plane `src` at (oy*stride + dy, ox*stride + dx), zero in the padding.
void Im2ColTapPlane(const Scalar* src, int w, int oh, int ow, int stride,
                    TapSpan ys, TapSpan xs, int dy, int dx, Scalar* dst) {
  const auto o = static_cast<std::size_t>(ow);
  if (ys.lo == ys.hi || xs.lo == xs.hi) {
    std::fill(dst, dst + oh * o, 0.0f);
    return;
  }
  std::fill(dst, dst + ys.lo * o, 0.0f);
  std::fill(dst + ys.hi * o, dst + oh * o, 0.0f);
  if (stride == 1 && ow == w) {
    // Block and plane rows share a stride, so the valid rows are one
    // contiguous copy; it overruns into the padding columns, which are
    // zeroed below.
    const std::size_t start = ys.lo * o + xs.lo;
    const std::size_t end = (ys.hi - 1) * o + xs.hi;
    std::memcpy(dst + start,
                src + (static_cast<std::ptrdiff_t>(start) + dy * w + dx),
                (end - start) * sizeof(Scalar));
  } else {
    for (int oy = ys.lo; oy < ys.hi; ++oy) {
      Scalar* d = dst + oy * o;
      const Scalar* line =
          src + static_cast<std::size_t>(oy * stride + dy) * w;
      for (int ox = xs.lo; ox < xs.hi; ++ox) d[ox] = line[ox * stride + dx];
    }
  }
  for (int oy = ys.lo; oy < ys.hi; ++oy) {
    Scalar* d = dst + oy * o;
    std::fill(d, d + xs.lo, 0.0f);
    std::fill(d + xs.hi, d + ow, 0.0f);
  }
}

// Adjoint of Im2ColTapPlane: adds the block `src` back into the input
// plane `dst`, one contribution per element.
void Col2ImTapPlane(const Scalar* src, int w, int ow, int stride, TapSpan ys,
                    TapSpan xs, int dy, int dx, Scalar* dst) {
  if (ys.lo == ys.hi || xs.lo == xs.hi) return;
  const auto o = static_cast<std::size_t>(ow);
  if (stride == 1 && ow == w && xs.lo == 0 && xs.hi == ow) {
    // A full-width tap (dx == 0): the valid rows are one contiguous run.
    AddRun(dst + static_cast<std::size_t>(ys.lo + dy) * w, src + ys.lo * o,
           (ys.hi - ys.lo) * o);
    return;
  }
  for (int oy = ys.lo; oy < ys.hi; ++oy) {
    Scalar* line = dst + static_cast<std::size_t>(oy * stride + dy) * w;
    const Scalar* s = src + oy * o;
    if (stride == 1) {
      AddRun(line + (xs.lo + dx), s + xs.lo,
             static_cast<std::size_t>(xs.hi - xs.lo));
    } else {
      for (int ox = xs.lo; ox < xs.hi; ++ox) line[ox * stride + dx] += s[ox];
    }
  }
}

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MHB_CHECK_EQ(k, b.dim(0));
  Tensor c = Tensor::Uninitialized({m, n});
  kernels::Gemm(false, false, m, n, k, a.data().data(), k, b.data().data(),
                n, 0.0f, c.data().data(), n);
  return c;
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  MHB_CHECK_EQ(k, b.dim(1));
  Tensor c = Tensor::Uninitialized({m, n});
  kernels::Gemm(false, true, m, n, k, a.data().data(), k, b.data().data(), k,
                0.0f, c.data().data(), n);
  return c;
}

Tensor MatmulTransA(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MHB_CHECK_EQ(m, b.dim(0));
  Tensor c = Tensor::Uninitialized({k, n});
  kernels::Gemm(true, false, k, n, m, a.data().data(), k, b.data().data(), n,
                0.0f, c.data().data(), n);
  return c;
}

Tensor Transpose2d(const Tensor& a) {
  MHB_CHECK_EQ(a.ndim(), 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Uninitialized({n, m});
  const Scalar* in = a.data().data();
  Scalar* o = out.data().data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      o[static_cast<std::size_t>(j) * m + i] =
          in[static_cast<std::size_t>(i) * n + j];
    }
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out = Tensor::Uninitialized({n, c});
  for (int i = 0; i < n; ++i) {
    const Scalar* row = logits.data().data() + static_cast<std::size_t>(i) * c;
    Scalar* orow = out.data().data() + static_cast<std::size_t>(i) * c;
    Scalar mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const Scalar inv = static_cast<Scalar>(1.0 / sum);
    for (int j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out = Tensor::Uninitialized({n, c});
  for (int i = 0; i < n; ++i) {
    const Scalar* row = logits.data().data() + static_cast<std::size_t>(i) * c;
    Scalar* orow = out.data().data() + static_cast<std::size_t>(i) * c;
    Scalar mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < c; ++j) sum += std::exp(row[j] - mx);
    const Scalar lse = mx + static_cast<Scalar>(std::log(sum));
    for (int j = 0; j < c; ++j) orow[j] = row[j] - lse;
  }
  return out;
}

std::vector<int> ArgmaxRows(const Tensor& t) {
  MHB_CHECK_EQ(t.ndim(), 2);
  const int n = t.dim(0), c = t.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Scalar* row = t.data().data() + static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

void Im2ColT(const Tensor& input, int kh, int kw, int stride, int pad_h,
             int pad_w, Tensor& cols_t) {
  MHB_CHECK_EQ(input.ndim(), 4);
  MHB_CHECK_GT(stride, 0);
  MHB_CHECK_GE(pad_h, 0);
  MHB_CHECK_GE(pad_w, 0);
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = ConvOut(h, kh, stride, pad_h);
  const int ow = ConvOut(w, kw, stride, pad_w);
  MHB_CHECK_GT(oh, 0);
  MHB_CHECK_GT(ow, 0);
  const int shape[2] = {c * kh * kw, n * oh * ow};
  cols_t.ResizeUninitialized(shape);
  const Scalar* in = input.data().data();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t ohw = static_cast<std::size_t>(oh) * ow;
  Scalar* dst = cols_t.data().data();
  for (int ch = 0; ch < c; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      const TapSpan ys = SpanOf(h, oh, ky, stride, pad_h);
      for (int kx = 0; kx < kw; ++kx) {
        const TapSpan xs = SpanOf(w, ow, kx, stride, pad_w);
        for (int b = 0; b < n; ++b, dst += ohw) {
          Im2ColTapPlane(in + (static_cast<std::size_t>(b) * c + ch) * plane,
                         w, oh, ow, stride, ys, xs, ky - pad_h, kx - pad_w,
                         dst);
        }
      }
    }
  }
}

void Col2ImTAcc(const float* cols_t, const Shape& input_shape, int kh,
                int kw, int stride, int pad_h, int pad_w, float* out) {
  MHB_CHECK_EQ(static_cast<int>(input_shape.size()), 4);
  const int n = input_shape[0], c = input_shape[1], h = input_shape[2],
            w = input_shape[3];
  const int oh = ConvOut(h, kh, stride, pad_h);
  const int ow = ConvOut(w, kw, stride, pad_w);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t ohw = static_cast<std::size_t>(oh) * ow;
  // An input element meets tap (ky, kx) at oy = (iy + pad_h - ky)/stride,
  // which falls as ky rises: walking the taps from the last to the first
  // adds each element's contributions in ascending (oy, ox) order.
  for (int ch = 0; ch < c; ++ch) {
    for (int ky = kh - 1; ky >= 0; --ky) {
      const TapSpan ys = SpanOf(h, oh, ky, stride, pad_h);
      for (int kx = kw - 1; kx >= 0; --kx) {
        const TapSpan xs = SpanOf(w, ow, kx, stride, pad_w);
        const Scalar* src =
            cols_t + (static_cast<std::size_t>(ch * kh + ky) * kw + kx) *
                         (n * ohw);
        for (int b = 0; b < n; ++b, src += ohw) {
          Col2ImTapPlane(src, w, ow, stride, ys, xs, ky - pad_h, kx - pad_w,
                         out + (static_cast<std::size_t>(b) * c + ch) * plane);
        }
      }
    }
  }
}

Tensor GatherDims(const Tensor& src, const DimIndices& index) {
  Tensor out = Tensor::Uninitialized(SelectedShape(src.shape(), index));
  const Scalar* ps = src.data().data();
  Scalar* po = out.data().data();
  ForEachSelectedBlock(
      src.shape(), index,
      [&](std::size_t small_off, std::size_t large_off, std::size_t block) {
        std::memcpy(po + small_off, ps + large_off, block * sizeof(Scalar));
      });
  return out;
}

void ScatterAddDims(Tensor& dst, const Tensor& src, const DimIndices& index) {
  const Shape expect = SelectedShape(dst.shape(), index);
  MHB_CHECK(src.shape() == expect)
      << "scatter source" << ShapeToString(src.shape()) << "expected"
      << ShapeToString(expect);
  const Scalar* ps = src.data().data();
  Scalar* pd = dst.data().data();
  ForEachSelectedBlock(
      dst.shape(), index,
      [&](std::size_t small_off, std::size_t large_off, std::size_t block) {
        const Scalar* s = ps + small_off;
        Scalar* d = pd + large_off;
        for (std::size_t i = 0; i < block; ++i) d[i] += s[i];
      });
}

void ScatterAxpyDims(Tensor& dst, Scalar alpha, const Tensor& src,
                     const DimIndices& index) {
  const Shape expect = SelectedShape(dst.shape(), index);
  MHB_CHECK(src.shape() == expect)
      << "scatter source" << ShapeToString(src.shape()) << "expected"
      << ShapeToString(expect);
  const Scalar* ps = src.data().data();
  Scalar* pd = dst.data().data();
  ForEachSelectedBlock(
      dst.shape(), index,
      [&](std::size_t small_off, std::size_t large_off, std::size_t block) {
        const Scalar* s = ps + small_off;
        Scalar* d = pd + large_off;
        for (std::size_t i = 0; i < block; ++i) d[i] += alpha * s[i];
      });
}

void ScatterAddScalarDims(Tensor& dst, Scalar value, const DimIndices& index) {
  Scalar* pd = dst.data().data();
  ForEachSelectedBlock(
      dst.shape(), index,
      [&](std::size_t, std::size_t large_off, std::size_t block) {
        Scalar* d = pd + large_off;
        for (std::size_t i = 0; i < block; ++i) d[i] += value;
      });
}

void ScatterAssignDims(Tensor& dst, const Tensor& src,
                       const DimIndices& index) {
  const Shape expect = SelectedShape(dst.shape(), index);
  MHB_CHECK(src.shape() == expect)
      << "scatter source" << ShapeToString(src.shape()) << "expected"
      << ShapeToString(expect);
  const Scalar* ps = src.data().data();
  Scalar* pd = dst.data().data();
  ForEachSelectedBlock(
      dst.shape(), index,
      [&](std::size_t small_off, std::size_t large_off, std::size_t block) {
        std::memcpy(pd + large_off, ps + small_off, block * sizeof(Scalar));
      });
}

void ScatterCountDims(Tensor& counts, const DimIndices& index) {
  ScatterAddScalarDims(counts, 1.0f, index);
}

}  // namespace mhbench::ops
