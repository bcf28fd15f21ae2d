// Free-function tensor operations: GEMM variants, im2col for convolutions,
// softmax, and the gather/scatter primitives that sub-model extraction and
// masked federated aggregation are built on.
//
// The GEMM family routes through the packed kernel layer in
// tensor/gemm.h; the in-place `Im2ColT` and raw-pointer `Col2ImTAcc` let
// layers keep column matrices in reused tensors and the per-thread scratch
// arena (tensor/scratch.h) instead of allocating fresh tensors every
// minibatch.
#pragma once

#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace mhbench::ops {

// C[m,n] = A[m,k] * B[k,n].
Tensor Matmul(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] * B[n,k]^T.
Tensor MatmulTransB(const Tensor& a, const Tensor& b);

// C[k,n] = A[m,k]^T * B[m,n].
Tensor MatmulTransA(const Tensor& a, const Tensor& b);

// Transpose of a rank-2 tensor.
Tensor Transpose2d(const Tensor& a);

// Row-wise softmax of logits [n, c].
Tensor SoftmaxRows(const Tensor& logits);

// Row-wise log-softmax of logits [n, c].
Tensor LogSoftmaxRows(const Tensor& logits);

// Index of the max element in each row of [n, c].
std::vector<int> ArgmaxRows(const Tensor& t);

// Channel-major im2col for 2-D convolution.  Resizes `cols_t` to the
// column matrix [C*KH*KW, N*OH*OW] of `input` [N, C, H, W] and fills it:
// row (c, ky, kx) holds, for each output position (n, oy, ox) in order,
// the input pixel that kernel tap meets there — zero where it lands in the
// padding (pad_h, pad_w).  With the columns on the long N*OH*OW axis, a
// convolution is W[out_c, C*KH*KW] · colsᵀ: one output channel per GEMM
// row, each row already NCHW-ordered within an image.
void Im2ColT(const Tensor& input, int kh, int kw, int stride, int pad_h,
             int pad_w, Tensor& cols_t);

// Accumulating adjoint of Im2ColT: adds the column matrix `cols_t`
// ([C*KH*KW, N*OH*OW] floats) back into the input-shaped gradient `out`
// (already initialized).  Each input element receives its contributions
// in ascending (oy, ox) order.
void Col2ImTAcc(const float* cols_t, const Shape& input_shape, int kh,
                int kw, int stride, int pad_h, int pad_w, float* out);

// Per-dimension index selection.  `index[d]`, when present, lists the kept
// indices along dimension d (in order, duplicates allowed); absent means
// keep the whole dimension.  This is the sub-model *extraction* primitive.
// Trailing unindexed dimensions form contiguous blocks, which the whole
// family processes with bulk memcpy/vector loops rather than per-element
// calls.
using DimIndices = std::vector<std::optional<std::vector<int>>>;
Tensor GatherDims(const Tensor& src, const DimIndices& index);

// Adjoint of GatherDims: adds `src` values into `dst` at the positions the
// index selects.  `dst` retains its shape.  This is the server-side
// *aggregation* primitive (scatter-add of client updates).
void ScatterAddDims(Tensor& dst, const Tensor& src, const DimIndices& index);

// Fused scaled scatter-add: dst[sel] += alpha * src.  Saves the aggregator
// a full weighted copy of every client tensor.
void ScatterAxpyDims(Tensor& dst, Scalar alpha, const Tensor& src,
                     const DimIndices& index);

// Adds the constant `value` at every selected position (the aggregation
// weight mass; generalizes ScatterCountDims).
void ScatterAddScalarDims(Tensor& dst, Scalar value, const DimIndices& index);

// Scatter-assign variant (overwrites instead of accumulating).
void ScatterAssignDims(Tensor& dst, const Tensor& src, const DimIndices& index);

// Adds 1 to `counts` at every position the index selects (for computing
// per-coordinate contribution counts during aggregation).
void ScatterCountDims(Tensor& counts, const DimIndices& index);

}  // namespace mhbench::ops
