#include "nn/conv.h"

#include <cstddef>
#include <cstring>

#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace mhbench::nn {
Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias)
    : stride_(stride), pad_h_(pad), pad_w_(pad) {
  MHB_CHECK_GT(in_channels, 0);
  MHB_CHECK_GT(out_channels, 0);
  MHB_CHECK_GT(kernel, 0);
  const int fan_in = in_channels * kernel * kernel;
  weight_ = Parameter(KaimingNormal(
      {out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) bias_ = Parameter(Tensor({out_channels}));
}

Conv2d::Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad)
    : Conv2d(std::move(weight), std::move(bias_or_empty), stride, pad, pad) {}

Conv2d::Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad_h,
               int pad_w)
    : stride_(stride), pad_h_(pad_h), pad_w_(pad_w) {
  MHB_CHECK_EQ(weight.ndim(), 4);
  if (!bias_or_empty.empty()) {
    MHB_CHECK_EQ(bias_or_empty.ndim(), 1);
    MHB_CHECK_EQ(bias_or_empty.dim(0), weight.dim(0));
    bias_ = Parameter(std::move(bias_or_empty));
  }
  weight_ = Parameter(std::move(weight));
}

Tensor Conv2d::Forward(const Tensor& x, bool /*train*/) {
  obs::ProfileScope profile_scope("conv2d_fwd");
  MHB_CHECK_EQ(x.ndim(), 4);
  MHB_CHECK_EQ(x.dim(1), in_channels());
  cached_input_shape_ = x.shape();
  const int n = x.dim(0);
  const int oc = out_channels();
  const int oh = (x.dim(2) + 2 * pad_h_ - kernel_h()) / stride_ + 1;
  const int ow = (x.dim(3) + 2 * pad_w_ - kernel_w()) / stride_ + 1;

  // The column matrix lives in a member tensor so repeated steps with the
  // same geometry reuse the buffer; Backward reads it back.
  ops::Im2ColT(x, kernel_h(), kernel_w(), stride_, pad_h_, pad_w_,
               cached_cols_);
  const int ickk = cached_cols_.dim(0);
  const int cols = cached_cols_.dim(1);

  // outᵀ[out_c, N*OH*OW] = W · colsᵀ, staged in the scratch arena; the
  // weight tensor [oc, ic, kh, kw] is read as a flat [oc, ickk] matrix.
  kernels::ScratchScope scratch;
  float* out_t = scratch.Alloc(static_cast<std::size_t>(oc) * cols);
  kernels::Gemm(false, false, oc, cols, ickk, weight_.value.data().data(),
                ickk, cached_cols_.data().data(), cols, 0.0f, out_t, cols);

  // Each outᵀ row holds one channel's OH*OW planes image after image; the
  // bias goes on after the whole contraction, as the fused GEMM epilogue
  // would add it.
  Tensor out = Tensor::Uninitialized({n, oc, oh, ow});
  const std::size_t ohw = static_cast<std::size_t>(oh) * ow;
  const Scalar* bias = has_bias() ? bias_.value.data().data() : nullptr;
  Scalar* dst = out.data().data();
  for (int b = 0; b < n; ++b) {
    for (int o = 0; o < oc; ++o, dst += ohw) {
      const Scalar* src = out_t + o * static_cast<std::size_t>(cols) + b * ohw;
      if (bias == nullptr) {
        std::memcpy(dst, src, ohw * sizeof(Scalar));
      } else {
        for (std::size_t i = 0; i < ohw; ++i) dst[i] = src[i] + bias[o];
      }
    }
  }
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("conv2d_bwd");
  MHB_CHECK(!cached_cols_.empty()) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 4);
  MHB_CHECK_EQ(grad_out.dim(0), cached_input_shape_[0]);
  MHB_CHECK_EQ(grad_out.dim(1), out_channels());
  const int n = grad_out.dim(0);
  const int oc = out_channels();
  const int ickk = cached_cols_.dim(0);
  const int cols = cached_cols_.dim(1);
  const std::size_t ohw = static_cast<std::size_t>(grad_out.dim(2)) *
                          grad_out.dim(3);
  MHB_CHECK_EQ(static_cast<std::size_t>(n) * ohw,
               static_cast<std::size_t>(cols));

  // gᵀ[out_c, N*OH*OW]: grad_out's channel planes laid end to end per
  // channel.  The bias gradient sums each channel in (n, oy, ox) order.
  kernels::ScratchScope scratch;
  float* g_t = scratch.Alloc(static_cast<std::size_t>(oc) * cols);
  Scalar* db = has_bias() ? bias_.grad.data().data() : nullptr;
  const Scalar* src = grad_out.data().data();
  for (int b = 0; b < n; ++b) {
    for (int o = 0; o < oc; ++o, src += ohw) {
      std::memcpy(g_t + o * static_cast<std::size_t>(cols) + b * ohw, src,
                  ohw * sizeof(Scalar));
      if (db != nullptr) {
        Scalar sum = db[o];
        for (std::size_t i = 0; i < ohw; ++i) sum += src[i];
        db[o] = sum;
      }
    }
  }

  // dW += gᵀ · cols, accumulated straight into the flat [oc, ickk] view of
  // the weight gradient (beta = 1).
  kernels::Gemm(false, true, oc, ickk, cols, g_t, cols,
                cached_cols_.data().data(), cols, 1.0f,
                weight_.grad.data().data(), ickk);

  // dcolsᵀ = Wᵀ · gᵀ, then scatter back to the input shape.
  float* dcols_t = scratch.Alloc(static_cast<std::size_t>(ickk) * cols);
  kernels::Gemm(true, false, ickk, cols, oc, weight_.value.data().data(),
                ickk, g_t, cols, 0.0f, dcols_t, cols);
  Tensor dx(cached_input_shape_);
  ops::Col2ImTAcc(dcols_t, cached_input_shape_, kernel_h(), kernel_w(),
                  stride_, pad_h_, pad_w_, dx.data().data());
  return dx;
}

void Conv2d::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "weight"), &weight_});
  if (has_bias()) out.push_back({JoinName(prefix, "bias"), &bias_});
}

namespace {
Tensor Unsqueeze1dWeight(Tensor w) {
  MHB_CHECK_EQ(w.ndim(), 3);
  const int oc = w.dim(0), ic = w.dim(1), k = w.dim(2);
  return w.Reshape({oc, ic, 1, k});
}
}  // namespace

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias)
    : conv_(KaimingNormal({out_channels, in_channels, 1, kernel},
                          in_channels * kernel, rng),
            bias ? Tensor({out_channels}) : Tensor(), stride, /*pad_h=*/0,
            pad) {}

Conv1d::Conv1d(Tensor weight, Tensor bias_or_empty, int stride, int pad)
    : conv_(Unsqueeze1dWeight(std::move(weight)), std::move(bias_or_empty),
            stride, /*pad_h=*/0, pad) {}

Tensor Conv1d::Forward(const Tensor& x, bool train) {
  MHB_CHECK_EQ(x.ndim(), 3);  // [N, C, L]
  const int n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const Tensor x4 = x.Reshape({n, c, 1, l});
  Tensor y4 = conv_.Forward(x4, train);  // [N, OC, 1, OL]
  return y4.Reshape({y4.dim(0), y4.dim(1), y4.dim(3)});
}

Tensor Conv1d::Backward(const Tensor& grad_out) {
  MHB_CHECK_EQ(grad_out.ndim(), 3);
  const int n = grad_out.dim(0), c = grad_out.dim(1), l = grad_out.dim(2);
  Tensor gx4 = conv_.Backward(grad_out.Reshape({n, c, 1, l}));
  return gx4.Reshape({gx4.dim(0), gx4.dim(1), gx4.dim(3)});
}

void Conv1d::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  conv_.CollectParams(prefix, out);
}

}  // namespace mhbench::nn
