#include "nn/conv.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/rng.h"
#include "grad_check.h"
#include "tensor/gemm.h"

namespace mhbench::nn {
namespace {

TEST(Conv2dTest, IdentityKernel) {
  // 1x1 kernel with weight 1 on a single channel is the identity.
  Conv2d conv(Tensor({1, 1, 1, 1}, {1.0f}), Tensor(), 1, 0);
  Rng rng(1);
  const Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  EXPECT_TRUE(conv.Forward(x, true).AllClose(x));
}

TEST(Conv2dTest, KnownSum3x3) {
  // All-ones 3x3 kernel with pad 1 computes neighborhood sums.
  Conv2d conv(Tensor({1, 1, 3, 3}, 1.0f), Tensor(), 1, 1);
  Tensor x({1, 1, 2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  const Tensor y = conv.Forward(x, true);
  // Every output = sum of all in-window pixels; corners see all 4 pixels
  // minus those outside.  For 2x2 all-window-covered: each output = 10 when
  // window covers everything; here (0,0) window covers pixels {1,2,3,4}.
  EXPECT_TRUE(y.AllClose(Tensor({1, 1, 2, 2}, std::vector<Scalar>{10, 10, 10, 10})));
}

TEST(Conv2dTest, BiasApplied) {
  Conv2d conv(Tensor({1, 1, 1, 1}, {0.0f}), Tensor::FromVector({3.0f}), 1, 0);
  Tensor x({1, 1, 2, 2});
  const Tensor y = conv.Forward(x, true);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Conv2dTest, OutputShapeStride2) {
  Rng rng(2);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Conv2dTest, InputChannelMismatchThrows) {
  Rng rng(3);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x({1, 2, 4, 4});
  EXPECT_THROW(conv.Forward(x, true), Error);
}

TEST(Conv2dTest, GradientCheck) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv2dTest, GradientCheckStride2NoBias) {
  Rng rng(5);
  Conv2d conv(2, 2, 3, 2, 1, rng, /*bias=*/false);
  const Tensor x = Tensor::Randn({1, 2, 6, 6}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv1dTest, ShapeAndGradient) {
  Rng rng(6);
  Conv1d conv(2, 4, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 8}, rng);
  const Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 4, 8}));
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv1dTest, StrideReducesLength) {
  Rng rng(7);
  Conv1d conv(1, 1, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({1, 1, 8}, rng);
  EXPECT_EQ(conv.Forward(x, true).shape(), Shape({1, 1, 4}));
}

TEST(Conv2dTest, ParamNames) {
  Rng rng(8);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  std::vector<NamedParam> params;
  conv.CollectParams("conv1", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv1/weight");
  EXPECT_EQ(params[1].name, "conv1/bias");
}

// The row-major formulation Conv2d used before its channel-major rewrite,
// kept as the bit-identity reference: cols[N*OH*OW, ickk] from a row-major
// im2col, rows = cols · Wᵀ + bias scattered to NCHW, and the transposed
// GEMMs plus a row-order col2im on the way back.
struct RowMajorConv {
  int kh, kw, stride, pad_h, pad_w;

  int OutH(int h) const { return (h + 2 * pad_h - kh) / stride + 1; }
  int OutW(int w) const { return (w + 2 * pad_w - kw) / stride + 1; }

  // [N*OH*OW, C*KH*KW], rows ordered (n, oy, ox), columns (c, ky, kx).
  std::vector<float> Im2Col(const Tensor& x) const {
    const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int oh = OutH(h), ow = OutW(w);
    std::vector<float> cols;
    for (int b = 0; b < n; ++b) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          for (int ch = 0; ch < c; ++ch) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy * stride + ky - pad_h;
                const int ix = ox * stride + kx - pad_w;
                const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
                cols.push_back(in ? x.at({b, ch, iy, ix}) : 0.0f);
              }
            }
          }
        }
      }
    }
    return cols;
  }

  Tensor Forward(const Tensor& x, const Tensor& weight,
                 const Tensor& bias) const {
    const int n = x.dim(0), oc = weight.dim(0);
    const int oh = OutH(x.dim(2)), ow = OutW(x.dim(3));
    const int rows_n = n * oh * ow;
    const int ickk = static_cast<int>(weight.numel()) / oc;
    const std::vector<float> cols = Im2Col(x);
    std::vector<float> rows(static_cast<std::size_t>(rows_n) * oc);
    kernels::Gemm(false, true, rows_n, oc, ickk, cols.data(), ickk,
                  weight.data().data(), ickk, 0.0f, rows.data(), oc,
                  bias.empty() ? nullptr : bias.data().data());
    Tensor out({n, oc, oh, ow});
    std::size_t row = 0;
    for (int b = 0; b < n; ++b) {
      for (int y = 0; y < oh; ++y) {
        for (int xx = 0; xx < ow; ++xx, ++row) {
          for (int c = 0; c < oc; ++c) {
            out.at({b, c, y, xx}) = rows[row * oc + static_cast<std::size_t>(c)];
          }
        }
      }
    }
    return out;
  }

  // Returns dx; accumulates into dw (and db when non-empty).
  Tensor Backward(const Tensor& x, const Tensor& weight, const Tensor& g,
                  Tensor& dw, Tensor& db) const {
    const int n = g.dim(0), oc = g.dim(1), oh = g.dim(2), ow = g.dim(3);
    const int rows_n = n * oh * ow;
    const int ickk = static_cast<int>(weight.numel()) / oc;
    const std::vector<float> cols = Im2Col(x);
    std::vector<float> grows;
    for (int b = 0; b < n; ++b) {
      for (int y = 0; y < oh; ++y) {
        for (int xx = 0; xx < ow; ++xx) {
          for (int c = 0; c < oc; ++c) grows.push_back(g.at({b, c, y, xx}));
        }
      }
    }
    kernels::Gemm(true, false, oc, ickk, rows_n, grows.data(), oc,
                  cols.data(), ickk, 1.0f, dw.data().data(), ickk);
    if (!db.empty()) {
      kernels::ColSumAcc(grows.data(), rows_n, oc, oc, db.data().data());
    }
    std::vector<float> dcols(static_cast<std::size_t>(rows_n) * ickk);
    kernels::Gemm(false, false, rows_n, ickk, oc, grows.data(), oc,
                  weight.data().data(), ickk, 0.0f, dcols.data(), ickk);
    Tensor dx(x.shape());
    const int c = x.dim(1), h = x.dim(2), w = x.dim(3);
    std::size_t at = 0;
    for (int b = 0; b < n; ++b) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          for (int ch = 0; ch < c; ++ch) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx, ++at) {
                const int iy = oy * stride + ky - pad_h;
                const int ix = ox * stride + kx - pad_w;
                if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                  dx.at({b, ch, iy, ix}) += dcols[at];
                }
              }
            }
          }
        }
      }
    }
    return dx;
  }
};

void ExpectBytesEqual(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.numel() * sizeof(Scalar)),
            0)
      << what << " differs from the row-major reference";
}

// One forward + backward through `conv` (whose weight/bias are read as the
// reference's) on `x`, checked byte for byte against RowMajorConv.  The
// weight and bias gradients start non-zero so the beta = 1 accumulation
// is covered too.
void ExpectMatchesRowMajor(Conv2d& conv, const Tensor& x, Rng& rng,
                           const std::string& what) {
  const RowMajorConv ref{conv.kernel_h(), conv.kernel_w(), conv.stride(),
                         conv.pad_h(), conv.pad_w()};
  const Tensor& weight = conv.weight().value;
  const Tensor bias = conv.has_bias() ? conv.bias().value : Tensor();
  ExpectBytesEqual(conv.Forward(x, true), ref.Forward(x, weight, bias),
                   what + " forward");

  const Tensor g = Tensor::Randn(
      {x.dim(0), conv.out_channels(), ref.OutH(x.dim(2)), ref.OutW(x.dim(3))},
      rng);
  conv.weight().grad = Tensor::Randn(weight.shape(), rng);
  Tensor dw = conv.weight().grad;
  Tensor db;
  if (conv.has_bias()) {
    conv.bias().grad = Tensor::Randn(conv.bias().value.shape(), rng);
    db = conv.bias().grad;
  }
  const Tensor dx_ref = ref.Backward(x, weight, g, dw, db);
  ExpectBytesEqual(conv.Backward(g), dx_ref, what + " dx");
  ExpectBytesEqual(conv.weight().grad, dw, what + " dW");
  if (conv.has_bias()) ExpectBytesEqual(conv.bias().grad, db, what + " db");
}

// Every fast-kernel ISA variant the host runs.  (The naive backend is
// left out: its transposed-B path sums the contraction before adding
// beta·C, so the dW accumulate reassociates there.)
template <typename Fn>
void ForEachKernel(Fn&& fn) {
  const kernels::Isa prev = kernels::CurrentIsa();
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (!kernels::SetIsa(isa)) continue;
    fn(std::string(kernels::IsaName(isa)));
  }
  kernels::SetIsa(prev);
}

TEST(Conv2dBitIdentityTest, KernelPadStrideBiasGrid) {
  ForEachKernel([](const std::string& kernel) {
    for (int k : {1, 3}) {
      for (int pad : {0, 1}) {
        for (int stride : {1, 2}) {
          for (bool bias : {false, true}) {
            const std::string what = kernel + " k" + std::to_string(k) +
                                     " pad" + std::to_string(pad) + " s" +
                                     std::to_string(stride) +
                                     (bias ? " bias" : "");
            Rng rng(static_cast<std::uint64_t>(100 + k * 8 + pad * 4 +
                                               stride * 2 + bias));
            // oc = 7 is not a multiple of the 6-row micro-tile.
            Conv2d conv(5, 7, k, stride, pad, rng, bias);
            ExpectMatchesRowMajor(conv, Tensor::Randn({3, 5, 7, 6}, rng),
                                  rng, what);
          }
        }
      }
    }
  });
}

TEST(Conv2dBitIdentityTest, BlockingBoundaries) {
  ForEachKernel([](const std::string& kernel) {
    Rng rng(200);
    // ickk = 30*3*3 = 270 > kKC: the contraction spans two k slabs.
    Conv2d deep(30, 13, 3, 1, 1, rng);
    ExpectMatchesRowMajor(deep, Tensor::Randn({2, 30, 5, 5}, rng), rng,
                          kernel + " ickk>kKC");
    // N*OH*OW = 3*24*24 = 1728 > kNC: the column axis spans two slabs.
    Conv2d wide(4, 8, 3, 1, 1, rng, /*bias=*/false);
    ExpectMatchesRowMajor(wide, Tensor::Randn({3, 4, 24, 24}, rng), rng,
                          kernel + " cols>kNC");
    // A second forward at another batch size resizes the cached columns.
    ExpectMatchesRowMajor(wide, Tensor::Randn({1, 4, 24, 24}, rng), rng,
                          kernel + " cols>kNC resized");
  });
}

TEST(Conv2dBitIdentityTest, Conv1dAsymmetricPadding) {
  struct Geometry {
    int kernel, stride, pad;
  };
  ForEachKernel([](const std::string& kernel) {
    for (const Geometry& geo : {Geometry{5, 1, 2}, Geometry{5, 2, 2},
                                Geometry{3, 1, 1}, Geometry{1, 2, 0}}) {
      const std::string what = kernel + " conv1d k" +
                               std::to_string(geo.kernel) + " s" +
                               std::to_string(geo.stride);
      Rng rng(static_cast<std::uint64_t>(300 + geo.kernel * 4 + geo.stride));
      Conv1d conv(6, 9, geo.kernel, geo.stride, geo.pad, rng);
      std::vector<NamedParam> params;
      conv.CollectParams("", params);
      ASSERT_EQ(params.size(), 2u);
      Parameter& weight = *params[0].param;  // [9, 6, 1, k]
      Parameter& bias = *params[1].param;
      // A height-1 convolution padded only along the length.
      const RowMajorConv ref{1, geo.kernel, geo.stride, 0, geo.pad};

      const Tensor x = Tensor::Randn({4, 6, 23}, rng);
      const Tensor x4 = x.Reshape({4, 6, 1, 23});
      const Tensor y = conv.Forward(x, true);
      const int ol = y.dim(2);
      ExpectBytesEqual(y.Reshape({4, 9, 1, ol}),
                       ref.Forward(x4, weight.value, bias.value),
                       what + " forward");

      const Tensor g = Tensor::Randn(y.shape(), rng);
      weight.grad = Tensor::Randn(weight.value.shape(), rng);
      bias.grad = Tensor::Randn(bias.value.shape(), rng);
      Tensor dw = weight.grad;
      Tensor db = bias.grad;
      const Tensor dx_ref =
          ref.Backward(x4, weight.value, g.Reshape({4, 9, 1, ol}), dw, db);
      ExpectBytesEqual(conv.Backward(g).Reshape({4, 6, 1, 23}), dx_ref,
                       what + " dx");
      ExpectBytesEqual(weight.grad, dw, what + " dW");
      ExpectBytesEqual(bias.grad, db, what + " db");
    }
  });
}

}  // namespace
}  // namespace mhbench::nn
