#include "nn/activation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(ReluTest, ClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1, 0, 2});
  EXPECT_TRUE(relu.Forward(x, true).AllClose(Tensor::FromVector({0, 0, 2})));
}

TEST(ReluTest, GradientMasksNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1, 2});
  relu.Forward(x, true);
  const Tensor g = relu.Backward(Tensor::FromVector({5, 5}));
  EXPECT_TRUE(g.AllClose(Tensor::FromVector({0, 5})));
}

TEST(ReluTest, GradientCheck) {
  Rng rng(1);
  ReLU relu;
  // Shift away from 0 to avoid the kink.
  Tensor x = Tensor::Randn({4, 6}, rng);
  for (auto& v : x.data()) {
    if (std::abs(v) < 0.1f) v += 0.5f;
  }
  testing::ExpectGradientsClose(relu, x, rng);
}

TEST(GeluTest, KnownValues) {
  Gelu gelu;
  Tensor x = Tensor::FromVector({0.0f});
  EXPECT_NEAR(gelu.Forward(x, true)[0], 0.0f, 1e-6);
  Tensor big = Tensor::FromVector({10.0f});
  EXPECT_NEAR(gelu.Forward(big, true)[0], 10.0f, 1e-3);
  Tensor neg = Tensor::FromVector({-10.0f});
  EXPECT_NEAR(gelu.Forward(neg, true)[0], 0.0f, 1e-3);
}

TEST(GeluTest, GradientCheck) {
  Rng rng(2);
  Gelu gelu;
  const Tensor x = Tensor::Randn({3, 5}, rng);
  testing::ExpectGradientsClose(gelu, x, rng);
}

// The GELU formulas as written before the forward started caching the
// derivative (tanh evaluated separately in the value and the derivative).
// Gelu must reproduce them bit for bit.
double ReferenceGeluValue(double x) {
  const double t =
      std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x));
  return 0.5 * x * (1.0 + t);
}

double ReferenceGeluDeriv(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  const double t = std::tanh(u);
  const double du = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}

// Random normals (a few scaled wide) plus ±0, tiny and |x| >= 10 values.
Tensor GeluInputs(Shape shape, Rng& rng) {
  Tensor x = Tensor::Randn(std::move(shape), rng);
  const float specials[] = {0.0f,   -0.0f,  1e-30f, -1e-30f, 10.0f,
                            -10.0f, 12.5f,  -31.0f, 1e4f,    -1e4f};
  const std::size_t n = std::min(x.numel(), std::size(specials));
  for (std::size_t i = 0; i < n; ++i) x[i] = specials[i];
  for (std::size_t i = n; i < x.numel(); i += 7) x[i] *= 6.0f;
  return x;
}

void ExpectBitEqual(const Tensor& got, const std::vector<float>& want) {
  ASSERT_EQ(got.numel(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::vector<float> ReferenceForward(const Tensor& x) {
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(ReferenceGeluValue(x[i]));
  }
  return y;
}

std::vector<float> ReferenceBackward(const Tensor& x, const Tensor& g) {
  std::vector<float> gx(x.numel());
  for (std::size_t i = 0; i < gx.size(); ++i) {
    gx[i] = static_cast<float>(g[i] * ReferenceGeluDeriv(x[i]));
  }
  return gx;
}

TEST(GeluTest, ForwardMatchesReferenceBitForBit) {
  Rng rng(11);
  Gelu gelu;
  const Tensor x = GeluInputs({16, 33}, rng);
  ExpectBitEqual(gelu.Forward(x, true), ReferenceForward(x));
  ExpectBitEqual(gelu.Forward(x, false), ReferenceForward(x));
}

TEST(GeluTest, BackwardMatchesReferenceBitForBit) {
  Rng rng(12);
  Gelu gelu;
  // The second forward re-sizes the cache to a smaller, then the third to
  // a larger shape; each Backward must use only its own forward's input.
  for (const Shape& shape : {Shape{8, 40}, Shape{3, 7}, Shape{2, 9, 30}}) {
    const Tensor x = GeluInputs(shape, rng);
    const Tensor g = Tensor::Randn(shape, rng);
    ExpectBitEqual(gelu.Forward(x, true), ReferenceForward(x));
    ExpectBitEqual(gelu.Backward(g), ReferenceBackward(x, g));
  }
}

TEST(GeluTest, BackwardNeedsATrainingForward) {
  Rng rng(13);
  Gelu gelu;
  const Tensor x = Tensor::Randn({4, 5}, rng);
  const Tensor g = Tensor::Randn({4, 5}, rng);
  EXPECT_THROW(gelu.Backward(g), Error);
  gelu.Forward(x, true);
  gelu.Forward(x, false);  // drops the training forward's cache
  EXPECT_THROW(gelu.Backward(g), Error);
  gelu.Forward(x, true);
  EXPECT_THROW(gelu.Backward(Tensor::Randn({5, 4}, rng)), Error);
  ExpectBitEqual(gelu.Backward(g), ReferenceBackward(x, g));
}

TEST(TanhTest, KnownValuesAndGradient) {
  Tanh tanh;
  Tensor x = Tensor::FromVector({0.0f, 100.0f});
  const Tensor y = tanh.Forward(x, true);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], 1.0f, 1e-5);
  Rng rng(3);
  const Tensor x2 = Tensor::Randn({4, 4}, rng);
  testing::ExpectGradientsClose(tanh, x2, rng);
}

}  // namespace
}  // namespace mhbench::nn
