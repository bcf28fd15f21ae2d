#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace mhbench {
namespace {

TEST(MatmulTest, SmallKnownProduct) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
  Tensor a({2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<Scalar>{5, 6, 7, 8});
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(
      Tensor({2, 2}, std::vector<Scalar>{19, 22, 43, 50})));
}

TEST(MatmulTest, RectangularShapes) {
  Tensor a({2, 3}, std::vector<Scalar>{1, 0, 2, 0, 1, 1});
  Tensor b({3, 1}, std::vector<Scalar>{1, 2, 3});
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(
      Tensor({2, 1}, std::vector<Scalar>{7, 5})));
}

TEST(MatmulTest, DimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(ops::Matmul(a, b), Error);
}

TEST(MatmulTest, TransBEquivalence) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 5}, rng);
  Tensor b = Tensor::Randn({3, 5}, rng);
  const Tensor expect = ops::Matmul(a, ops::Transpose2d(b));
  EXPECT_TRUE(ops::MatmulTransB(a, b).AllClose(expect, 1e-4f));
}

TEST(MatmulTest, TransAEquivalence) {
  Rng rng(2);
  Tensor a = Tensor::Randn({4, 5}, rng);
  Tensor b = Tensor::Randn({4, 3}, rng);
  const Tensor expect = ops::Matmul(ops::Transpose2d(a), b);
  EXPECT_TRUE(ops::MatmulTransA(a, b).AllClose(expect, 1e-4f));
}

TEST(Transpose2dTest, InvolutionProperty) {
  Rng rng(3);
  Tensor a = Tensor::Randn({3, 7}, rng);
  EXPECT_TRUE(ops::Transpose2d(ops::Transpose2d(a)).AllClose(a));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(4);
  Tensor logits = Tensor::Randn({5, 8}, rng, 3.0f);
  const Tensor p = ops::SoftmaxRows(logits);
  for (int i = 0; i < 5; ++i) {
    double sum = 0;
    for (int j = 0; j < 8; ++j) sum += p.at({i, j});
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, InvariantToShift) {
  Tensor a({1, 3}, std::vector<Scalar>{1, 2, 3});
  Tensor b({1, 3}, std::vector<Scalar>{101, 102, 103});
  EXPECT_TRUE(ops::SoftmaxRows(a).AllClose(ops::SoftmaxRows(b), 1e-5f));
}

TEST(SoftmaxTest, LargeLogitsStable) {
  Tensor a({1, 2}, std::vector<Scalar>{1000.0f, 0.0f});
  const Tensor p = ops::SoftmaxRows(a);
  EXPECT_NEAR(p[0], 1.0, 1e-6);
  EXPECT_NEAR(p[1], 0.0, 1e-6);
}

TEST(LogSoftmaxTest, MatchesLogOfSoftmax) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({3, 6}, rng);
  const Tensor lp = ops::LogSoftmaxRows(logits);
  const Tensor p = ops::SoftmaxRows(logits);
  for (std::size_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-4);
  }
}

TEST(ArgmaxTest, PicksMaxPerRow) {
  Tensor t({2, 3}, std::vector<Scalar>{1, 5, 2, 9, 0, 3});
  const auto idx = ops::ArgmaxRows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Im2ColTest, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1, no pad: column r of channel row c is pixel r of
  // plane c, images laid end to end.
  Tensor x({2, 2, 1, 2}, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols;
  ops::Im2ColT(x, 1, 1, 1, 0, 0, cols);
  EXPECT_EQ(cols.dim(0), 2);
  EXPECT_EQ(cols.dim(1), 4);
  // Channel 0: image 0 (1, 2) then image 1 (5, 6).
  EXPECT_EQ(cols.at({0, 0}), 1.0f);
  EXPECT_EQ(cols.at({0, 1}), 2.0f);
  EXPECT_EQ(cols.at({0, 2}), 5.0f);
  EXPECT_EQ(cols.at({0, 3}), 6.0f);
  // Channel 1: image 0 (3, 4) then image 1 (7, 8).
  EXPECT_EQ(cols.at({1, 0}), 3.0f);
  EXPECT_EQ(cols.at({1, 3}), 8.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor x({1, 1, 1, 1}, std::vector<Scalar>{5});
  Tensor cols;
  ops::Im2ColT(x, 3, 3, 1, 1, 1, cols);
  EXPECT_EQ(cols.dim(0), 9);
  EXPECT_EQ(cols.dim(1), 1);
  // Center tap of the 3x3 window is the pixel, every other tap is padding.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(cols[static_cast<std::size_t>(i)], i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Im2ColTest, OutputSizeWithStride) {
  Tensor x({2, 3, 8, 8});
  Tensor cols;
  ops::Im2ColT(x, 3, 3, 2, 1, 1, cols);
  // OH = OW = (8 + 2 - 3)/2 + 1 = 4.
  EXPECT_EQ(cols.dim(0), 3 * 9);
  EXPECT_EQ(cols.dim(1), 2 * 4 * 4);
}

TEST(Col2ImTest, AdjointOfIm2Col) {
  // <Im2ColT(x), y> == <x, Col2ImT(y)> for random x, y (adjoint property).
  Rng rng(6);
  const Shape xshape = {2, 3, 6, 6};
  Tensor x = Tensor::Randn(xshape, rng);
  Tensor cx;
  ops::Im2ColT(x, 3, 3, 2, 1, 1, cx);
  Tensor y = Tensor::Randn(cx.shape(), rng);
  Tensor cty(xshape);
  ops::Col2ImTAcc(y.data().data(), xshape, 3, 3, 2, 1, 1, cty.data().data());
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * cty[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace mhbench
