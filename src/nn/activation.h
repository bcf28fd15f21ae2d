// Elementwise activations (shape-preserving, any rank).
#pragma once

#include "nn/module.h"

namespace mhbench::nn {

class ReLU : public Module {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Tensor cached_input_;
};

// tanh-approximation GELU.  A training forward evaluates tanh once per
// element and keeps the exact derivative, in double so Backward's
// float(g · d) rounds exactly as recomputing it would; Backward only
// multiplies.  An eval forward (train = false) keeps nothing, and a
// Backward after it fails.
class Gelu : public Module {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Shape cached_shape_;
  std::vector<double> cached_deriv_;
};

class Tanh : public Module {
 public:
  Tensor Forward(const Tensor& x, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Tensor cached_output_;
};

}  // namespace mhbench::nn
