// Module interface for the training stack.
//
// The library uses explicit layer-wise backward passes (no tape autograd):
// each module caches what it needs during Forward and implements the exact
// adjoint in Backward, accumulating parameter gradients.  This keeps the
// stack small, deterministic and easy to verify against numerical gradients
// (see tests/nn/gradient_check_test.cc).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace mhbench::nn {

// A trainable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Parameter() = default;

  void ZeroGrad() {
    if (!grad.empty()) grad.Fill(0.0f);
  }
};

// A parameter with its hierarchical name ("block2/conv1/weight").
struct NamedParam {
  std::string name;
  Parameter* param = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the output for `x`.  `train` toggles batch statistics.  The
  // module caches the activations Backward needs.
  virtual Tensor Forward(const Tensor& x, bool train) = 0;

  // Propagates `grad_out` (gradient of the loss w.r.t. this module's last
  // output) back to the input, accumulating parameter gradients.  Must be
  // called after Forward with matching shapes.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // Appends this module's parameters, prefixing names with `prefix`.
  virtual void CollectParams(const std::string& prefix,
                             std::vector<NamedParam>& out) = 0;

  // Zeroes all parameter gradients in this subtree.
  void ZeroGrad();

  // Total number of scalar parameters in this subtree.
  std::size_t NumParams();
};

using ModulePtr = std::unique_ptr<Module>;

// Joins two name components with '/'.
std::string JoinName(const std::string& prefix, const std::string& name);

}  // namespace mhbench::nn
