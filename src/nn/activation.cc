#include "nn/activation.h"

#include <cmath>

#include "obs/profile.h"

namespace mhbench::nn {

Tensor ReLU::Forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = x;
  for (auto& v : y.data()) {
    if (v < 0) v = 0;
  }
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  MHB_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor gx = grad_out;
  auto in = cached_input_.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (in[i] <= 0) g[i] = 0;
  }
  return gx;
}

namespace {
// tanh-approximation GELU: y = 0.5·x·(1 + tanh u), u = c·(x + 0.044715·x³).
// Value and derivative share t = tanh(u); each keeps the exact operands and
// operation order of the formula, so results do not depend on whether t
// was computed once or twice.
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

double GeluArg(double x) { return kGeluC * (x + 0.044715 * x * x * x); }

double GeluValue(double x, double t) { return 0.5 * x * (1.0 + t); }

double GeluDeriv(double x, double t) {
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}
}  // namespace

Tensor Gelu::Forward(const Tensor& x, bool train) {
  obs::ProfileScope profile_scope("gelu_fwd");
  Tensor y = Tensor::Uninitialized(x.shape());
  auto in = x.data();
  auto out = y.data();
  if (!train) {
    cached_shape_.clear();
    cached_deriv_.clear();
    cached_deriv_.shrink_to_fit();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double v = in[i];
      out[i] = static_cast<Scalar>(GeluValue(v, std::tanh(GeluArg(v))));
    }
    return y;
  }
  cached_shape_ = x.shape();
  cached_deriv_.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double v = in[i];
    const double t = std::tanh(GeluArg(v));
    out[i] = static_cast<Scalar>(GeluValue(v, t));
    cached_deriv_[i] = GeluDeriv(v, t);
  }
  return y;
}

Tensor Gelu::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("gelu_bwd");
  MHB_CHECK(!cached_shape_.empty())
      << "Gelu::Backward without a training Forward";
  MHB_CHECK(grad_out.shape() == cached_shape_);
  Tensor gx = Tensor::Uninitialized(grad_out.shape());
  auto g = grad_out.data();
  auto out = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    out[i] = static_cast<Scalar>(g[i] * cached_deriv_[i]);
  }
  return gx;
}

Tensor Tanh::Forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  for (auto& v : y.data()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out) {
  MHB_CHECK(grad_out.shape() == cached_output_.shape());
  Tensor gx = grad_out;
  auto out = cached_output_.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= (1.0f - out[i] * out[i]);
  }
  return gx;
}

}  // namespace mhbench::nn
