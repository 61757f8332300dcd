#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

namespace helios::nn {

// The ReLU loops select instead of branching: the sign of an activation is
// close to random, and the uint8 mask could alias the float data, which
// would keep the compiler from vectorizing. Locals and __restrict fix both.
// They read the input once and write a fresh tensor, not copy-then-modify.
Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y(x.shape());
  const float* __restrict xp = x.data();
  float* __restrict yp = y.data();
  const std::size_t count = y.numel();
  if (training) {
    positive_.resize(count);
    cached_numel_ = count;
    std::uint8_t* __restrict pos = positive_.data();
    // v > 0 is false for -0.0 and NaN, so both train to +0.0.
    for (std::size_t i = 0; i < count; ++i) {
      const float v = xp[i];
      const bool p = v > 0.0F;
      pos[i] = static_cast<std::uint8_t>(p);
      yp[i] = p ? v : 0.0F;
    }
  } else {
    // Inference clamps only v < 0: -0.0 and NaN pass through unchanged.
    for (std::size_t i = 0; i < count; ++i) {
      const float v = xp[i];
      yp[i] = v < 0.0F ? 0.0F : v;
    }
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_numel_) {
    throw std::logic_error("ReLU: backward/forward size mismatch");
  }
  Tensor dx(grad_out.shape());
  const float* __restrict gp = grad_out.data();
  float* __restrict dp = dx.data();
  const std::uint8_t* __restrict pos = positive_.data();
  const std::size_t count = dx.numel();
  for (std::size_t i = 0; i < count; ++i) {
    const float g = gp[i];
    dp[i] = pos[i] != 0 ? g : 0.0F;
  }
  return dx;
}

LeakyReLU::LeakyReLU(float negative_slope) : slope_(negative_slope) {
  if (negative_slope < 0.0F || negative_slope >= 1.0F) {
    throw std::invalid_argument("LeakyReLU: slope out of [0, 1)");
  }
}

std::string LeakyReLU::name() const {
  return "LeakyReLU(" + std::to_string(slope_) + ")";
}

Tensor LeakyReLU::forward(const Tensor& x, bool training) {
  Tensor y = x;
  float* yp = y.data();
  if (training) {
    positive_.resize(y.numel());
    cached_numel_ = y.numel();
  }
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool pos = yp[i] > 0.0F;
    if (training) positive_[i] = pos;
    if (!pos) yp[i] *= slope_;
  }
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_numel_) {
    throw std::logic_error("LeakyReLU: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    if (!positive_[i]) dp[i] *= slope_;
  }
  return dx;
}

Tensor Tanh::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (float& v : y.flat()) v = std::tanh(v);
  if (training) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_output_.numel()) {
    throw std::logic_error("Tanh: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  const float* yp = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    dp[i] *= 1.0F - yp[i] * yp[i];
  }
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (float& v : y.flat()) v = 1.0F / (1.0F + std::exp(-v));
  if (training) cached_output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_output_.numel()) {
    throw std::logic_error("Sigmoid: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  const float* yp = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    dp[i] *= yp[i] * (1.0F - yp[i]);
  }
  return dx;
}

}  // namespace helios::nn
