#include "nn/pool.h"

#include <limits>
#include <stdexcept>
#include <vector>

namespace helios::nn {

using tensor::Shape;

namespace {

// One output row of max pooling: per window, a select-based running max and
// argmax over the taps in scan order (ky, kx), carried in registers. The
// strict > keeps the first of tied maxima and never takes a NaN; an all-NaN
// (or all -inf) window yields -inf at index 0. Positive `K`/`S` fix kernel
// and stride at compile time, which unrolls the taps and lets the column
// loop vectorize (the model zoo pools 2x2 with stride 2); 0 reads them from
// `kernel`/`stride`.
template <int K, int S>
void max_pool_row(const float* __restrict plane, int in_w, int kernel,
                  int stride, int oy, int ow, float* __restrict best,
                  int* __restrict arg) {
  const int k = K > 0 ? K : kernel;
  const int s = S > 0 ? S : stride;
  for (int ox = 0; ox < ow; ++ox) {
    float b = -std::numeric_limits<float>::infinity();
    int a = 0;
    for (int ky = 0; ky < k; ++ky) {
      const int row = (oy * s + ky) * in_w + ox * s;
      for (int kx = 0; kx < k; ++kx) {
        const float v = plane[row + kx];
        const bool better = v > b;
        b = better ? v : b;
        a = better ? row + kx : a;
      }
    }
    best[ox] = b;
    arg[ox] = a;
  }
}

}  // namespace

MaxPool2d::MaxPool2d(int channels, int in_h, int in_w, int kernel, int stride)
    : channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || in_h < kernel ||
      in_w < kernel) {
    throw std::invalid_argument("MaxPool2d: bad geometry");
  }
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k=" + std::to_string(kernel_) + ")";
}

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  const int n = x.dim(0), oh = out_h(), ow = out_w();
  Tensor y({n, channels_, oh, ow});
  if (training) {
    argmax_.assign(static_cast<std::size_t>(n) * channels_ * oh * ow, 0);
    cached_batch_ = n;
  }
  // Inference keeps no argmax; its indices go to a one-row scratch.
  std::vector<int> scratch(training ? 0 : static_cast<std::size_t>(ow));
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float* plane =
          x.data() + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int oy = 0; oy < oh; ++oy, out_idx += static_cast<std::size_t>(ow)) {
        float* best = y.data() + out_idx;
        int* arg = training ? argmax_.data() + out_idx : scratch.data();
        if (kernel_ == 2 && stride_ == 2) {
          max_pool_row<2, 2>(plane, in_w_, kernel_, stride_, oy, ow, best,
                             arg);
        } else {
          max_pool_row<0, 0>(plane, in_w_, kernel_, stride_, oy, ow, best,
                             arg);
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  const int n = cached_batch_, oh = out_h(), ow = out_w();
  if (n == 0 || grad_out.shape() != Shape{n, channels_, oh, ow}) {
    throw std::logic_error(name() + ": backward shape mismatch");
  }
  Tensor dx({n, channels_, in_h_, in_w_});
  float* dp = dx.data();
  const float* gp = grad_out.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      float* plane =
          dp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int p = 0; p < oh * ow; ++p, ++out_idx) {
        plane[argmax_[out_idx]] += gp[out_idx];
      }
    }
  }
  return dx;
}

double MaxPool2d::activation_numel_per_sample() const {
  return static_cast<double>(channels_) * out_h() * out_w();
}

AvgPool2d::AvgPool2d(int channels, int in_h, int in_w, int kernel, int stride)
    : channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || in_h < kernel ||
      in_w < kernel) {
    throw std::invalid_argument("AvgPool2d: bad geometry");
  }
}

std::string AvgPool2d::name() const {
  return "AvgPool2d(k=" + std::to_string(kernel_) + ")";
}

Tensor AvgPool2d::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  const int n = x.dim(0), oh = out_h(), ow = out_w();
  if (training) cached_batch_ = n;
  Tensor y({n, channels_, oh, ow});
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float* plane =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          float acc = 0.0F;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ + ky;
            for (int kx = 0; kx < kernel_; ++kx) {
              acc += plane[iy * in_w_ + ox * stride_ + kx];
            }
          }
          yp[out_idx] = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  const int n = cached_batch_, oh = out_h(), ow = out_w();
  if (n == 0 || grad_out.shape() != Shape{n, channels_, oh, ow}) {
    throw std::logic_error(name() + ": backward shape mismatch");
  }
  Tensor dx({n, channels_, in_h_, in_w_});
  float* dp = dx.data();
  const float* gp = grad_out.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      float* plane =
          dp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          const float g = gp[out_idx] * inv;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ + ky;
            for (int kx = 0; kx < kernel_; ++kx) {
              plane[iy * in_w_ + ox * stride_ + kx] += g;
            }
          }
        }
      }
    }
  }
  return dx;
}

double AvgPool2d::activation_numel_per_sample() const {
  return static_cast<double>(channels_) * out_h() * out_w();
}

GlobalAvgPool::GlobalAvgPool(int channels, int in_h, int in_w)
    : channels_(channels), in_h_(in_h), in_w_(in_w) {
  if (channels <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("GlobalAvgPool: bad geometry");
  }
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument("GlobalAvgPool: bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  const int n = x.dim(0);
  if (training) cached_batch_ = n;
  Tensor y({n, channels_});
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(plane);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float* src =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * plane;
      float acc = 0.0F;
      for (std::size_t p = 0; p < plane; ++p) acc += src[p];
      yp[static_cast<std::size_t>(i) * channels_ + c] = acc * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = cached_batch_;
  if (n == 0 || grad_out.shape() != Shape{n, channels_}) {
    throw std::logic_error("GlobalAvgPool: backward shape mismatch");
  }
  Tensor dx({n, channels_, in_h_, in_w_});
  float* dp = dx.data();
  const float* gp = grad_out.data();
  const std::size_t plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(plane);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float g = gp[static_cast<std::size_t>(i) * channels_ + c] * inv;
      float* dst = dp + (static_cast<std::size_t>(i) * channels_ + c) * plane;
      for (std::size_t p = 0; p < plane; ++p) dst[p] = g;
    }
  }
  return dx;
}

}  // namespace helios::nn
