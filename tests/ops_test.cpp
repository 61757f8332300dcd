#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pool.h"
#include "tensor/backend/dispatch.h"
#include "tensor/backend/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helios::tensor {
namespace {

Tensor mat(std::initializer_list<int> shape, std::initializer_list<float> v) {
  return Tensor(Shape(shape), std::vector<float>(v));
}

TEST(Elementwise, AddSubScale) {
  Tensor a = mat({2, 2}, {1, 2, 3, 4});
  Tensor b = mat({2, 2}, {5, 6, 7, 8});
  Tensor c = add(a, b);
  EXPECT_TRUE(c.allclose(mat({2, 2}, {6, 8, 10, 12})));
  Tensor d = sub(b, a);
  EXPECT_TRUE(d.allclose(mat({2, 2}, {4, 4, 4, 4})));
  scale_inplace(a, 2.0F);
  EXPECT_TRUE(a.allclose(mat({2, 2}, {2, 4, 6, 8})));
  axpy_inplace(a, -1.0F, d);
  EXPECT_TRUE(a.allclose(mat({2, 2}, {-2, 0, 2, 4})));
}

TEST(Elementwise, Mul) {
  Tensor a = mat({3}, {1, -2, 3});
  Tensor b = mat({3}, {4, 5, -6});
  EXPECT_TRUE(mul(a, b).allclose(mat({3}, {4, -10, -18})));
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(add_inplace(a, b), std::invalid_argument);
}

TEST(Reductions, SumNorms) {
  Tensor t = mat({4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(sum(t), -2.0);
  EXPECT_DOUBLE_EQ(l1_norm(t), 10.0);
  EXPECT_NEAR(l2_norm(t), std::sqrt(30.0), 1e-6);
  EXPECT_EQ(max_value(t), 3.0F);
}

TEST(Matmul, KnownProduct) {
  Tensor a = mat({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = mat({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(c.allclose(mat({2, 2}, {58, 64, 139, 154})));
}

TEST(Matmul, InnerMismatchThrows) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, MaskedRowsSkipsInactive) {
  Tensor a = mat({2, 2}, {1, 2, 3, 4});
  Tensor b = mat({2, 2}, {1, 0, 0, 1});
  const std::vector<std::uint8_t> mask{0, 1};
  Tensor c;
  matmul_masked_rows_into(a, b, mask, c);
  EXPECT_TRUE(c.allclose(mat({2, 2}, {0, 0, 3, 4})));
}

TEST(Matmul, MaskedVariantsAgreeWithDenseReference) {
  util::Rng rng(5);
  const int m = 7, k = 5, n = 6;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor dense = matmul(a, b);
  Tensor masked;
  matmul_masked_rows_into(a, b, {}, masked);
  EXPECT_TRUE(dense.allclose(masked));
}

TEST(Matmul, TnMaskedAccumulate) {
  // c[k,n] += a^T b over active rows.
  util::Rng rng(6);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 2}, rng);
  const std::vector<std::uint8_t> mask{1, 0, 1, 1};
  Tensor c({3, 2});
  matmul_tn_masked_accumulate(a, b, mask, c);
  // Reference: zero out masked rows and do full product.
  Tensor a2 = a, b2 = b;
  for (int j = 0; j < 3; ++j) a2.at(1, j) = 0.0F;
  for (int j = 0; j < 2; ++j) b2.at(1, j) = 0.0F;
  Tensor ref({3, 2});
  matmul_tn_masked_accumulate(a2, b2, {}, ref);
  EXPECT_TRUE(c.allclose(ref, 1e-4F));
}

TEST(Matmul, NtMaskedCols) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3, 4}, rng);   // [m,k]
  Tensor w = Tensor::randn({5, 4}, rng);   // [n,k]
  const std::vector<std::uint8_t> mask{1, 1, 0, 1, 0};
  Tensor y;
  matmul_nt_masked_cols_into(x, w, mask, y);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(y.at(i, 2), 0.0F);
    EXPECT_EQ(y.at(i, 4), 0.0F);
    float ref = 0.0F;
    for (int kk = 0; kk < 4; ++kk) ref += x.at(i, kk) * w.at(1, kk);
    EXPECT_NEAR(y.at(i, 1), ref, 1e-5F);
  }
}

TEST(Matmul, NtMaskedRowsAccumulate) {
  util::Rng rng(8);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({5, 4}, rng);
  const std::vector<std::uint8_t> mask{0, 1, 1, 1, 1};
  (void)mask;
  Tensor c({3, 5});
  const std::vector<std::uint8_t> row_mask{1, 0, 1};
  matmul_nt_masked_rows_accumulate(a, b, row_mask, c);
  for (int j = 0; j < 5; ++j) EXPECT_EQ(c.at(1, j), 0.0F);
  float ref = 0.0F;
  for (int kk = 0; kk < 4; ++kk) ref += a.at(2, kk) * b.at(3, kk);
  EXPECT_NEAR(c.at(2, 3), ref, 1e-5F);
}

TEST(Im2col, IdentityKernelRoundTrip) {
  // 1x1 kernel, stride 1: cols equal the flattened image.
  Conv2dGeometry g{2, 3, 3, 1, 1, 0};
  util::Rng rng(9);
  Tensor x = Tensor::randn({2, 3, 3}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x, g, cols);
  EXPECT_TRUE(cols.reshaped({2, 3, 3}).allclose(x));
}

TEST(Im2col, PaddingProducesZeros) {
  Conv2dGeometry g{1, 2, 2, 3, 1, 1};
  Tensor x = Tensor::full({1, 2, 2}, 1.0F);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x, g, cols);
  // Top-left output position, top-left kernel tap reads padded zero.
  EXPECT_EQ(cols.at(0, 0), 0.0F);
  // Center taps read real pixels.
  EXPECT_EQ(cols.at(4, 0), 1.0F);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> — adjointness of unfold/fold.
  Conv2dGeometry g{2, 5, 5, 3, 2, 1};
  util::Rng rng(10);
  Tensor x = Tensor::randn({2, 5, 5}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x, g, cols);
  Tensor c = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols.flat()[i]) * c.flat()[i];
  }
  Tensor folded({2, 5, 5});
  col2im_accumulate(c, g, folded);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.flat()[i]) * folded.flat()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Odd geometries for the unfold/fold property tests: strided, padded, 1x1
// kernels, kernel == stride (disjoint patches), and non-square inputs.
const Conv2dGeometry kOddGeometries[] = {
    {2, 5, 5, 3, 2, 1},   // stride 2 + pad
    {3, 4, 4, 1, 1, 0},   // 1x1 kernel
    {1, 9, 9, 3, 3, 0},   // kernel == stride: every pixel in one patch
    {2, 7, 3, 3, 1, 1},   // non-square input, pad
    {4, 6, 10, 5, 2, 2},  // non-square, stride 2, wide pad
};

TEST(Im2col, FoldUnfoldMatchesCoverageCounts) {
  // col2im(im2col(x)) == x * counts, where counts[p] is how many patches
  // cover pixel p (computed by folding an all-ones cols matrix). Exact in
  // float because each product is x * small-integer via repeated adds.
  for (const Conv2dGeometry& g : kOddGeometries) {
    util::Rng rng(21);
    Tensor x = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
    Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
    im2col(x, g, cols);
    Tensor folded({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(cols, g, folded);

    Tensor ones = Tensor::full(cols.shape(), 1.0F);
    Tensor counts({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(ones, g, counts);

    for (std::size_t i = 0; i < x.numel(); ++i) {
      EXPECT_NEAR(folded.flat()[i], x.flat()[i] * counts.flat()[i], 1e-4F)
          << "pixel " << i << " k=" << g.kernel << " s=" << g.stride
          << " p=" << g.pad;
    }
  }
}

TEST(Im2col, AdjointHoldsOnOddGeometries) {
  // <im2col(x), c> == <x, col2im(c)> for every odd geometry — fold must
  // stay the exact adjoint of unfold or conv2d backward silently skews.
  for (const Conv2dGeometry& g : kOddGeometries) {
    util::Rng rng(22);
    Tensor x = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
    Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
    im2col(x, g, cols);
    Tensor c = Tensor::randn(cols.shape(), rng);
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i) {
      lhs += static_cast<double>(cols.flat()[i]) * c.flat()[i];
    }
    Tensor folded({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(c, g, folded);
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i) {
      rhs += static_cast<double>(x.flat()[i]) * folded.flat()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3)
        << "k=" << g.kernel << " s=" << g.stride << " p=" << g.pad;
  }
}

// ---------------------------------------------------------------------------
// Bitwise pins of the conv lowering and the elementwise layers around it.
//
// `ref` holds the straightforward per-element loops the lowering replaced
// (bounds test per element, branch per element, per-sample copies in
// Conv2d). The production code must reproduce them bit for bit — compared
// with memcmp, not a tolerance — on every kernel backend and at 1 and 4
// threads.
// ---------------------------------------------------------------------------

namespace ref {

void im2col(const Tensor& x, const Conv2dGeometry& g, Tensor& cols) {
  const int oh = g.out_h(), ow = g.out_w();
  const Shape want{g.patch_size(), oh * ow};
  if (cols.shape() != want) cols = Tensor(want);
  float* cp = cols.data();
  const float* xp = x.data();
  const int hw = g.in_h * g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const int row = (c * g.kernel + ky) * g.kernel + kx;
        float* crow = cp + static_cast<std::size_t>(row) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * g.stride + ky - g.pad;
          const bool y_ok = iy >= 0 && iy < g.in_h;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * g.stride + kx - g.pad;
            const std::size_t out_idx = static_cast<std::size_t>(oy) * ow +
                                        static_cast<std::size_t>(ox);
            crow[out_idx] = (y_ok && ix >= 0 && ix < g.in_w)
                                ? xp[c * hw + iy * g.in_w + ix]
                                : 0.0F;
          }
        }
      }
    }
  }
}

void col2im_accumulate(const Tensor& cols, const Conv2dGeometry& g,
                       Tensor& dx) {
  const int oh = g.out_h(), ow = g.out_w();
  const float* cp = cols.data();
  float* xp = dx.data();
  const int hw = g.in_h * g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const int row = (c * g.kernel + ky) * g.kernel + kx;
        const float* crow = cp + static_cast<std::size_t>(row) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * g.stride + kx - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            xp[c * hw + iy * g.in_w + ix] +=
                crow[static_cast<std::size_t>(oy) * ow + ox];
          }
        }
      }
    }
  }
}

struct ReLU {
  std::vector<std::uint8_t> positive_;
  std::size_t cached_numel_ = 0;

  Tensor forward(const Tensor& x, bool training) {
    Tensor y = x;
    float* yp = y.data();
    if (training) {
      positive_.resize(y.numel());
      cached_numel_ = y.numel();
      for (std::size_t i = 0; i < y.numel(); ++i) {
        positive_[i] = yp[i] > 0.0F;
        if (!positive_[i]) yp[i] = 0.0F;
      }
    } else {
      for (std::size_t i = 0; i < y.numel(); ++i) {
        if (yp[i] < 0.0F) yp[i] = 0.0F;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    Tensor dx = grad_out;
    float* dp = dx.data();
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      if (!positive_[i]) dp[i] = 0.0F;
    }
    return dx;
  }
};

struct MaxPoolOut {
  Tensor y;
  std::vector<int> argmax;
};

MaxPoolOut maxpool_forward(const Tensor& x, int kernel_, int stride_) {
  const int n = x.dim(0), channels_ = x.dim(1), in_h_ = x.dim(2),
            in_w_ = x.dim(3);
  const int oh = (in_h_ - kernel_) / stride_ + 1;
  const int ow = (in_w_ - kernel_) / stride_ + 1;
  MaxPoolOut out{Tensor({n, channels_, oh, ow}), {}};
  out.argmax.assign(static_cast<std::size_t>(n) * channels_ * oh * ow, 0);
  const float* xp = x.data();
  float* yp = out.y.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float* plane =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ + ky;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ + kx;
              const int idx = iy * in_w_ + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          yp[out_idx] = best;
          out.argmax[out_idx] = best_idx;
        }
      }
    }
  }
  return out;
}

// Conv2d with per-sample copies into scratch tensors around the reference
// unfold/fold, and the same batch split and partial-gradient reduction.
struct Conv2d {
  Conv2dGeometry geometry_;
  int out_channels_ = 0;
  Tensor weight_, bias_, dweight_, dbias_, cached_input_;
  std::vector<std::uint8_t> mask_;

  Tensor forward(const Tensor& x, bool training) {
    if (training) cached_input_ = x;
    const int n = x.dim(0);
    const int oh = geometry_.out_h(), ow = geometry_.out_w();
    const int plane = oh * ow;
    const std::size_t in_sample =
        static_cast<std::size_t>(geometry_.in_channels) * geometry_.in_h *
        geometry_.in_w;
    Tensor y({n, out_channels_, oh, ow});
    auto run_samples = [&](std::int64_t lo, std::int64_t hi) {
      Tensor cols({geometry_.patch_size(), plane});
      Tensor sample({geometry_.in_channels, geometry_.in_h, geometry_.in_w});
      Tensor ys({out_channels_, plane});
      for (std::int64_t i = lo; i < hi; ++i) {
        std::copy_n(x.data() + static_cast<std::size_t>(i) * in_sample,
                    in_sample, sample.data());
        ref::im2col(sample, geometry_, cols);
        matmul_masked_rows_into(weight_, cols, mask_, ys);
        float* yp =
            y.data() + static_cast<std::size_t>(i) * out_channels_ * plane;
        const float* ysp = ys.data();
        const float* bp = bias_.data();
        for (int oc = 0; oc < out_channels_; ++oc) {
          const bool active =
              mask_.empty() || mask_[static_cast<std::size_t>(oc)];
          float* dst = yp + static_cast<std::size_t>(oc) * plane;
          const float* src = ysp + static_cast<std::size_t>(oc) * plane;
          if (active) {
            const float b = bp[oc];
            for (int p = 0; p < plane; ++p) dst[p] = src[p] + b;
          } else {
            for (int p = 0; p < plane; ++p) dst[p] = 0.0F;
          }
        }
      }
    };
    const std::int64_t per_sample = static_cast<std::int64_t>(out_channels_) *
                                    geometry_.patch_size() * plane;
    run_chunked(n, per_sample, run_samples);
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const int n = cached_input_.dim(0);
    const int oh = geometry_.out_h(), ow = geometry_.out_w();
    const int plane = oh * ow;
    const std::size_t in_sample =
        static_cast<std::size_t>(geometry_.in_channels) * geometry_.in_h *
        geometry_.in_w;
    Tensor dx({n, geometry_.in_channels, geometry_.in_h, geometry_.in_w});
    auto backward_sample = [&](int i, Tensor& cols, Tensor& dcols,
                               Tensor& sample, Tensor& dsample, Tensor& gy,
                               Tensor& dw, Tensor& db) {
      std::copy_n(
          cached_input_.data() + static_cast<std::size_t>(i) * in_sample,
          in_sample, sample.data());
      ref::im2col(sample, geometry_, cols);
      const float* gp = grad_out.data() +
                        static_cast<std::size_t>(i) * out_channels_ * plane;
      std::copy_n(gp, static_cast<std::size_t>(out_channels_) * plane,
                  gy.data());
      matmul_nt_masked_rows_accumulate(gy, cols, mask_, dw);
      float* dbp = db.data();
      for (int oc = 0; oc < out_channels_; ++oc) {
        if (!mask_.empty() && !mask_[static_cast<std::size_t>(oc)]) continue;
        const float* row = gy.data() + static_cast<std::size_t>(oc) * plane;
        float acc = 0.0F;
        for (int p = 0; p < plane; ++p) acc += row[p];
        dbp[oc] += acc;
      }
      dcols.fill(0.0F);
      matmul_tn_masked_accumulate(weight_, gy, mask_, dcols);
      dsample.fill(0.0F);
      ref::col2im_accumulate(dcols, geometry_, dsample);
      std::copy_n(dsample.data(), in_sample,
                  dx.data() + static_cast<std::size_t>(i) * in_sample);
    };
    const std::int64_t per_sample = 2 *
                                    static_cast<std::int64_t>(out_channels_) *
                                    geometry_.patch_size() * plane;
    auto scratch = [&] {
      return std::vector<Tensor>{
          Tensor({geometry_.patch_size(), plane}),
          Tensor({geometry_.patch_size(), plane}),
          Tensor({geometry_.in_channels, geometry_.in_h, geometry_.in_w}),
          Tensor({geometry_.in_channels, geometry_.in_h, geometry_.in_w}),
          Tensor({out_channels_, plane})};
    };
    if (n > 1 && per_sample * n >= kIntraOpMinWork) {
      const int nchunks = std::min(n, 8);
      std::vector<Tensor> dws, dbs;
      for (int c = 0; c < nchunks; ++c) {
        dws.emplace_back(
            Tensor::zeros({out_channels_, geometry_.patch_size()}));
        dbs.emplace_back(Tensor::zeros({out_channels_}));
      }
      util::parallel_for(0, nchunks, 1, [&](std::int64_t clo,
                                            std::int64_t chi) {
        std::vector<Tensor> t = scratch();
        for (std::int64_t c = clo; c < chi; ++c) {
          const int lo = static_cast<int>(n * c / nchunks);
          const int hi = static_cast<int>(n * (c + 1) / nchunks);
          for (int i = lo; i < hi; ++i) {
            backward_sample(i, t[0], t[1], t[2], t[3], t[4],
                            dws[static_cast<std::size_t>(c)],
                            dbs[static_cast<std::size_t>(c)]);
          }
        }
      });
      for (int c = 0; c < nchunks; ++c) {
        add_inplace(dweight_, dws[static_cast<std::size_t>(c)]);
        add_inplace(dbias_, dbs[static_cast<std::size_t>(c)]);
      }
    } else {
      std::vector<Tensor> t = scratch();
      for (int i = 0; i < n; ++i) {
        backward_sample(i, t[0], t[1], t[2], t[3], t[4], dweight_, dbias_);
      }
    }
    return dx;
  }
};

}  // namespace ref

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

std::string geometry_name(const Conv2dGeometry& g) {
  std::ostringstream os;
  os << "c=" << g.in_channels << " h=" << g.in_h << " w=" << g.in_w
     << " k=" << g.kernel << " s=" << g.stride << " p=" << g.pad;
  return os.str();
}

// Random input with signed zeros and exact repeats sprinkled in, so sign
// and tie handling show in the bits.
Tensor lowering_input(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x = Tensor::randn(shape, rng);
  float* p = x.data();
  for (std::size_t i = 0; i < x.numel(); i += 7) p[i] = -0.0F;
  for (std::size_t i = 3; i < x.numel(); i += 11) p[i] = 0.0F;
  for (std::size_t i = 5; i + 1 < x.numel(); i += 13) p[i + 1] = p[i];
  return x;
}

// The lowering's geometries: the odd ones above, the AlexNet-lite (width
// 8, 3x32x32) and LeNet (1x28x28) conv layers, stride 2 with pad >=
// kernel / 2, pad = kernel - 1, and taps that fall wholly into padding.
std::vector<Conv2dGeometry> lowering_geometries() {
  std::vector<Conv2dGeometry> out(std::begin(kOddGeometries),
                                  std::end(kOddGeometries));
  const Conv2dGeometry extra[] = {
      {3, 32, 32, 3, 1, 1},  // AlexNet-lite conv1
      {8, 16, 16, 3, 1, 1},  // conv2
      {16, 8, 8, 3, 1, 1},   // conv3
      {24, 8, 8, 3, 1, 1},   // conv4
      {24, 8, 8, 3, 1, 1},   // conv5 (same unfold as conv4, fewer filters)
      {1, 28, 28, 5, 1, 2},  // LeNet conv1
      {6, 14, 14, 5, 1, 0},  // LeNet conv2
      {3, 9, 7, 3, 2, 2},    // stride 2, pad >= kernel / 2
      {2, 8, 8, 4, 2, 2},    // stride 2, even kernel
      {2, 6, 5, 3, 1, 2},    // pad = kernel - 1
      {1, 5, 5, 4, 2, 3},    // stride 2, pad = kernel - 1
      {2, 1, 3, 1, 2, 1},    // whole tap rows in padding
      {1, 4, 4, 2, 1, 3},    // pad > kernel
  };
  out.insert(out.end(), std::begin(extra), std::end(extra));
  return out;
}

TEST(Lowering, Im2colMatchesPerElementReferenceBitwise) {
  std::uint64_t seed = 300;
  for (const Conv2dGeometry& g : lowering_geometries()) {
    const Tensor x = lowering_input({g.in_channels, g.in_h, g.in_w}, ++seed);
    Tensor want;
    ref::im2col(x, g, want);
    // Pre-fill with garbage: every element must be written.
    Tensor got = Tensor::full(want.shape(), std::nanf(""));
    im2col(x, g, got);
    EXPECT_TRUE(same_bits(want, got)) << geometry_name(g);
  }
}

TEST(Lowering, Col2imMatchesPerElementReferenceBitwise) {
  std::uint64_t seed = 400;
  for (const Conv2dGeometry& g : lowering_geometries()) {
    util::Rng rng(++seed);
    const Tensor cols =
        Tensor::randn({g.patch_size(), g.out_h() * g.out_w()}, rng);
    // Accumulate onto a non-zero start so the addition order shows.
    const Tensor start = lowering_input({g.in_channels, g.in_h, g.in_w}, seed);
    Tensor want = start;
    ref::col2im_accumulate(cols, g, want);
    Tensor got = start;
    col2im_accumulate(cols, g, got);
    EXPECT_TRUE(same_bits(want, got)) << geometry_name(g);
  }
}

TEST(Lowering, ReluMatchesBranchingReferenceOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> v = {0.0F, -0.0F, nan, -nan, inf, -inf, 1.5F, -2.5F,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min()};
  util::Rng rng(500);
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<float>(rng.normal()));
  }
  const Tensor x({static_cast<int>(v.size())}, v);
  Tensor g = Tensor::randn(x.shape(), rng);
  g.data()[0] = -0.0F;
  g.data()[1] = nan;
  for (bool training : {true, false}) {
    ref::ReLU want_layer;
    nn::ReLU got_layer;
    const Tensor want = want_layer.forward(x, training);
    const Tensor got = got_layer.forward(x, training);
    EXPECT_TRUE(same_bits(want, got)) << "training=" << training;
  }
  // Training maps -0.0 and NaN to +0.0; inference keeps both.
  nn::ReLU layer;
  const Tensor trained = layer.forward(x, true);
  EXPECT_FALSE(std::signbit(trained.data()[1]));
  EXPECT_EQ(trained.data()[2], 0.0F);
  const Tensor inferred = layer.forward(x, false);
  EXPECT_TRUE(std::signbit(inferred.data()[1]));
  EXPECT_TRUE(std::isnan(inferred.data()[2]));

  ref::ReLU want_layer;
  nn::ReLU got_layer;
  want_layer.forward(x, true);
  got_layer.forward(x, true);
  EXPECT_TRUE(same_bits(want_layer.backward(g), got_layer.backward(g)));
}

TEST(Lowering, MaxPoolMatchesBranchingReferenceOnTiesAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [k, s] :
       {std::pair{2, 2}, std::pair{3, 1}, std::pair{3, 2}}) {
    const int n = 2, c = 3, h = 9, w = 7;
    Tensor x =
        lowering_input({n, c, h, w}, 600 + static_cast<std::uint64_t>(k * s));
    float* p = x.data();
    // Whole-plane ties, a NaN-led window, an all-NaN window and -inf.
    for (int i = 0; i < h * w; ++i) p[i] = 1.25F;
    p[h * w] = nan;
    p[h * w + 4] = nan;
    for (int i = 2 * h * w; i < 2 * h * w + 2 * w; ++i) p[i] = nan;
    p[3 * h * w + 1] = -inf;
    p[3 * h * w + w] = inf;
    const ref::MaxPoolOut want = ref::maxpool_forward(x, k, s);
    nn::MaxPool2d pool(c, h, w, k, s);
    const Tensor got_eval = pool.forward(x, /*training=*/false);
    const Tensor got = pool.forward(x, /*training=*/true);
    EXPECT_TRUE(same_bits(want.y, got)) << "k=" << k << " s=" << s;
    EXPECT_TRUE(same_bits(want.y, got_eval)) << "k=" << k << " s=" << s;
    // The routed gradient lands where the reference argmax points.
    util::Rng rng(601);
    const Tensor gy = Tensor::randn(got.shape(), rng);
    Tensor want_dx({n, c, h, w});
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const std::size_t out_plane =
        static_cast<std::size_t>(got.dim(2)) * got.dim(3);
    for (std::size_t o = 0; o < gy.numel(); ++o) {
      want_dx.data()[o / out_plane * plane +
                     static_cast<std::size_t>(want.argmax[o])] += gy.data()[o];
    }
    EXPECT_TRUE(same_bits(want_dx, pool.backward(gy)))
        << "k=" << k << " s=" << s;
  }
}

struct ConvLoweringCase {
  int in_c, in_h, in_w, out_c, kernel, stride, pad, batch;
};

const ConvLoweringCase kConvLoweringCases[] = {
    {3, 32, 32, 8, 3, 1, 1, 4},   // AlexNet-lite conv1
    {8, 16, 16, 16, 3, 1, 1, 4},  // conv2 (crosses the backward batch split)
    {16, 8, 8, 24, 3, 1, 1, 4},   // conv3
    {24, 8, 8, 24, 3, 1, 1, 4},   // conv4
    {24, 8, 8, 16, 3, 1, 1, 4},   // conv5
    {1, 28, 28, 6, 5, 1, 2, 3},   // LeNet conv1
    {6, 14, 14, 16, 5, 1, 0, 3},  // LeNet conv2
    {3, 11, 7, 5, 3, 2, 2, 3},    // stride 2, pad >= kernel / 2
    {2, 6, 5, 4, 3, 1, 2, 2},     // pad = kernel - 1
};

void expect_conv_matches_reference(const ConvLoweringCase& cc, bool masked,
                                   const std::string& ctx) {
  util::Rng rng(700 + static_cast<std::uint64_t>(cc.in_h * cc.out_c));
  nn::Conv2d layer(cc.in_c, cc.in_h, cc.in_w, cc.out_c, cc.kernel, cc.stride,
                   cc.pad, rng);
  ref::Conv2d want;
  want.geometry_ = layer.geometry();
  want.out_channels_ = cc.out_c;
  want.weight_ = *layer.params()[0];
  util::Rng brng(701);
  *layer.params()[1] = Tensor::randn({cc.out_c}, brng);
  want.bias_ = *layer.params()[1];
  want.dweight_ = Tensor::zeros(want.weight_.shape());
  want.dbias_ = Tensor::zeros({cc.out_c});
  if (masked) {
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(cc.out_c), 1);
    for (std::size_t j = 0; j < mask.size(); j += 3) mask[j] = 0;
    layer.set_mask(mask);
    want.mask_ = mask;
  }
  layer.zero_grad();
  const Tensor x =
      lowering_input({cc.batch, cc.in_c, cc.in_h, cc.in_w}, 702);
  const Tensor y_want = want.forward(x, true);
  const Tensor y_got = layer.forward(x, true);
  EXPECT_TRUE(same_bits(y_want, y_got)) << ctx << " y";
  EXPECT_TRUE(same_bits(want.forward(x, false), layer.forward(x, false)))
      << ctx << " y (inference)";
  util::Rng grng(703);
  const Tensor gy = Tensor::randn(y_want.shape(), grng);
  EXPECT_TRUE(same_bits(want.backward(gy), layer.backward(gy))) << ctx
                                                                << " dx";
  EXPECT_TRUE(same_bits(want.dweight_, *layer.grads()[0])) << ctx << " dW";
  EXPECT_TRUE(same_bits(want.dbias_, *layer.grads()[1])) << ctx << " db";
}

TEST(Lowering, Conv2dMatchesCopyingReferenceOnEveryBackendAndThreadCount) {
  for (const backend::KernelTable* table : backend::available_tables()) {
    backend::set_kernel_backend(table->id);
    for (int threads : {1, 4}) {
      util::set_global_threads(threads);
      for (const ConvLoweringCase& cc : kConvLoweringCases) {
        for (bool masked : {false, true}) {
          std::ostringstream ctx;
          ctx << table->name << " threads=" << threads
              << (masked ? " masked " : " full ") << "c=" << cc.in_c
              << " h=" << cc.in_h << " w=" << cc.in_w << " oc=" << cc.out_c
              << " k=" << cc.kernel << " s=" << cc.stride << " p=" << cc.pad;
          expect_conv_matches_reference(cc, masked, ctx.str());
        }
      }
    }
  }
  util::set_global_threads(0);
  backend::clear_kernel_backend_override();
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(11);
  Tensor logits = Tensor::randn({4, 7}, rng, 3.0F);
  Tensor probs;
  row_softmax(logits, probs);
  for (int i = 0; i < 4; ++i) {
    float s = 0.0F;
    for (int j = 0; j < 7; ++j) {
      EXPECT_GT(probs.at(i, j), 0.0F);
      s += probs.at(i, j);
    }
    EXPECT_NEAR(s, 1.0F, 1e-5F);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits = mat({1, 3}, {1000.0F, 999.0F, 998.0F});
  Tensor probs;
  row_softmax(logits, probs);
  EXPECT_FALSE(std::isnan(probs.at(0, 0)));
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

TEST(CrossEntropy, UniformLogitsLossIsLogC) {
  Tensor logits({2, 4});
  const std::vector<int> labels{1, 3};
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, labels, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradientSumsToZeroPerRow) {
  util::Rng rng(12);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<int> labels{0, 2, 4};
  Tensor grad;
  softmax_cross_entropy(logits, labels, grad);
  for (int i = 0; i < 3; ++i) {
    float s = 0.0F;
    for (int j = 0; j < 5; ++j) s += grad.at(i, j);
    EXPECT_NEAR(s, 0.0F, 1e-6F);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({2, 3});
  Tensor grad;
  const std::vector<int> bad{0, 3};
  EXPECT_THROW(softmax_cross_entropy(logits, bad, grad), std::out_of_range);
  const std::vector<int> wrong_count{0};
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_count, grad),
               std::invalid_argument);
}

TEST(CountCorrect, ArgmaxMatching) {
  Tensor logits = mat({3, 3}, {5, 1, 1, 0, 9, 0, 1, 2, 3});
  const std::vector<int> labels{0, 1, 0};
  EXPECT_EQ(count_correct(logits, labels), 2);
}

}  // namespace
}  // namespace helios::tensor
