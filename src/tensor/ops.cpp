#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/backend/dispatch.h"

namespace helios::tensor {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

void require_2d(const Tensor& t, const char* what) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string(what) + " must be 2-D, got " +
                                shape_to_string(t.shape()));
  }
}

/// Packs the indices of non-zero mask bytes, for backends that stream
/// index lists (KernelTable::use_index_lists) instead of branch-testing
/// the mask in inner loops. Built once per call, shared read-only by every
/// parallel chunk.
std::vector<std::int32_t> pack_active(RowMask mask) {
  std::vector<std::int32_t> out;
  out.reserve(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

/// Fills the shared operand block for a matmul wrapper; `inner_mask` says
/// whether the mask gates a non-partitioned loop dimension (only then does
/// a list-streaming backend want the packed indices).
backend::MatmulArgs matmul_args(const Tensor& a, const Tensor& b, Tensor& c,
                                int m, int k, int n, RowMask mask,
                                std::vector<std::int32_t>& active_scratch,
                                bool inner_mask) {
  backend::MatmulArgs args;
  args.a = a.data();
  args.b = b.data();
  args.c = c.data();
  args.m = m;
  args.k = k;
  args.n = n;
  args.mask = mask.empty() ? nullptr : mask.data();
  if (inner_mask && !mask.empty() &&
      backend::active_kernels().use_index_lists) {
    active_scratch = pack_active(mask);
    args.active = active_scratch.data();
    args.n_active = static_cast<std::int32_t>(active_scratch.size());
  }
  return args;
}

}  // namespace

void add_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "add_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] += s[i];
}

void sub_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "sub_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] -= s[i];
}

void scale_inplace(Tensor& dst, float s) {
  for (float& v : dst.flat()) v *= s;
}

void axpy_inplace(Tensor& dst, float s, const Tensor& src) {
  require_same_shape(dst, src, "axpy_inplace");
  float* d = dst.data();
  const float* x = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] += s * x[i];
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "mul");
  Tensor out = a;
  float* d = out.data();
  const float* s = b.data();
  for (std::size_t i = 0; i < out.numel(); ++i) d[i] *= s[i];
  return out;
}

double sum(const Tensor& t) {
  double s = 0.0;
  for (float v : t.flat()) s += v;
  return s;
}

double l1_norm(const Tensor& t) {
  double s = 0.0;
  for (float v : t.flat()) s += std::fabs(v);
  return s;
}

double l2_norm(const Tensor& t) {
  double s = 0.0;
  for (float v : t.flat()) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

float max_value(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("max_value: empty tensor");
  float m = t.flat()[0];
  for (float v : t.flat()) m = std::max(m, v);
  return m;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_2d(a, "matmul lhs");
  require_2d(b, "matmul rhs");
  Tensor c({a.dim(0), b.dim(1)});
  matmul_masked_rows_into(a, b, {}, c);
  return c;
}

// The six masked matmul wrappers below share one structure: validate
// shapes, zero/shape the output, build the operand block (plus the packed
// active-index list when the selected backend streams one), then run the
// dispatched kernel over the variant's partition dimension through
// run_chunked — the shared work-estimate + chunking decision. Each backend
// kernel keeps a fixed per-output-element accumulation order, so results
// are bit-identical at any thread count within a backend.

void matmul_masked_rows_into(const Tensor& a, const Tensor& b, RowMask mask,
                             Tensor& c) {
  require_2d(a, "matmul lhs");
  require_2d(b, "matmul rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != m) {
    throw std::invalid_argument("matmul: row mask size mismatch");
  }
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  else c.fill(0.0F);

  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_rows(args, lo, hi);
              });
}

void matmul_tn_masked_accumulate(const Tensor& a, const Tensor& b,
                                 RowMask mask, Tensor& c) {
  require_2d(a, "matmul_tn lhs");
  require_2d(b, "matmul_tn rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn: row mismatch");
  if (c.shape() != Shape{k, n}) {
    throw std::invalid_argument("matmul_tn: output must be pre-shaped [k,n]");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(k, static_cast<std::int64_t>(m) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_tn_acc(args, lo, hi);
              });
}

void matmul_nt_masked_cols_into(const Tensor& a, const Tensor& b, RowMask mask,
                                Tensor& c) {
  require_2d(a, "matmul_nt lhs");
  require_2d(b, "matmul_nt rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner mismatch");
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_nt: column mask size mismatch");
  }
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  else c.fill(0.0F);
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nt_cols(args, lo, hi);
              });
}

void matmul_nn_masked_inner_accumulate(const Tensor& a, const Tensor& b,
                                       RowMask mask, Tensor& c) {
  require_2d(a, "matmul_nn lhs");
  require_2d(b, "matmul_nn rhs");
  const int m = a.dim(0), n = a.dim(1), k = b.dim(1);
  if (b.dim(0) != n) throw std::invalid_argument("matmul_nn: inner mismatch");
  if (c.shape() != Shape{m, k}) {
    throw std::invalid_argument("matmul_nn: output must be pre-shaped [m,k]");
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_nn: inner mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(m, static_cast<std::int64_t>(n) * k,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nn_inner_acc(args, lo, hi);
              });
}

void matmul_tn_masked_out_rows_into(const Tensor& a, const Tensor& b,
                                    RowMask mask, Tensor& c) {
  require_2d(a, "matmul_tn_out lhs");
  require_2d(b, "matmul_tn_out rhs");
  const int m = a.dim(0), n = a.dim(1), k = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn_out: row mismatch");
  if (c.shape() != Shape{n, k}) c = Tensor({n, k});
  else c.fill(0.0F);
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_tn_out: row mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(n, static_cast<std::int64_t>(m) * k,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_tn_out_rows(args, lo, hi);
              });
}

void matmul_nt_masked_rows_accumulate(const Tensor& a, const Tensor& b,
                                      RowMask mask, Tensor& c) {
  require_2d(a, "matmul_nt_rows lhs");
  require_2d(b, "matmul_nt_rows rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_nt_rows: inner mismatch");
  }
  if (c.shape() != Shape{m, n}) {
    throw std::invalid_argument("matmul_nt_rows: output must be pre-shaped");
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != m) {
    throw std::invalid_argument("matmul_nt_rows: row mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nt_rows_acc(args, lo, hi);
              });
}

namespace {

/// Half-open range [lo, hi) of output positions o in [0, out) whose input
/// coordinate o * stride + off lands inside [0, in). Empty ranges come back
/// as lo == hi.
struct Span {
  int lo = 0;
  int hi = 0;
};

inline Span valid_span(int off, int stride, int in, int out) {
  if (stride == 1) {
    const int lo = std::clamp(-off, 0, out);
    return {lo, std::clamp(in - off, lo, out)};
  }
  const int lo = off >= 0 ? 0 : std::min(out, (-off + stride - 1) / stride);
  const int hi = in - off <= 0
                     ? 0
                     : std::min(out, (in - off + stride - 1) / stride);
  return {lo, std::max(lo, hi)};
}

// dst[i] += src[i] (add_span) and dst[i * step] += src[i] (add_strided)
// for i in [0, n). Separate restrict parameters let the compiler vectorize
// without a runtime overlap check per call.
inline void add_span(float* __restrict dst, const float* __restrict src,
                     std::ptrdiff_t n) {
  for (std::ptrdiff_t i = 0; i < n; ++i) dst[i] += src[i];
}

inline void add_strided(float* __restrict dst, const float* __restrict src,
                        std::ptrdiff_t n, int step) {
  for (std::ptrdiff_t i = 0; i < n; ++i) dst[i * step] += src[i];
}

}  // namespace

// Both loops below hoist the padding bounds out of the element loop: per
// kernel tap (ky, kx), the output positions that read a real input pixel
// form a rectangle [ys.lo, ys.hi) x [xs.lo, xs.hi), and everything outside
// it is padding. Offsets stay integers until they are known to be in range,
// so no pointer is ever formed outside the buffers. With stride 1 and
// ow == in_w ("same" padding) output index oy * ow + ox and input index
// iy * in_w + ix differ by a constant per tap, so whole blocks of rows are
// contiguous on both sides.

void im2col(const float* x, const Conv2dGeometry& g, float* cols) {
  const int oh = g.out_h(), ow = g.out_w();
  const int s = g.stride;
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(oh) * ow;
  const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(g.in_h) * g.in_w;
  const bool same_rows = s == 1 && ow == g.in_w;
  // A pure copy, so the tap order is free: channels run innermost and each
  // tap's bounds are computed once.
  for (int ky = 0; ky < g.kernel; ++ky) {
    const Span ys = valid_span(ky - g.pad, s, g.in_h, oh);
    for (int kx = 0; kx < g.kernel; ++kx) {
      const Span xs = valid_span(kx - g.pad, s, g.in_w, ow);
      const bool empty = ys.lo == ys.hi || xs.lo == xs.hi;
      // Input offset of output (ys.lo, xs.lo) within a channel.
      const std::ptrdiff_t src0 =
          static_cast<std::ptrdiff_t>(ys.lo * s + ky - g.pad) * g.in_w +
          (xs.lo * s + kx - g.pad);
      for (int c = 0; c < g.in_channels; ++c) {
        float* crow = cols + ((c * g.kernel + ky) * g.kernel + kx) * plane;
        if (empty) {
          std::fill_n(crow, plane, 0.0F);
          continue;
        }
        const float* in = x + c * hw + src0;
        std::fill_n(crow, static_cast<std::ptrdiff_t>(ys.lo) * ow, 0.0F);
        std::fill_n(crow + static_cast<std::ptrdiff_t>(ys.hi) * ow,
                    static_cast<std::ptrdiff_t>(oh - ys.hi) * ow, 0.0F);
        if (same_rows) {
          // One block copy covers every valid row; the columns it wrapped
          // into from neighbouring rows are padding and get re-zeroed,
          // column by column (a handful of strided stores, no calls).
          const std::ptrdiff_t first =
              static_cast<std::ptrdiff_t>(ys.lo) * ow + xs.lo;
          const std::ptrdiff_t last =
              static_cast<std::ptrdiff_t>(ys.hi - 1) * ow + xs.hi;
          std::copy_n(in, last - first, crow + first);
          auto zero_column = [&](int ox) {
            for (int oy = ys.lo; oy < ys.hi; ++oy) {
              crow[static_cast<std::ptrdiff_t>(oy) * ow + ox] = 0.0F;
            }
          };
          for (int ox = 0; ox < xs.lo; ++ox) zero_column(ox);
          for (int ox = xs.hi; ox < ow; ++ox) zero_column(ox);
          continue;
        }
        for (int oy = ys.lo; oy < ys.hi; ++oy) {
          float* out = crow + static_cast<std::ptrdiff_t>(oy) * ow;
          const float* row =
              in + static_cast<std::ptrdiff_t>(oy - ys.lo) * s * g.in_w;
          std::fill_n(out, xs.lo, 0.0F);
          if (s == 1) {
            std::copy_n(row, xs.hi - xs.lo, out + xs.lo);
          } else {
            for (int ox = xs.lo; ox < xs.hi; ++ox) {
              out[ox] = row[static_cast<std::ptrdiff_t>(ox - xs.lo) * s];
            }
          }
          std::fill_n(out + xs.hi, ow - xs.hi, 0.0F);
        }
      }
    }
  }
}

void col2im_accumulate(const float* cols, const Conv2dGeometry& g,
                       float* dx) {
  // Each input pixel receives its additions in tap order (c, ky, kx), and
  // within one tap every valid output position maps to a distinct pixel, so
  // the element order inside a tap is free: the sums are bit-identical to a
  // plain c -> ky -> kx -> oy -> ox walk with per-element bounds checks.
  // Padded positions are skipped, never added as zeros (-0.0 + 0.0 would
  // change a sign bit).
  const int oh = g.out_h(), ow = g.out_w();
  const int s = g.stride;
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(oh) * ow;
  const std::ptrdiff_t hw = static_cast<std::ptrdiff_t>(g.in_h) * g.in_w;
  const bool same_rows = s == 1 && ow == g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel; ++ky) {
      const Span ys = valid_span(ky - g.pad, s, g.in_h, oh);
      for (int kx = 0; kx < g.kernel; ++kx) {
        const Span xs = valid_span(kx - g.pad, s, g.in_w, ow);
        const int n = xs.hi - xs.lo;
        if (ys.lo == ys.hi || n == 0) continue;
        const float* crow =
            cols + ((c * g.kernel + ky) * g.kernel + kx) * plane +
            static_cast<std::ptrdiff_t>(ys.lo) * ow + xs.lo;
        const std::ptrdiff_t out0 =
            c * hw +
            static_cast<std::ptrdiff_t>(ys.lo * s + ky - g.pad) * g.in_w +
            (xs.lo * s + kx - g.pad);
        if (same_rows && n == ow) {
          // Full-width tap: the valid rows are one contiguous block.
          add_span(dx + out0, crow,
                   static_cast<std::ptrdiff_t>(ys.hi - ys.lo) * ow);
          continue;
        }
        const std::ptrdiff_t out_step = static_cast<std::ptrdiff_t>(s) * g.in_w;
        for (int r = 0; r < ys.hi - ys.lo; ++r) {
          float* out = dx + out0 + r * out_step;
          const float* in = crow + static_cast<std::ptrdiff_t>(r) * ow;
          if (s == 1) {
            add_span(out, in, n);
          } else {
            add_strided(out, in, n, s);
          }
        }
      }
    }
  }
}

void im2col(const Tensor& x, const Conv2dGeometry& g, Tensor& cols) {
  if (x.shape() != Shape{g.in_channels, g.in_h, g.in_w}) {
    throw std::invalid_argument("im2col: input shape mismatch " +
                                shape_to_string(x.shape()));
  }
  const Shape want{g.patch_size(), g.out_h() * g.out_w()};
  if (cols.shape() != want) cols = Tensor(want);
  im2col(x.data(), g, cols.data());
}

void col2im_accumulate(const Tensor& cols, const Conv2dGeometry& g,
                       Tensor& dx) {
  if (cols.shape() != Shape{g.patch_size(), g.out_h() * g.out_w()}) {
    throw std::invalid_argument("col2im: cols shape mismatch");
  }
  if (dx.shape() != Shape{g.in_channels, g.in_h, g.in_w}) {
    throw std::invalid_argument("col2im: output shape mismatch");
  }
  col2im_accumulate(cols.data(), g, dx.data());
}

void row_softmax(const Tensor& logits, Tensor& probs) {
  if (logits.ndim() != 2) throw std::invalid_argument("row_softmax: 2-D only");
  if (probs.shape() != logits.shape()) probs = Tensor(logits.shape());
  const int n = logits.dim(0), c = logits.dim(1);
  const float* lp = logits.data();
  float* pp = probs.data();
  for (int i = 0; i < n; ++i) {
    const float* row = lp + static_cast<std::size_t>(i) * c;
    float* out = pp + static_cast<std::size_t>(i) * c;
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0F;
    for (int j = 0; j < c; ++j) {
      out[j] = std::exp(row[j] - mx);
      denom += out[j];
    }
    const float inv = 1.0F / denom;
    for (int j = 0; j < c; ++j) out[j] *= inv;
  }
}

double softmax_cross_entropy(const Tensor& logits,
                             std::span<const int> labels, Tensor& grad) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: 2-D logits only");
  }
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  row_softmax(logits, grad);
  double loss = 0.0;
  float* gp = grad.data();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) {
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    }
    float* row = gp + static_cast<std::size_t>(i) * c;
    loss -= std::log(std::max(row[y], 1e-12F));
    row[y] -= 1.0F;
    for (int j = 0; j < c; ++j) row[j] *= inv_n;
  }
  return loss / n;
}

int count_correct(const Tensor& logits, std::span<const int> labels) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("count_correct: 2-D logits only");
  }
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("count_correct: label count mismatch");
  }
  const float* lp = logits.data();
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const float* row = lp + static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return correct;
}

}  // namespace helios::tensor
