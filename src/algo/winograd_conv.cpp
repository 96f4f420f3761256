#include "algo/winograd_conv.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fixed/fixed16.h"
#include "kernels/gemm.h"
#include "kernels/lanes.h"
#include "kernels/parallel.h"

namespace hetacc::algo {

namespace {

/// d_tile -> B^T d B for an n x n tile.
Matrix input_transform(const WinogradTransform& t, const Matrix& d) {
  return t.bt * d * t.bt.transposed();
}

/// Extracts an n x n input tile whose top-left output element is
/// (tile_i * m, tile_j * m); reads zero for conv padding and beyond edges.
Matrix extract_tile(const nn::Tensor& in, int channel, int tile_i, int tile_j,
                    int n, int m, int pad) {
  Matrix d(n, n);
  const nn::Shape s = in.shape();
  const int h0 = tile_i * m - pad;
  const int w0 = tile_j * m - pad;
  for (int u = 0; u < n; ++u) {
    const int h = h0 + u;
    if (h < 0 || h >= s.h) continue;
    for (int v = 0; v < n; ++v) {
      const int w = w0 + v;
      if (w < 0 || w >= s.w) continue;
      d.at(u, v) = in.at(channel, h, w);
    }
  }
  return d;
}

/// Flattens the transform matrices into the plan's row-major arrays.
void flatten_transforms(const WinogradTransform& t, std::vector<double>& bt,
                        std::vector<double>& at) {
  const int n = t.n();
  bt.resize(static_cast<std::size_t>(n) * n);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) bt[static_cast<std::size_t>(a) * n + b] = t.bt.at(a, b);
  }
  at.resize(static_cast<std::size_t>(t.m) * n);
  for (int a = 0; a < t.m; ++a) {
    for (int b = 0; b < n; ++b) at[static_cast<std::size_t>(a) * n + b] = t.at.at(a, b);
  }
}

}  // namespace

TransformedFilters transform_filters(const WinogradTransform& t,
                                     const nn::FilterBank& f) {
  if (f.kernel() != t.r) {
    throw std::invalid_argument("transform_filters: kernel != r");
  }
  TransformedFilters tf{t, f.out_channels(), f.in_channels(), {}};
  tf.u.reserve(static_cast<std::size_t>(f.out_channels()) * f.in_channels());
  for (int n = 0; n < f.out_channels(); ++n) {
    for (int m = 0; m < f.in_channels(); ++m) {
      Matrix g(t.r, t.r);
      for (int u = 0; u < t.r; ++u) {
        for (int v = 0; v < t.r; ++v) g.at(u, v) = f.at(n, m, u, v);
      }
      tf.u.push_back(t.g * g * t.g.transposed());
    }
  }
  return tf;
}

namespace {

/// Builds a plan whose plane ab holds, at (oc, ic), element ab of the n x n
/// transformed filter of that pair. The walk follows the panel layout: for
/// each panel of kPackedMR output channels (adjacent in every plane) and
/// each input channel, `fill(oc0, lanes, ic, y)` writes the `lanes` <=
/// kPackedMR filters of oc0.. lane-major into y (element ab of lane i at
/// y[ab * kPackedMR + i]), and each plane receives them as one run, so
/// every plane is written front to back.
template <typename Fill>
kernels::WinogradPlan build_plan(const WinogradTransform& t, int out_c,
                                 int in_c, Fill fill) {
  const int n = t.n();
  if (n > kernels::kWinogradMaxN) {
    throw std::logic_error("winograd plan: unsupported tile size n=" +
                           std::to_string(n));
  }
  kernels::WinogradPlan plan;
  plan.m = t.m;
  plan.r = t.r;
  plan.n = n;
  plan.out_c = out_c;
  plan.in_c = in_c;
  flatten_transforms(t, plan.bt, plan.at);
  plan.planes.reserve(static_cast<std::size_t>(n) * n);
  for (int ab = 0; ab < n * n; ++ab) plan.planes.emplace_back(out_c, in_c);
  constexpr int MR = kernels::kPackedMR;
  double y[kernels::kWinogradMaxN * kernels::kWinogradMaxN * MR];
  for (int oc0 = 0; oc0 < out_c; oc0 += MR) {
    const int lanes = std::min(MR, out_c - oc0);
    for (int ic = 0; ic < in_c; ++ic) {
      fill(oc0, lanes, ic, y);
      const auto slot = plan.planes.front().slot(oc0, ic);
      for (int ab = 0; ab < n * n; ++ab) {
        double* dst = &plan.planes[static_cast<std::size_t>(ab)].at(slot);
        std::copy(y + ab * MR, y + ab * MR + lanes, dst);
      }
    }
  }
  return plan;
}

/// The plan of already-transformed filters (the pretransformed entry point).
kernels::WinogradPlan plan_of(const TransformedFilters& tf) {
  const int n = tf.t.n();
  return build_plan(tf.t, tf.out_channels, tf.in_channels,
                    [&](int oc0, int lanes, int ic, double* y) {
                      for (int i = 0; i < lanes; ++i) {
                        const Matrix& x = tf.at(oc0 + i, ic);
                        for (int ab = 0; ab < n * n; ++ab) {
                          y[ab * kernels::kPackedMR + i] = x.at(ab / n, ab % n);
                        }
                      }
                    });
}

}  // namespace

kernels::WinogradPlan winograd_plan(const WinogradTransform& t,
                                    const nn::FilterBank& f) {
  if (f.kernel() != t.r) {
    throw std::invalid_argument("winograd_plan: kernel != r");
  }
  const int n = t.n(), r = t.r;
  constexpr int MR = kernels::kPackedMR;
  std::vector<double> g_mat(static_cast<std::size_t>(n) * r);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < r; ++b) {
      g_mat[static_cast<std::size_t>(a) * r + b] = t.g.at(a, b);
    }
  }
  // U = (G g) G^T, in the shape transform_filters evaluates it, with the
  // panel's output channels as the lanes.
  std::vector<double> g(static_cast<std::size_t>(r) * r * MR, 0.0);
  return build_plan(t, f.out_channels(), f.in_channels(),
                    [&](int oc0, int lanes, int ic, double* y) {
                      for (int i = 0; i < lanes; ++i) {
                        for (int ab = 0; ab < r * r; ++ab) {
                          g[static_cast<std::size_t>(ab) * MR + i] =
                              f.at(oc0 + i, ic, ab / r, ab % r);
                        }
                      }
                      kernels::lane_transform(g_mat.data(), g_mat.data(), n,
                                              r, g.data(), MR, y, MR, lanes);
                    });
}

namespace {

nn::Tensor run_plan(const kernels::WinogradPlan& plan, const nn::Tensor& in,
                    const std::vector<float>& bias, int pad, bool fused_relu) {
  const nn::Shape is = in.shape();
  if (is.c != plan.in_c) {
    throw std::invalid_argument("winograd_conv: channel mismatch");
  }
  const int oh = is.h + 2 * pad - plan.r + 1;  // stride 1
  const int ow = is.w + 2 * pad - plan.r + 1;
  nn::Tensor out(plan.out_c, oh, ow);
  kernels::winograd_conv_f32(plan, in.data(), is.h, is.w, pad,
                             bias.empty() ? nullptr : bias.data(), fused_relu,
                             /*v_frac=*/-1, /*out_frac=*/-1, out.data(), oh, ow,
                             /*threads=*/0);
  return out;
}

}  // namespace

nn::Tensor winograd_conv_pretransformed(const TransformedFilters& tf,
                                        const nn::Tensor& in,
                                        const std::vector<float>& bias,
                                        int pad, bool fused_relu) {
  return run_plan(plan_of(tf), in, bias, pad, fused_relu);
}

nn::Tensor winograd_conv(const WinogradTransform& t, const nn::Tensor& in,
                         const nn::FilterBank& filters,
                         const std::vector<float>& bias, int pad,
                         bool fused_relu) {
  return run_plan(winograd_plan(t, filters), in, bias, pad, fused_relu);
}

namespace {

/// Numeric-format selection shared by the fixed path and its scalar twin.
/// Mirrors the seed exactly: u_frac from the largest transformed-filter
/// magnitude `u_max`, v_frac from the B^T row gain applied twice times
/// max|d|.
void choose_winograd_fracs(const WinogradTransform& t, double u_max,
                           const nn::Tensor& in, int* u_frac, int* v_frac) {
  const int n = t.n();
  *u_frac = fixed::choose_frac_bits(static_cast<float>(u_max));

  double bt_gain = 0.0;
  for (int a = 0; a < n; ++a) {
    double row = 0.0;
    for (int b = 0; b < n; ++b) row += std::abs(t.bt.at(a, b));
    bt_gain = std::max(bt_gain, row);
  }
  float d_max = 0.0f;
  for (float x : in.vec()) d_max = std::max(d_max, std::abs(x));
  *v_frac = fixed::choose_frac_bits(
      static_cast<float>(bt_gain * bt_gain * std::max(d_max, 1e-6f)));
}

}  // namespace

nn::Tensor winograd_conv_fixed(const WinogradTransform& t,
                               const nn::Tensor& in,
                               const nn::FilterBank& filters,
                               const std::vector<float>& bias, int pad,
                               bool fused_relu, int data_frac, int out_frac) {
  const nn::Shape is = in.shape();
  if (is.c != filters.in_channels()) {
    throw std::invalid_argument("winograd_conv_fixed: channel mismatch");
  }
  // The transform-domain GEMM reduces over input channels.
  kernels::require_exact_q16_depth(is.c, "winograd_conv_fixed");
  kernels::WinogradPlan plan = winograd_plan(t, filters);

  double u_max = 0.0;
  for (const kernels::PackedLhsF64& p : plan.planes) {
    for (int pb = 0; pb < p.pblocks(); ++pb) {
      for (int ib = 0; ib < p.iblocks(); ++ib) {
        for (double x : p.block(pb, ib)) u_max = std::max(u_max, std::abs(x));
      }
    }
  }
  int u_frac = 0, v_frac = 0;
  choose_winograd_fracs(t, u_max, in, &u_frac, &v_frac);

  // Snap every filter plane element to its 16-bit multiplier input. Planes
  // share one layout, so each (oc, ic) is located once for all of them.
  for (int oc = 0; oc < plan.out_c; ++oc) {
    for (int ic = 0; ic < plan.in_c; ++ic) {
      const auto slot = plan.planes.front().slot(oc, ic);
      for (kernels::PackedLhsF64& p : plan.planes) {
        double& u = p.at(slot);
        u = fixed::quantize_to_float(static_cast<float>(u), u_frac);
      }
    }
  }

  // Samples enter the datapath already quantized; quantizing the map once is
  // value-identical to the seed's per-tile quantization (zero padding
  // quantizes to zero).
  nn::Tensor qin = in;
  const std::size_t plane = static_cast<std::size_t>(is.h) * is.w;
  kernels::parallel_for(static_cast<std::size_t>(is.c), 0,
                        [&](std::size_t c) {
                          float* q = qin.data() + c * plane;
                          kernels::snap_q16(q, q, plane, data_frac);
                        });

  const int oh = is.h + 2 * pad - t.r + 1;
  const int ow = is.w + 2 * pad - t.r + 1;
  nn::Tensor out(plan.out_c, oh, ow);
  kernels::winograd_conv_f32(plan, qin.data(), is.h, is.w, pad,
                             bias.empty() ? nullptr : bias.data(), fused_relu,
                             v_frac, out_frac, out.data(), oh, ow,
                             /*threads=*/0);
  return out;
}

nn::Tensor winograd_conv_fixed_scalar(const WinogradTransform& t,
                                      const nn::Tensor& in,
                                      const nn::FilterBank& filters,
                                      const std::vector<float>& bias, int pad,
                                      bool fused_relu, int data_frac,
                                      int out_frac) {
  using fixed::Fixed16;
  const TransformedFilters tf = transform_filters(t, filters);
  const nn::Shape is = in.shape();
  const int n = t.n();
  const int oh = is.h + 2 * pad - t.r + 1;
  const int ow = is.w + 2 * pad - t.r + 1;
  nn::Tensor out(tf.out_channels, oh, ow);

  double u_max = 0.0;
  for (const Matrix& u : tf.u) {
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) u_max = std::max(u_max, std::abs(u.at(a, b)));
    }
  }
  int u_frac = 0, v_frac = 0;
  choose_winograd_fracs(t, u_max, in, &u_frac, &v_frac);

  const int tiles_h = (oh + t.m - 1) / t.m;
  const int tiles_w = (ow + t.m - 1) / t.m;
  std::vector<Matrix> v(static_cast<std::size_t>(is.c));

  for (int ti = 0; ti < tiles_h; ++ti) {
    for (int tj = 0; tj < tiles_w; ++tj) {
      for (int c = 0; c < is.c; ++c) {
        Matrix d = extract_tile(in, c, ti, tj, n, t.m, pad);
        // Input samples enter the datapath already quantized to 16 bits.
        for (int a = 0; a < n; ++a) {
          for (int b = 0; b < n; ++b) {
            d.at(a, b) = fixed::quantize_to_float(
                static_cast<float>(d.at(a, b)), data_frac);
          }
        }
        v[static_cast<std::size_t>(c)] = input_transform(t, d);
      }
      for (int oc = 0; oc < tf.out_channels; ++oc) {
        std::int64_t acc[64] = {};  // n <= 8 covers every supported tile size
        if (n * n > 64) throw std::logic_error("winograd_conv_fixed: tile too big");
        for (int c = 0; c < is.c; ++c) {
          const Matrix& u = tf.at(oc, c);
          const Matrix& vv = v[static_cast<std::size_t>(c)];
          for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
              // 16-bit multiplier inputs, 32-bit product, wide accumulate.
              const std::int16_t uq =
                  Fixed16::quantize(static_cast<float>(u.at(a, b)), u_frac);
              const std::int16_t vq = Fixed16::quantize(
                  static_cast<float>(vv.at(a, b)), v_frac);
              acc[a * n + b] += static_cast<std::int32_t>(uq) * vq;
            }
          }
        }
        Matrix macc(n, n);
        const double scale = std::ldexp(1.0, -(u_frac + v_frac));
        for (int a = 0; a < n; ++a) {
          for (int b = 0; b < n; ++b) {
            macc.at(a, b) = static_cast<double>(acc[a * n + b]) * scale;
          }
        }
        const Matrix y = t.at * macc * t.at.transposed();
        const float bia = bias.empty() ? 0.0f : bias[oc];
        for (int a = 0; a < t.m; ++a) {
          const int h = ti * t.m + a;
          if (h >= oh) break;
          for (int bcol = 0; bcol < t.m; ++bcol) {
            const int w = tj * t.m + bcol;
            if (w >= ow) break;
            float val = static_cast<float>(y.at(a, bcol)) + bia;
            if (fused_relu) val = std::max(val, 0.0f);
            out.at(oc, h, w) = fixed::quantize_to_float(val, out_frac);
          }
        }
      }
    }
  }
  return out;
}

long long winograd_layer_mults(const WinogradTransform& t, int in_channels,
                               int out_channels, int out_h, int out_w) {
  const long long tiles = static_cast<long long>((out_h + t.m - 1) / t.m) *
                          ((out_w + t.m - 1) / t.m);
  return tiles * t.tile_mults_2d() * in_channels * out_channels;
}

}  // namespace hetacc::algo
