#include "kernels/wino_gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "fixed/fixed16.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"

// gather_tile writes every d[u*n + v] for u, v < n — exactly the prefix the
// transforms read — but GCC cannot prove coverage with a runtime n and warns
// -Wmaybe-uninitialized on the kWinogradMaxN-sized stack arrays.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hetacc::kernels {

void matmul_nn(const double* A, int ra, int ca, const double* B, int cb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * cb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[static_cast<std::size_t>(r) * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < cb; ++c) {
        C[static_cast<std::size_t>(r) * cb + c] +=
            a * B[static_cast<std::size_t>(k) * cb + c];
      }
    }
  }
}

void matmul_nt(const double* A, int ra, int ca, const double* B, int rb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * rb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[static_cast<std::size_t>(r) * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < rb; ++c) {
        C[static_cast<std::size_t>(r) * rb + c] +=
            a * B[static_cast<std::size_t>(c) * ca + k];
      }
    }
  }
}

namespace {

void check_tile_size(int n) {
  if (n < 1 || n > kWinogradMaxN) {
    throw std::logic_error("winograd kernel: unsupported tile size n=" +
                           std::to_string(n));
  }
}

/// Gather one tile's n x n window from a pre-padded window whose rows are
/// `row_w` floats apart.
inline void gather_tile(const float* cplane, int row_w, int tj, int m, int n,
                        double* d) {
  for (int u = 0; u < n; ++u) {
    const float* src = cplane + static_cast<std::size_t>(u) * row_w + tj * m;
    for (int v = 0; v < n; ++v) d[u * n + v] = src[v];
  }
}

inline float finish_output(float val, bool relu, int out_frac) {
  if (relu) val = std::max(val, 0.0f);
  return out_frac >= 0 ? fixed::quantize_to_float(val, out_frac) : val;
}

/// Inverse-transform one (oc, tile) result and scatter it to the output
/// rows, clipping the bottom/right edge tiles.
inline void scatter_tile(const double* macc, const double* at, int m, int n,
                         float* const* out_rows, int out_c, int oc, int tj,
                         int rows_out, int out_w, float bias, bool relu,
                         int out_frac) {
  double p[kWinogradMaxN * kWinogradMaxN];
  double y[kWinogradMaxN * kWinogradMaxN];
  matmul_nn(at, m, n, macc, n, p);
  matmul_nt(p, m, n, at, m, y);
  for (int a = 0; a < rows_out; ++a) {
    float* orow = out_rows[static_cast<std::size_t>(a) * out_c + oc];
    for (int b = 0; b < m; ++b) {
      const int col = tj * m + b;
      if (col >= out_w) break;
      const float val = static_cast<float>(y[a * m + b]) + bias;
      orow[col] = finish_output(val, relu, out_frac);
    }
  }
}

/// Chunk size for the (channel x tile) transform grids: a few tiles per
/// cursor claim keeps per-channel locality without starving wide machines on
/// narrow bands.
inline std::size_t tile_grain(int tiles) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(tiles), 1, 8);
}

}  // namespace

int winograd_band_rows(int tiles_h, int tiles_w) {
  constexpr int kBandColumns = 16;  // two NR = 8 panels of the f64 GEMM
  const int rows = (kBandColumns + tiles_w - 1) / std::max(tiles_w, 1);
  return std::clamp(rows, 1, std::max(tiles_h, 1));
}

void winograd_band(const WinogradPlan& plan, const float* band, int band_w,
                   int band_rows, int tiles_w, float* const* out_rows,
                   int rows_out, int out_w, const float* bias, bool relu,
                   int v_frac, int out_frac, int threads) {
  const int n = plan.n, m = plan.m;
  check_tile_size(n);
  const int T = band_rows * tiles_w;
  const std::size_t band_plane =
      static_cast<std::size_t>((band_rows - 1) * m + n) * band_w;
  const std::size_t vplane = static_cast<std::size_t>(plan.in_c) * T;
  const std::size_t mplane = static_cast<std::size_t>(plan.out_c) * T;
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  double* v = arena.alloc<double>(static_cast<std::size_t>(n) * n * vplane);
  double* mm = arena.alloc<double>(static_cast<std::size_t>(n) * n * mplane);

  // Forward transform over the (in_c x tile) grid: each task owns one tile
  // of one channel and writes a disjoint V slot per plane. Tile t sits at
  // tile row t / tiles_w, tile column t % tiles_w of the band.
  parallel_for(static_cast<std::size_t>(plan.in_c) * T, tile_grain(T), threads,
               [&](std::size_t g) {
                 const std::size_t c = g / T;
                 const int t = static_cast<int>(g % T);
                 const float* cplane =
                     band + c * band_plane +
                     static_cast<std::size_t>(t / tiles_w) * m * band_w;
                 double d[kWinogradMaxN * kWinogradMaxN];
                 double tmp[kWinogradMaxN * kWinogradMaxN];
                 double vt[kWinogradMaxN * kWinogradMaxN];
                 gather_tile(cplane, band_w, t % tiles_w, m, n, d);
                 matmul_nn(plan.bt.data(), n, n, d, n, tmp);
                 matmul_nt(tmp, n, n, plan.bt.data(), n, vt);
                 for (int ab = 0; ab < n * n; ++ab) {
                   v[static_cast<std::size_t>(ab) * vplane + c * T + t] =
                       vt[ab];
                 }
               });

  // The 16-bit model's multiplier inputs. A pass of its own keeps the
  // transform loop above free of the quantizer call on the float path.
  if (v_frac >= 0) {
    parallel_for(static_cast<std::size_t>(n) * n * vplane, 4096, threads,
                 [&](std::size_t i) {
                   v[i] = fixed::quantize_to_float(static_cast<float>(v[i]),
                                                   v_frac);
                 });
  }

  parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
    gemm_f64(plan.planes[ab], T, v + ab * vplane, T, mm + ab * mplane, T,
             /*threads=*/1);
  });

  // Inverse transform + scatter over the (out_c x tile) grid: tile t of
  // channel oc touches only columns [tj*m, tj*m + m) of its tile row's
  // output rows.
  parallel_for(static_cast<std::size_t>(plan.out_c) * T, tile_grain(T),
               threads, [&](std::size_t g) {
                 const std::size_t oc = g / T;
                 const int t = static_cast<int>(g % T);
                 const int top = (t / tiles_w) * m;
                 if (top >= rows_out) return;
                 double macc[kWinogradMaxN * kWinogradMaxN];
                 const float b = bias ? bias[oc] : 0.0f;
                 for (int ab = 0; ab < n * n; ++ab) {
                   macc[ab] =
                       mm[static_cast<std::size_t>(ab) * mplane + oc * T + t];
                 }
                 scatter_tile(macc, plan.at.data(), m, n,
                              out_rows + static_cast<std::size_t>(top) *
                                             plan.out_c,
                              plan.out_c, static_cast<int>(oc), t % tiles_w,
                              std::min(m, rows_out - top), out_w, b, relu,
                              out_frac);
               });
}

namespace {

/// Copies `rows` padded input rows starting at padded row `top` into `band`
/// ([C][rows][band_w], zero outside the real image).
void fill_band(const float* in, int C, int H, int W, int pad, int top,
               int rows, int band_w, float* band, int threads) {
  parallel_for(static_cast<std::size_t>(C), threads, [&](std::size_t c) {
    float* cdst = band + c * static_cast<std::size_t>(rows) * band_w;
    const float* csrc = in + c * static_cast<std::size_t>(H) * W;
    for (int u = 0; u < rows; ++u) {
      float* dst = cdst + static_cast<std::size_t>(u) * band_w;
      const int h = top + u - pad;
      if (h < 0 || h >= H) {
        std::fill(dst, dst + band_w, 0.0f);
        continue;
      }
      const int x0 = pad;  // band col x maps to input col x - pad
      const int x1 = std::min(band_w, W + pad);
      if (x0 > 0) std::fill(dst, dst + std::min(x0, band_w), 0.0f);
      if (x1 > x0) {
        std::memcpy(dst + x0, csrc + static_cast<std::size_t>(h) * W,
                    static_cast<std::size_t>(x1 - x0) * sizeof(float));
      }
      if (x1 < band_w) std::fill(dst + std::max(x1, 0), dst + band_w, 0.0f);
    }
  });
}

}  // namespace

void winograd_conv_f32(const WinogradPlan& plan, const float* in, int H, int W,
                       int pad, const float* bias, bool relu, int v_frac,
                       int out_frac, float* out, int out_h, int out_w,
                       int threads) {
  const int m = plan.m, n = plan.n, C = plan.in_c, out_c = plan.out_c;
  const int tiles_h = (out_h + m - 1) / m;
  const int tiles_w = (out_w + m - 1) / m;
  const int band_w = (tiles_w - 1) * m + n;
  const int band_rows = winograd_band_rows(tiles_h, tiles_w);
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  float* band = arena.alloc<float>(static_cast<std::size_t>(C) *
                                   ((band_rows - 1) * m + n) * band_w);
  float** out_rows = arena.alloc<float*>(static_cast<std::size_t>(band_rows) *
                                         m * out_c);
  for (int ti = 0; ti < tiles_h; ti += band_rows) {
    const int rows_b = std::min(band_rows, tiles_h - ti);
    const int top = ti * m;
    fill_band(in, C, H, W, pad, top, (rows_b - 1) * m + n, band_w, band,
              threads);
    const int rows_out = std::min(rows_b * m, out_h - top);
    for (int a = 0; a < rows_out; ++a) {
      for (int oc = 0; oc < out_c; ++oc) {
        out_rows[static_cast<std::size_t>(a) * out_c + oc] =
            out + (static_cast<std::size_t>(oc) * out_h + top + a) * out_w;
      }
    }
    winograd_band(plan, band, band_w, rows_b, tiles_w, out_rows, rows_out,
                  out_w, bias, relu, v_frac, out_frac, threads);
  }
}

}  // namespace hetacc::kernels
