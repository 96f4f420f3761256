#include "kernels/wino_gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/lanes.h"
#include "kernels/parallel.h"

namespace hetacc::kernels {

namespace {

void check_tile_size(int n) {
  if (n < 1 || n > kWinogradMaxN) {
    throw std::logic_error("winograd kernel: unsupported tile size n=" +
                           std::to_string(n));
  }
}

}  // namespace

int winograd_band_rows(int tiles_h, int tiles_w) {
  constexpr int kBandColumns = 16;  // one f64 panel at NR = 16, two at 8
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
  // Tile t sits at tile row t / tiles_w, tile column t % tiles_w of the band;
  // its window starts tile_at[t] floats into a channel plane.
  std::size_t* tile_at = arena.alloc<std::size_t>(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    tile_at[t] = static_cast<std::size_t>(t / tiles_w) * m * band_w +
                 static_cast<std::size_t>(t % tiles_w) * m;
  }

  // Forward transform, one task per input channel: the channel's T tiles
  // are the lanes. They are gathered lane-major into the worker's scratch,
  // and plane ab of V receives them as one contiguous run.
  parallel_for(static_cast<std::size_t>(plan.in_c), 1, threads,
               [&](std::size_t c) {
                 ScratchArena& wa = ScratchArena::tls();
                 ScratchArena::Scope ws(wa);
                 double* d =
                     wa.alloc<double>(static_cast<std::size_t>(n) * n * T);
                 const float* cplane = band + c * band_plane;
                 for (int u = 0; u < n; ++u) {
                   for (int w = 0; w < n; ++w) {
                     const float* src =
                         cplane + static_cast<std::size_t>(u) * band_w + w;
                     double* dst = d + static_cast<std::size_t>(u * n + w) * T;
                     for (int t = 0; t < T; ++t) dst[t] = src[tile_at[t]];
                   }
                 }
                 lane_transform(plan.bt.data(), plan.bt.data(), n, n, d, T,
                                v + c * T, vplane, T);
               });

  // The 16-bit model's multiplier inputs: each V element rounded to float
  // and snapped to Q(v_frac), a plane at a time through a float staging run.
  // A pass of its own keeps the transform tasks above free of it on the
  // float path.
  if (v_frac >= 0) {
    parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
      constexpr std::size_t kRun = 512;
      float run[kRun];
      double* plane = v + ab * vplane;
      for (std::size_t i = 0; i < vplane; i += kRun) {
        const std::size_t len = std::min(kRun, vplane - i);
        for (std::size_t j = 0; j < len; ++j) {
          run[j] = static_cast<float>(plane[i + j]);
        }
        snap_q16(run, run, len, v_frac);
        std::copy(run, run + len, plane + i);
      }
    });
  }

  parallel_for(static_cast<std::size_t>(n) * n, threads, [&](std::size_t ab) {
    gemm_f64(plan.planes[ab], T, v + ab * vplane, T, mm + ab * mplane, T,
             /*threads=*/1);
  });

  // Inverse transform + scatter, one task per output channel with its T
  // tiles as the lanes: tile t writes columns [tj*m, tj*m + m) of its tile
  // row's output rows, which together cover every row of the channel, so
  // the Q16 snap then runs over whole rows.
  parallel_for(
      static_cast<std::size_t>(plan.out_c), 1, threads, [&](std::size_t oc) {
        ScratchArena& wa = ScratchArena::tls();
        ScratchArena::Scope ws(wa);
        const std::size_t mm_plane = static_cast<std::size_t>(m) * m;
        double* y = wa.alloc<double>(mm_plane * T);
        lane_transform(plan.at.data(), plan.at.data(), m, n, mm + oc * T,
                       mplane, y, T, T);
        const float b = bias ? bias[oc] : 0.0f;
        for (int t = 0; t < T; ++t) {
          const int top = (t / tiles_w) * m;
          if (top >= rows_out) break;
          const int col0 = (t % tiles_w) * m;
          const int rows = std::min(m, rows_out - top);
          const int cols = std::min(m, out_w - col0);
          for (int a = 0; a < rows; ++a) {
            float* orow =
                out_rows[static_cast<std::size_t>(top + a) * plan.out_c + oc] +
                col0;
            const double* ya = y + static_cast<std::size_t>(a) * m * T + t;
            for (int bc = 0; bc < cols; ++bc) {
              const float val =
                  static_cast<float>(ya[static_cast<std::size_t>(bc) * T]) + b;
              orow[bc] = relu ? std::max(val, 0.0f) : val;
            }
          }
        }
        if (out_frac >= 0) {
          for (int a = 0; a < rows_out; ++a) {
            float* orow =
                out_rows[static_cast<std::size_t>(a) * plan.out_c + oc];
            snap_q16(orow, orow, static_cast<std::size_t>(out_w), out_frac);
          }
        }
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
