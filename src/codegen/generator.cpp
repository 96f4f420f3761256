#include "codegen/generator.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "algo/winograd_conv.h"
#include "codegen/code_writer.h"
#include "fixed/fixed16.h"

namespace hetacc::codegen {

namespace {

std::string fnum(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << v;
  std::string s = os.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  return s + "f";
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'l');
  }
  return out;
}

/// Per-layer numeric configuration threaded through the emitters.
struct LayerNumeric {
  bool fixed = false;
  int in_frac = 0;
  int out_frac = 0;
};

float filter_max_abs(const nn::FilterBank& f) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < f.size(); ++i) {
    m = std::max(m, std::abs(f.data()[i]));
  }
  return std::max(m, 1e-6f);
}

// ---------------------------------------------------------------- weights --
void emit_filter_array_float(CodeWriter& w, const nn::FilterBank& f,
                             const std::vector<float>& bias) {
  w.open("static const data_t weights[N][M][K][K] = {");
  for (int n = 0; n < f.out_channels(); ++n) {
    std::ostringstream row;
    row << "{";
    for (int m = 0; m < f.in_channels(); ++m) {
      row << "{";
      for (int u = 0; u < f.kernel(); ++u) {
        row << "{";
        for (int v = 0; v < f.kernel(); ++v) {
          row << fnum(f.at(n, m, u, v));
          if (v + 1 < f.kernel()) row << ", ";
        }
        row << "}";
        if (u + 1 < f.kernel()) row << ", ";
      }
      row << "}";
      if (m + 1 < f.in_channels()) row << ", ";
    }
    row << "},";
    w.line(row.str());
  }
  w.close("};");
  std::ostringstream b;
  b << "static const acc_t bias[N] = {";
  for (int n = 0; n < f.out_channels(); ++n) {
    b << fnum(bias.empty() ? 0.0f : bias[n]);
    if (n + 1 < f.out_channels()) b << ", ";
  }
  b << "};";
  w.line(b.str());
}

/// Fixed mode: weights baked as raw Q(w_frac) int16, bias pre-scaled into
/// the Q(in_frac + w_frac) accumulator domain.
void emit_filter_array_fixed(CodeWriter& w, const nn::FilterBank& f,
                             const std::vector<float>& bias, int w_frac,
                             int acc_frac) {
  w.open("static const data_t weights[N][M][K][K] = {");
  for (int n = 0; n < f.out_channels(); ++n) {
    std::ostringstream row;
    row << "{";
    for (int m = 0; m < f.in_channels(); ++m) {
      row << "{";
      for (int u = 0; u < f.kernel(); ++u) {
        row << "{";
        for (int v = 0; v < f.kernel(); ++v) {
          row << fixed::Fixed16::quantize(f.at(n, m, u, v), w_frac);
          if (v + 1 < f.kernel()) row << ", ";
        }
        row << "}";
        if (u + 1 < f.kernel()) row << ", ";
      }
      row << "}";
      if (m + 1 < f.in_channels()) row << ", ";
    }
    row << "},";
    w.line(row.str());
  }
  w.close("};");
  std::ostringstream b;
  b << "static const acc_t bias[N] = {";
  for (int n = 0; n < f.out_channels(); ++n) {
    const double val = bias.empty() ? 0.0 : bias[n];
    b << static_cast<long long>(
        std::llround(val * std::ldexp(1.0, acc_frac)));
    b << "LL";
    if (n + 1 < f.out_channels()) b << ", ";
  }
  b << "};";
  w.line(b.str());
}

void emit_matrix_array(CodeWriter& w, const std::string& decl,
                       const algo::Matrix& m) {
  w.open(decl + " = {");
  for (int r = 0; r < m.rows(); ++r) {
    std::ostringstream row;
    row << "{";
    for (int c = 0; c < m.cols(); ++c) {
      row << fnum(m.at(r, c));
      if (c + 1 < m.cols()) row << ", ";
    }
    row << "},";
    w.line(row.str());
  }
  w.close("};");
}

// ----------------------------------------------------------- shared parts --
void emit_conv_constants(CodeWriter& w, const nn::Layer& l) {
  const auto& p = l.conv();
  w.line("constexpr int M = " + std::to_string(l.in.c) + ", N = " +
         std::to_string(l.out.c) + ", K = " + std::to_string(p.kernel) +
         ", S = " + std::to_string(p.stride) + ", P = " +
         std::to_string(p.pad) + ";");
  w.line("constexpr int H = " + std::to_string(l.in.h) + ", W = " +
         std::to_string(l.in.w) + ", HO = " + std::to_string(l.out.h) +
         ", WO = " + std::to_string(l.out.w) + ";");
  w.line("constexpr int WP = W + 2 * P, HP = H + 2 * P;");
}

void emit_row_ingest(CodeWriter& w) {
  // Shared line-buffer ingest: one padded row per outer iteration.
  w.open("for (int c = 0; c < M; ++c) {");
  w.open("for (int w = 0; w < WP; ++w) {");
  w.pragma("PIPELINE II=1");
  w.line("data_t v = 0;");
  w.line("if (row >= P && row < P + H && w >= P && w < P + W) v = in_s.read();");
  w.line("linebuf[c][row % LINES][w] = v;");
  w.close();
  w.close();
}

/// Emits `data_t <var> = requant(<expr>)` writeback for fixed mode, or a
/// plain cast for float mode. `shift` is the right-shift from the
/// accumulator Q format to the output Q format.
void emit_writeback(CodeWriter& w, const LayerNumeric& nm, int shift,
                    bool relu, const std::string& acc_expr,
                    const std::string& stmt_prefix) {
  if (!nm.fixed) {
    std::string e = acc_expr;
    if (relu) e = "(" + e + ") < 0 ? acc_t(0) : (" + e + ")";
    w.line(stmt_prefix + "(data_t)(" + e + "));");
    return;
  }
  w.line("acc_t shifted = hetacc_requant_shift(" + acc_expr + ", " +
         std::to_string(shift) + ");");
  if (relu) w.line("if (shifted < 0) shifted = 0;");
  w.line(stmt_prefix + "hetacc_saturate(shifted));");
}

// -------------------------------------------------------- layer emitters --
void emit_conv_conventional(CodeWriter& w, const nn::Layer& l,
                            const nn::ConvWeights& cw,
                            const fpga::EngineConfig& cfg,
                            const std::string& fname,
                            const LayerNumeric& nm) {
  const auto& p = l.conv();
  const int w_frac =
      nm.fixed ? fixed::choose_frac_bits(filter_max_abs(cw.filters)) : 0;
  const int acc_frac = nm.in_frac + w_frac;
  w.line("// conventional convolution '" + l.name + "' (template: Conv)");
  w.line("// parallelism: tn=" + std::to_string(cfg.tn) + " tm=" +
         std::to_string(cfg.tm) + " tk=" + std::to_string(cfg.tk) +
         (nm.fixed ? "  Q-format: in=" + std::to_string(nm.in_frac) +
                         " w=" + std::to_string(w_frac) +
                         " out=" + std::to_string(nm.out_frac)
                   : ""));
  w.open("static void " + fname +
         "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
  w.pragma("INLINE off");
  emit_conv_constants(w, l);
  w.line("constexpr int LINES = K + S;");
  if (nm.fixed) {
    emit_filter_array_fixed(w, cw.filters, cw.bias, w_frac, acc_frac);
  } else {
    emit_filter_array_float(w, cw.filters, cw.bias);
  }
  w.line("data_t linebuf[M][LINES][WP];");
  w.pragma("ARRAY_PARTITION variable=linebuf dim=2 complete");
  w.pragma("ARRAY_PARTITION variable=weights cyclic factor=" +
           std::to_string(cfg.tm) + " dim=1");
  w.line("int emitted = 0;");
  w.open("for (int row = 0; row < HP; ++row) {");
  emit_row_ingest(w);
  w.open("while (emitted < HO) {");
  w.line("int need = emitted * S + K - 1;");
  w.line("if (need > HP - 1) need = HP - 1;");
  w.line("if (row < need) break;");
  w.open("for (int oc = 0; oc < N; ++oc) {");
  w.pragma("UNROLL factor=" + std::to_string(cfg.tm));
  w.open("for (int ow = 0; ow < WO; ++ow) {");
  w.pragma("PIPELINE II=1");
  w.line("acc_t acc = bias[oc];");
  w.open("for (int m = 0; m < M; ++m) {");
  w.pragma("UNROLL factor=" + std::to_string(cfg.tn));
  w.open("for (int u = 0; u < K; ++u) {");
  w.open("for (int v = 0; v < K; ++v) {");
  w.line("acc += (acc_t)linebuf[m][(emitted * S + u) % LINES][ow * S + v] *");
  w.line("       (acc_t)weights[oc][m][u][v];");
  w.close();
  w.close();
  w.close();
  emit_writeback(w, nm, acc_frac - nm.out_frac, p.fused_relu, "acc",
                 "out_s.write(");
  w.close();
  w.close();
  w.line("++emitted;");
  w.close();
  w.close();
  w.close();
  w.line();
}

void emit_conv_winograd(CodeWriter& w, const nn::Layer& l,
                        const nn::ConvWeights& cw,
                        const fpga::EngineConfig& cfg,
                        const std::string& fname, const LayerNumeric& nm) {
  const auto& p = l.conv();
  const algo::WinogradTransform t = algo::winograd(cfg.wino_m, p.kernel);
  // U = G g G^T as the engines hold it: plane a*n+b is U[a][b] over every
  // (out, in) channel pair.
  const kernels::WinogradPlan plan = algo::winograd_plan(t, cw.filters);
  const int n = t.n();

  // Fixed mode: quantize the element-wise multiplier operands, exactly as
  // the DSP array would see them. U gets its own Q format; the transformed
  // data V gets one covering the B^T row-gain amplification.
  double u_max = 1e-6;
  for (const kernels::PackedLhsF64& plane : plan.planes) {
    for (int pb = 0; pb < plane.pblocks(); ++pb) {
      for (int ib = 0; ib < plane.iblocks(); ++ib) {
        for (double u : plane.block(pb, ib)) {
          u_max = std::max(u_max, std::abs(u));
        }
      }
    }
  }
  double bt_gain = 0.0;
  for (int a = 0; a < n; ++a) {
    double row = 0.0;
    for (int b = 0; b < n; ++b) row += std::abs(t.bt.at(a, b));
    bt_gain = std::max(bt_gain, row);
  }
  const int u_frac =
      nm.fixed ? fixed::choose_frac_bits(static_cast<float>(u_max)) : 0;
  const double in_max =
      nm.fixed ? 32767.0 / std::ldexp(1.0, nm.in_frac) : 1.0;
  const int v_frac =
      nm.fixed ? fixed::choose_frac_bits(
                     static_cast<float>(bt_gain * bt_gain * in_max))
               : 0;

  w.line("// Winograd F(" + std::to_string(t.m) + "x" + std::to_string(t.m) +
         ", " + std::to_string(t.r) + "x" + std::to_string(t.r) +
         ") convolution '" + l.name + "' (template: WinogradConv)" +
         (nm.fixed ? "  U_FRAC=" + std::to_string(u_frac) +
                         " V_FRAC=" + std::to_string(v_frac)
                   : ""));
  w.open("static void " + fname +
         "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
  w.pragma("INLINE off");
  emit_conv_constants(w, l);
  w.line("constexpr int TM = " + std::to_string(t.m) + ", TN = " +
         std::to_string(n) + ";  // output tile, input tile");
  w.line("constexpr int LINES = TN + TM;");
  w.line("constexpr int TILES_W = (WO + TM - 1) / TM;");

  // Pre-transformed filters U = G g G^T, computed offline at generation.
  const std::string u_type = nm.fixed ? "data_t" : "float";
  w.open("static const " + u_type + " U[N][M][TN][TN] = {");
  for (int oc = 0; oc < l.out.c; ++oc) {
    std::ostringstream row;
    row << "{";
    for (int m = 0; m < l.in.c; ++m) {
      row << "{";
      for (int a = 0; a < n; ++a) {
        row << "{";
        for (int b = 0; b < n; ++b) {
          const double u = plan.planes[a * n + b].at(oc, m);
          if (nm.fixed) {
            row << fixed::Fixed16::quantize(static_cast<float>(u), u_frac);
          } else {
            row << fnum(u);
          }
          if (b + 1 < n) row << ", ";
        }
        row << "}";
        if (a + 1 < n) row << ", ";
      }
      row << "}";
      if (m + 1 < l.in.c) row << ", ";
    }
    row << "},";
    w.line(row.str());
  }
  w.close("};");
  emit_matrix_array(w, "static const float BT[TN][TN]", t.bt);
  emit_matrix_array(w, "static const float AT[TM][TN]", t.at);
  std::ostringstream b;
  b << "static const float bias[N] = {";
  for (int oc = 0; oc < l.out.c; ++oc) {
    b << fnum(cw.bias.empty() ? 0.0f : cw.bias[oc]);
    if (oc + 1 < l.out.c) b << ", ";
  }
  b << "};";
  w.line(b.str());
  if (nm.fixed) {
    w.line("constexpr float IN_SCALE = " +
           fnum(std::ldexp(1.0, -nm.in_frac)) + ";  // Q -> float");
    w.line("constexpr float PROD_SCALE = " +
           fnum(std::ldexp(1.0, -(u_frac + v_frac))) + ";");
    w.line("constexpr float V_SCALE = " + fnum(std::ldexp(1.0, v_frac)) +
           ";");
    w.line("constexpr float OUT_SCALE = " +
           fnum(std::ldexp(1.0, nm.out_frac)) + ";");
  }

  w.line("data_t linebuf[M][LINES][WP];");
  w.pragma("ARRAY_PARTITION variable=linebuf dim=2 complete");
  w.line("int emitted = 0;");
  w.open("for (int row = 0; row < HP; ++row) {");
  emit_row_ingest(w);
  w.open("while (emitted < HO) {");
  w.line("const int blk = emitted / TM;");
  w.line("int need = blk * TM + TN - 1;");
  w.line("if (need > HP - 1) need = HP - 1;");
  w.line("if (row < need) break;");
  w.line("data_t rowbuf[TM][N][WO];");
  w.open("for (int tj = 0; tj < TILES_W; ++tj) {");
  const std::string v_type = nm.fixed ? "data_t" : "float";
  w.line(v_type + " V[M][TN][TN];");
  w.open("for (int c = 0; c < M; ++c) {");
  w.line("float d[TN][TN], tmp[TN][TN];");
  w.open("for (int u = 0; u < TN; ++u) {");
  w.open("for (int v = 0; v < TN; ++v) {");
  w.line("const int rr = blk * TM + u;");
  w.line("const int cc = tj * TM + v;");
  if (nm.fixed) {
    w.line("d[u][v] = (rr < HP && cc < WP)");
    w.line("              ? (float)linebuf[c][rr % LINES][cc] * IN_SCALE");
    w.line("              : 0.0f;");
  } else {
    w.line("d[u][v] = (rr < HP && cc < WP) ? linebuf[c][rr % LINES][cc]"
           " : data_t(0);");
  }
  w.close();
  w.close();
  w.line("// V = B^T d B  (input transform, Eq. 3)");
  w.open("for (int i = 0; i < TN; ++i) {");
  w.open("for (int j = 0; j < TN; ++j) {");
  w.pragma("PIPELINE II=1");
  w.line("float a = 0;");
  w.line("for (int k = 0; k < TN; ++k) a += BT[i][k] * d[k][j];");
  w.line("tmp[i][j] = a;");
  w.close();
  w.close();
  w.open("for (int i = 0; i < TN; ++i) {");
  w.open("for (int j = 0; j < TN; ++j) {");
  w.pragma("PIPELINE II=1");
  w.line("float a = 0;");
  w.line("for (int k = 0; k < TN; ++k) a += tmp[i][k] * BT[j][k];");
  if (nm.fixed) {
    w.line("// multiplier operand quantized to 16 bits (Q V_FRAC)");
    w.line("V[c][i][j] = hetacc_quant_float(a * V_SCALE);");
  } else {
    w.line("V[c][i][j] = a;");
  }
  w.close();
  w.close();
  w.close();
  w.open("for (int oc = 0; oc < N; ++oc) {");
  const std::string macc_type = nm.fixed ? "acc_t" : "float";
  w.line(macc_type + " Macc[TN][TN] = {};");
  w.line("// element-wise multiply-accumulate across channels");
  w.open("for (int c = 0; c < M; ++c) {");
  w.pragma("UNROLL factor=" + std::to_string(cfg.tn));
  w.open("for (int i = 0; i < TN; ++i) {");
  w.open("for (int j = 0; j < TN; ++j) {");
  w.line("Macc[i][j] += (" + macc_type + ")U[oc][c][i][j] * V[c][i][j];");
  w.close();
  w.close();
  w.close();
  w.line("// Y = A^T M A  (output transform)");
  w.line("float t2[TM][TN];");
  w.open("for (int i = 0; i < TM; ++i) {");
  w.open("for (int j = 0; j < TN; ++j) {");
  w.line("float a = 0;");
  if (nm.fixed) {
    w.line("for (int k = 0; k < TN; ++k) a += AT[i][k] * ((float)Macc[k][j] "
           "* PROD_SCALE);");
  } else {
    w.line("for (int k = 0; k < TN; ++k) a += AT[i][k] * Macc[k][j];");
  }
  w.line("t2[i][j] = a;");
  w.close();
  w.close();
  w.open("for (int i = 0; i < TM; ++i) {");
  w.open("for (int j = 0; j < TM; ++j) {");
  w.line("float y = 0;");
  w.line("for (int k = 0; k < TN; ++k) y += t2[i][k] * AT[j][k];");
  w.line("const int orow = blk * TM + i;");
  w.line("const int ocol = tj * TM + j;");
  w.open("if (orow < HO && ocol < WO) {");
  w.line("float val = y + bias[oc];");
  if (p.fused_relu) w.line("if (val < 0) val = 0;");
  if (nm.fixed) {
    w.line("rowbuf[i][oc][ocol] = hetacc_quant_float(val * OUT_SCALE);");
  } else {
    w.line("rowbuf[i][oc][ocol] = (data_t)val;");
  }
  w.close();
  w.close();
  w.close();
  w.close();
  w.close();
  w.open("for (int i = 0; i < TM && emitted < HO; ++i, ++emitted) {");
  w.open("for (int oc = 0; oc < N; ++oc) {");
  w.open("for (int ow = 0; ow < WO; ++ow) {");
  w.pragma("PIPELINE II=1");
  w.line("out_s.write(rowbuf[i][oc][ow]);");
  w.close();
  w.close();
  w.close();
  w.close();
  w.close();
  w.close();
  w.line();
}

void emit_pool(CodeWriter& w, const nn::Layer& l, const std::string& fname,
               const LayerNumeric& nm) {
  const auto& p = l.pool();
  w.line("// pooling '" + l.name + "' (template: Pooling)");
  w.open("static void " + fname +
         "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
  w.pragma("INLINE off");
  w.line("constexpr int M = " + std::to_string(l.in.c) + ", K = " +
         std::to_string(p.kernel) + ", S = " + std::to_string(p.stride) +
         ", P = " + std::to_string(p.pad) + ";");
  w.line("constexpr int H = " + std::to_string(l.in.h) + ", W = " +
         std::to_string(l.in.w) + ", HO = " + std::to_string(l.out.h) +
         ", WO = " + std::to_string(l.out.w) + ";");
  w.line("constexpr int WP = W + 2 * P, HP = H + 2 * P, LINES = K + S;");
  w.line("data_t linebuf[M][LINES][WP];");
  w.pragma("ARRAY_PARTITION variable=linebuf dim=2 complete");
  w.line("int emitted = 0;");
  w.open("for (int row = 0; row < HP; ++row) {");
  emit_row_ingest(w);
  w.open("while (emitted < HO) {");
  w.line("int need = emitted * S + K - 1;");
  w.line("if (need > HP - 1) need = HP - 1;");
  w.line("if (row < need) break;");
  w.open("for (int c = 0; c < M; ++c) {");
  w.open("for (int ow = 0; ow < WO; ++ow) {");
  w.pragma("PIPELINE II=1");
  if (nm.fixed) {
    w.line("data_t best = -32768;");
  } else {
    w.line("data_t best = -3.3e38f;");
  }
  w.line("acc_t sum = 0;");
  w.line("int cnt = 0;");
  w.open("for (int u = 0; u < K; ++u) {");
  w.line("const int hp = emitted * S + u;");
  w.line("if (hp - P < 0 || hp - P >= H) continue;");
  w.open("for (int v = 0; v < K; ++v) {");
  w.line("const int wp = ow * S + v;");
  w.line("if (wp - P < 0 || wp - P >= W) continue;");
  w.line("const data_t x = linebuf[c][hp % LINES][wp];");
  w.line("if (x > best) best = x;");
  w.line("sum += x;");
  w.line("++cnt;");
  w.close();
  w.close();
  const int shift = nm.in_frac - nm.out_frac;  // pooling preserves scale
  if (p.method == nn::PoolMethod::kMax) {
    if (nm.fixed && shift != 0) {
      w.line("out_s.write(hetacc_saturate(hetacc_requant_shift((acc_t)best, "
             + std::to_string(shift) + ")));");
    } else {
      w.line("out_s.write(best);");
    }
  } else {
    if (nm.fixed) {
      w.line("acc_t avg = cnt ? (sum + (sum >= 0 ? cnt / 2 : -(cnt / 2))) / "
             "cnt : 0;");
      w.line("out_s.write(hetacc_saturate(hetacc_requant_shift(avg, " +
             std::to_string(shift) + ")));");
    } else {
      w.line("out_s.write(cnt ? (data_t)(sum / cnt) : data_t(0));");
    }
  }
  w.close();
  w.close();
  w.line("++emitted;");
  w.close();
  w.close();
  w.close();
  w.line();
}

void emit_lrn(CodeWriter& w, const nn::Layer& l, const std::string& fname,
              const LayerNumeric& nm) {
  const auto& p = l.lrn();
  w.line("// local response normalization '" + l.name +
         "' (template: LRN; fixed mode converts through float, modeling the "
         "LUT-backed hardware unit)");
  w.open("static void " + fname +
         "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
  w.pragma("INLINE off");
  w.line("constexpr int M = " + std::to_string(l.in.c) + ", W = " +
         std::to_string(l.in.w) + ", H = " + std::to_string(l.in.h) +
         ", LS = " + std::to_string(p.local_size) + ";");
  w.line("const float ALPHA = " + fnum(p.alpha) + ", BETA = " + fnum(p.beta) +
         ", KK = " + fnum(p.k) + ";");
  if (nm.fixed) {
    w.line("constexpr float IN_SCALE = " +
           fnum(std::ldexp(1.0, -nm.in_frac)) + ";");
    w.line("constexpr float OUT_SCALE = " +
           fnum(std::ldexp(1.0, nm.out_frac)) + ";");
  }
  w.line("float rowbuf[M][W];");
  w.open("for (int row = 0; row < H; ++row) {");
  w.open("for (int c = 0; c < M; ++c) {");
  w.open("for (int w = 0; w < W; ++w) {");
  w.pragma("PIPELINE II=1");
  if (nm.fixed) {
    w.line("rowbuf[c][w] = (float)in_s.read() * IN_SCALE;");
  } else {
    w.line("rowbuf[c][w] = in_s.read();");
  }
  w.close();
  w.close();
  w.open("for (int c = 0; c < M; ++c) {");
  w.open("for (int w = 0; w < W; ++w) {");
  w.pragma("PIPELINE II=1");
  w.line("float ss = 0;");
  w.line("const int lo = c - LS / 2 < 0 ? 0 : c - LS / 2;");
  w.line("const int hi = c + LS / 2 >= M ? M - 1 : c + LS / 2;");
  w.line("for (int cc = lo; cc <= hi; ++cc) ss += rowbuf[cc][w] * rowbuf[cc][w];");
  w.line("const float denom = std::pow(KK + ALPHA / (float)LS * ss, BETA);");
  if (nm.fixed) {
    w.line("out_s.write(hetacc_quant_float(rowbuf[c][w] / denom * "
           "OUT_SCALE));");
  } else {
    w.line("out_s.write((data_t)(rowbuf[c][w] / denom));");
  }
  w.close();
  w.close();
  w.close();
  w.close();
  w.line();
}

void emit_relu(CodeWriter& w, const nn::Layer& l, const std::string& fname,
               const LayerNumeric& nm) {
  w.line("// ReLU '" + l.name + "'");
  w.open("static void " + fname +
         "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
  w.pragma("INLINE off");
  w.line("constexpr long long TOTAL = " + std::to_string(l.out.elems()) + ";");
  w.open("for (long long i = 0; i < TOTAL; ++i) {");
  w.pragma("PIPELINE II=1");
  w.line("const data_t x = in_s.read();");
  const int shift = nm.in_frac - nm.out_frac;
  if (nm.fixed && shift != 0) {
    w.line("const acc_t y = x < 0 ? 0 : (acc_t)x;");
    w.line("out_s.write(hetacc_saturate(hetacc_requant_shift(y, " +
           std::to_string(shift) + ")));");
  } else {
    w.line("out_s.write(x < 0 ? data_t(0) : x);");
  }
  w.close();
  w.close();
  w.line();
}

}  // namespace

core::Strategy trivial_strategy(const nn::Network& net,
                                const fpga::EngineModel& model) {
  if (net.empty() || net[0].kind != nn::LayerKind::kInput) {
    throw std::invalid_argument("trivial_strategy: net must start with input");
  }
  core::FusionGroup g;
  g.first = 1;
  g.last = net.size() - 1;
  for (std::size_t i = 1; i < net.size(); ++i) {
    fpga::EngineConfig cfg;
    cfg.algo = (net[i].kind == nn::LayerKind::kConv)
                   ? fpga::ConvAlgo::kConventional
                   : fpga::ConvAlgo::kNone;
    g.impls.push_back(model.implement(net[i], cfg));
  }
  g.timing = core::evaluate_group_timing(net, g.first, g.last, g.impls,
                                         model.device());
  core::Strategy s;
  s.groups.push_back(std::move(g));
  return s;
}

GeneratedDesign generate_design(const nn::Network& net,
                                const core::Strategy& strategy,
                                const nn::WeightStore& ws,
                                const CodegenOptions& opt) {
  if (!opt.embed_weights) {
    throw std::invalid_argument(
        "generate_design: only embedded weights are supported");
  }
  if (!net.is_chain()) {
    throw std::invalid_argument(
        "generate_design: the HLS template emits chained DATAFLOW stages "
        "only; branchy (SP-DAG) nets are not supported yet");
  }
  const bool fixed = opt.fixed_point;
  if (fixed && opt.layer_fracs.size() != net.size() - 1) {
    throw std::invalid_argument(
        "generate_design: fixed mode needs layer_fracs for every layer");
  }
  // Fused (and chained) layers share streams: Q formats must line up.
  if (fixed) {
    for (std::size_t i = 1; i < opt.layer_fracs.size(); ++i) {
      if (opt.layer_fracs[i].first != opt.layer_fracs[i - 1].second) {
        throw std::invalid_argument(
            "generate_design: layer " + std::to_string(i + 1) +
            " in_frac must equal previous layer's out_frac");
      }
    }
  }
  auto numeric_of = [&](std::size_t layer_index) {
    LayerNumeric nm;
    nm.fixed = fixed;
    if (fixed) {
      nm.in_frac = opt.layer_fracs[layer_index - 1].first;
      nm.out_frac = opt.layer_fracs[layer_index - 1].second;
    }
    return nm;
  };

  GeneratedDesign d;

  CodeWriter hdr;
  hdr.line("// Generated by hetacc codegen (paper Fig. 3/4). Do not edit.");
  hdr.line("#pragma once");
  hdr.line("#include \"hls_compat.h\"");
  hdr.line("#include <cstdint>");
  hdr.line();
  if (fixed) {
    hdr.line("typedef std::int16_t data_t;  // 16-bit fixed (paper §7.1)");
    hdr.line("typedef long long acc_t;");
    hdr.line("constexpr int kInputFrac = " +
             std::to_string(opt.layer_fracs.front().first) + ";");
    hdr.line("constexpr int kOutputFrac = " +
             std::to_string(opt.layer_fracs.back().second) + ";");
    hdr.line();
    hdr.open("static inline acc_t hetacc_requant_shift(acc_t v, int shift) {");
    hdr.line("if (shift <= 0) return v << -shift;");
    hdr.line("const acc_t half = acc_t(1) << (shift - 1);");
    hdr.line("return (v + (v >= 0 ? half : half - 1)) >> shift;");
    hdr.close();
    hdr.open("static inline data_t hetacc_saturate(acc_t v) {");
    hdr.line("if (v > 32767) return 32767;");
    hdr.line("if (v < -32768) return -32768;");
    hdr.line("return (data_t)v;");
    hdr.close();
    hdr.open("static inline data_t hetacc_quant_float(float v) {");
    hdr.line("const float r = v >= 0 ? v + 0.5f : v - 0.5f;");
    hdr.line("if (r > 32767.0f) return 32767;");
    hdr.line("if (r < -32768.0f) return -32768;");
    hdr.line("return (data_t)r;");
    hdr.close();
  } else {
    hdr.line("typedef " + opt.data_type + " data_t;");
    hdr.line("typedef float acc_t;");
  }
  hdr.line();

  CodeWriter src;
  src.line("// Generated by hetacc codegen. Network: " + net.name());
  src.line("#include \"design.h\"");
  src.line("#include <cmath>");
  src.line();

  for (std::size_t gi = 0; gi < strategy.groups.size(); ++gi) {
    const core::FusionGroup& g = strategy.groups[gi];
    std::vector<std::string> fnames;
    for (std::size_t k = 0; k < g.impls.size(); ++k) {
      const nn::Layer& l = net[g.first + k];
      const fpga::EngineConfig& cfg = g.impls[k].cfg;
      const std::string fname = "layer_" + sanitize(l.name);
      const LayerNumeric nm = numeric_of(g.first + k);
      fnames.push_back(fname);
      switch (l.kind) {
        case nn::LayerKind::kConv:
          if (cfg.algo == fpga::ConvAlgo::kWinograd) {
            emit_conv_winograd(src, l, ws.conv(g.first + k), cfg, fname, nm);
          } else {
            emit_conv_conventional(src, l, ws.conv(g.first + k), cfg, fname,
                                   nm);
          }
          break;
        case nn::LayerKind::kPool:
          emit_pool(src, l, fname, nm);
          break;
        case nn::LayerKind::kLrn:
          emit_lrn(src, l, fname, nm);
          break;
        case nn::LayerKind::kRelu:
          emit_relu(src, l, fname, nm);
          break;
        default:
          throw std::invalid_argument(
              "generate_design: unsupported layer kind in group (layer '" +
              l.name + "')");
      }
    }

    const std::string top = "group" + std::to_string(gi) + "_top";
    d.group_tops.push_back(top);
    hdr.line("void " + top +
             "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s);");

    src.line("// fusion group " + std::to_string(gi) + ": layers [" +
             std::to_string(g.first) + ", " + std::to_string(g.last) + "]");
    src.open("void " + top +
             "(hls::stream<data_t>& in_s, hls::stream<data_t>& out_s) {");
    src.pragma("DATAFLOW");
    for (std::size_t k = 0; k + 1 < fnames.size(); ++k) {
      const std::string ch = "ch" + std::to_string(gi) + "_" +
                             std::to_string(k);
      src.line("hls::stream<data_t> " + ch + "(\"" + ch + "\");");
      src.pragma("STREAM variable=" + ch + " depth=" +
                 std::to_string(opt.fifo_depth));
    }
    for (std::size_t k = 0; k < fnames.size(); ++k) {
      const std::string in =
          (k == 0) ? "in_s"
                   : "ch" + std::to_string(gi) + "_" + std::to_string(k - 1);
      const std::string out =
          (k + 1 == fnames.size())
              ? "out_s"
              : "ch" + std::to_string(gi) + "_" + std::to_string(k);
      src.line(fnames[k] + "(" + in + ", " + out + ");");
    }
    src.close();
    src.line();
  }

  // Testbench: file in -> groups chained (DDR round trip between groups) ->
  // file out. Text values are floats in both modes; the fixed testbench
  // quantizes on ingest and rescales on egress.
  CodeWriter tb;
  tb.line("// C-simulation testbench (generated).");
  tb.line("#include \"design.h\"");
  tb.line("#include <fstream>");
  tb.line("#include <iomanip>");
  tb.line("#include <iostream>");
  tb.line("#include <vector>");
  tb.line();
  tb.open("int main(int argc, char** argv) {");
  tb.line("const char* in_path = argc > 1 ? argv[1] : \"input.txt\";");
  tb.line("const char* out_path = argc > 2 ? argv[2] : \"output.txt\";");
  tb.line("std::ifstream fin(in_path);");
  tb.open("if (!fin) {");
  tb.line("std::cerr << \"cannot open \" << in_path << \"\\n\";");
  tb.line("return 1;");
  tb.close();
  tb.line("std::vector<double> data;");
  tb.line("double v;");
  tb.line("while (fin >> v) data.push_back(v);");
  tb.line("hls::stream<data_t> s0;");
  if (fixed) {
    tb.open("for (std::size_t i = 0; i < data.size(); ++i) {");
    tb.line("s0.write(hetacc_quant_float((float)(data[i] * (1 << "
            "kInputFrac))));");
    tb.close();
  } else {
    tb.line("for (std::size_t i = 0; i < data.size(); ++i) "
            "s0.write((data_t)data[i]);");
  }
  std::string cur = "s0";
  for (std::size_t gi = 0; gi < d.group_tops.size(); ++gi) {
    const std::string next = "s" + std::to_string(gi + 1);
    tb.line("hls::stream<data_t> " + next + ";");
    tb.line(d.group_tops[gi] + "(" + cur + ", " + next + ");");
    cur = next;
  }
  tb.line("std::ofstream fout(out_path);");
  tb.line("fout << std::setprecision(9);");
  if (fixed) {
    tb.open("while (!" + cur + ".empty()) {");
    tb.line("fout << ((double)" + cur +
            ".read() / (double)(1 << kOutputFrac)) << \"\\n\";");
    tb.close();
  } else {
    tb.line("while (!" + cur + ".empty()) fout << " + cur +
            ".read() << \"\\n\";");
  }
  tb.line("return 0;");
  tb.close();

  d.header = hdr.str();
  d.source = src.str();
  d.testbench = tb.str();
  return d;
}

namespace {
// The compat header is shipped inside the binary so write_design() can drop
// a self-contained project into any directory.
constexpr const char* kCompatHeader =
#include "codegen/hls_compat_string.inc"
    ;
}  // namespace

void write_design(const GeneratedDesign& d, const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto dump = [&](const std::string& name, const std::string& text) {
    std::ofstream f(dir + "/" + name);
    if (!f) throw std::runtime_error("cannot write " + dir + "/" + name);
    f << text;
  };
  dump("design.h", d.header);
  dump("design.cpp", d.source);
  dump("main.cpp", d.testbench);
  dump("hls_compat.h", kCompatHeader);
}

std::string tensor_to_stream_text(const nn::Tensor& t) {
  std::ostringstream os;
  os << std::setprecision(9);
  const nn::Shape s = t.shape();
  for (int h = 0; h < s.h; ++h) {
    for (int c = 0; c < s.c; ++c) {
      for (int w = 0; w < s.w; ++w) os << t.at(c, h, w) << "\n";
    }
  }
  return os.str();
}

nn::Tensor tensor_from_stream_text(const std::string& text,
                                   const nn::Shape& shape) {
  std::istringstream is(text);
  nn::Tensor t(shape);
  double v;
  for (int h = 0; h < shape.h; ++h) {
    for (int c = 0; c < shape.c; ++c) {
      for (int w = 0; w < shape.w; ++w) {
        if (!(is >> v)) {
          throw std::runtime_error("tensor_from_stream_text: short read");
        }
        t.at(c, h, w) = static_cast<float>(v);
      }
    }
  }
  if (is >> v) {
    throw std::runtime_error("tensor_from_stream_text: trailing data");
  }
  return t;
}

}  // namespace hetacc::codegen
