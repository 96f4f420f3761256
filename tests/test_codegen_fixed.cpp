// Fixed-point code generation: generated designs carry a true int16
// datapath (Q-format weights, 64-bit accumulators, round+saturate
// writebacks). Validated by compiling and running the C simulation against
// the float reference with calibrated formats.

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "codegen/generator.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "quant/calibration.h"

namespace hetacc::codegen {
namespace {

using nn::Network;
using nn::Tensor;
using nn::WeightStore;

CodegenOptions fixed_options(const Network& net, const WeightStore& ws,
                             std::uint32_t seed) {
  std::vector<Tensor> samples;
  Tensor s(net[0].out);
  nn::fill_deterministic(s, seed);
  samples.push_back(std::move(s));
  const quant::Calibration cal = quant::calibrate(net, ws, samples, 1);
  CodegenOptions opt;
  opt.fixed_point = true;
  for (std::size_t i = 0; i + 1 < net.size(); ++i) {
    // Chain the formats so consecutive layers agree on the stream Q.
    const int in = i == 0 ? cal.layers[0].in_frac
                          : opt.layer_fracs.back().second;
    opt.layer_fracs.emplace_back(in, cal.layers[i].out_frac);
  }
  return opt;
}

TEST(CodegenFixed, HeaderDeclaresInt16AndHelpers) {
  Network net("fx");
  net.input({2, 8, 8});
  net.conv(3, 3, 1, 1, "c");
  const WeightStore ws = WeightStore::deterministic(net, 3);
  const fpga::EngineModel model(fpga::zc706());
  const auto d = generate_design(net, trivial_strategy(net, model), ws,
                                 fixed_options(net, ws, 4));
  EXPECT_NE(d.header.find("typedef std::int16_t data_t"), std::string::npos);
  EXPECT_NE(d.header.find("hetacc_requant_shift"), std::string::npos);
  EXPECT_NE(d.header.find("hetacc_saturate"), std::string::npos);
  EXPECT_NE(d.header.find("kInputFrac"), std::string::npos);
  // No float weights in the conventional template.
  EXPECT_EQ(d.source.find("weights[N][M][K][K] = {\n  {{{0."),
            std::string::npos);
}

TEST(CodegenFixed, MismatchedFracChainThrows) {
  Network net("fx2");
  net.input({2, 8, 8});
  net.conv(3, 3, 1, 1, "a");
  net.conv(3, 3, 1, 1, "b");
  const WeightStore ws = WeightStore::deterministic(net, 3);
  const fpga::EngineModel model(fpga::zc706());
  CodegenOptions opt;
  opt.fixed_point = true;
  opt.layer_fracs = {{12, 11}, {10, 10}};  // 11 != 10: broken chain
  EXPECT_THROW((void)generate_design(net, trivial_strategy(net, model), ws,
                                     opt),
               std::invalid_argument);
}

TEST(CodegenFixed, MissingFracsThrows) {
  Network net("fx3");
  net.input({2, 8, 8});
  net.conv(3, 3, 1, 1, "a");
  const WeightStore ws = WeightStore::deterministic(net, 3);
  const fpga::EngineModel model(fpga::zc706());
  CodegenOptions opt;
  opt.fixed_point = true;
  EXPECT_THROW((void)generate_design(net, trivial_strategy(net, model), ws,
                                     opt),
               std::invalid_argument);
}

class FixedCsim : public ::testing::Test {
 protected:
  static bool compiler_available() {
    return std::system("c++ --version > /dev/null 2>&1") == 0;
  }

  void run_fixed_csim(const Network& net, core::Strategy strategy,
                      float tol, std::uint32_t seed = 7) {
    if (!compiler_available()) GTEST_SKIP() << "no host compiler";
    const WeightStore ws = WeightStore::deterministic(net, seed);
    const CodegenOptions opt = fixed_options(net, ws, seed + 1);
    const GeneratedDesign d = generate_design(net, strategy, ws, opt);
    const std::string dir =
        ::testing::TempDir() + "/fxsim_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    write_design(d, dir);
    const std::string build = "c++ -std=c++17 -O1 -w -o " + dir + "/tb " +
                              dir + "/design.cpp " + dir + "/main.cpp -I " +
                              dir + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(build.c_str()), 0)
        << "generated fixed-point code failed to compile";

    Tensor in(net[0].out);
    nn::fill_deterministic(in, seed + 2);
    {
      std::ofstream f(dir + "/input.txt");
      f << tensor_to_stream_text(in);
    }
    ASSERT_EQ(std::system(("cd " + dir +
                           " && ./tb input.txt output.txt > /dev/null 2>&1")
                              .c_str()),
              0);
    std::ifstream f(dir + "/output.txt");
    std::stringstream ss;
    ss << f.rdbuf();
    const Tensor got =
        tensor_from_stream_text(ss.str(), net[net.size() - 1].out);
    const Tensor ref = nn::run_network(net, ws, in);
    EXPECT_LT(got.max_abs_diff(ref), tol);
  }
};

TEST_F(FixedCsim, ConventionalConvChain) {
  Network net("fxc");
  net.input({3, 12, 12});
  net.conv(4, 3, 1, 1, "c1");
  net.conv(4, 3, 1, 1, "c2");
  const fpga::EngineModel model(fpga::zc706());
  run_fixed_csim(net, trivial_strategy(net, model), 0.02f);
}

TEST_F(FixedCsim, ConvPoolMix) {
  Network net("fxp");
  net.input({3, 14, 14});
  net.conv(4, 3, 1, 1, "c1");
  net.max_pool(2, 2, "p1");
  net.conv(6, 3, 1, 1, "c2");
  const fpga::EngineModel model(fpga::zc706());
  run_fixed_csim(net, trivial_strategy(net, model), 0.02f);
}

TEST_F(FixedCsim, WinogradFixedDatapath) {
  Network net("fxw");
  net.input({2, 12, 12});
  net.conv(4, 3, 1, 1, "c1");
  const fpga::EngineModel model(fpga::zc706());
  core::Strategy s = trivial_strategy(net, model);
  s.groups[0].impls[0] =
      model.implement(net[1], {fpga::ConvAlgo::kWinograd, 1, 1, 1, 4});
  run_fixed_csim(net, s, 0.03f);
}

TEST_F(FixedCsim, LrnThroughFixedStreams) {
  Network net("fxl");
  net.input({6, 8, 8});
  net.conv(6, 3, 1, 1, "c1");
  net.lrn(5, 1e-4f, 0.75f, "n1");
  const fpga::EngineModel model(fpga::zc706());
  run_fixed_csim(net, trivial_strategy(net, model), 0.02f);
}

TEST_F(FixedCsim, AvgPoolRounding) {
  Network net("fxa");
  net.input({2, 8, 8});
  net.avg_pool(2, 2, "a1");
  const fpga::EngineModel model(fpga::zc706());
  run_fixed_csim(net, trivial_strategy(net, model), 0.01f);
}

/// FNV-1a over the bytes of a generated source file.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// The design.cpp bytes of a float and a 16-bit Winograd design, F(4x4, 3x3)
// and F(2x2, 5x5) with an out-channel count that leaves a partial GEMM
// panel: every baked U = G g G^T constant, its Q format and the BT/AT tables
// are pinned, whichever filter form the generator reads them from.
TEST(CodegenPins, WinogradDesignSourceIsPinned) {
  Network net("pin");
  net.input({3, 12, 12});
  net.conv(5, 3, 1, 1, "w3");
  net.conv(6, 5, 1, 2, "w5");
  const WeightStore ws = WeightStore::deterministic(net, 9);
  const fpga::EngineModel model(fpga::zc706());
  core::Strategy s = trivial_strategy(net, model);
  s.groups[0].impls[0] =
      model.implement(net[1], {fpga::ConvAlgo::kWinograd, 1, 1, 1, 4});
  s.groups[0].impls[1] =
      model.implement(net[2], {fpga::ConvAlgo::kWinograd, 1, 1, 1, 2});
  const GeneratedDesign fl = generate_design(net, s, ws, {});
  const GeneratedDesign fx =
      generate_design(net, s, ws, fixed_options(net, ws, 4));
  for (const GeneratedDesign* d : {&fl, &fx}) {
    ASSERT_NE(d->source.find("Winograd F(4x4, 3x3)"), std::string::npos);
    ASSERT_NE(d->source.find("Winograd F(2x2, 5x5)"), std::string::npos);
  }
  EXPECT_EQ(fnv1a(fl.source), 18231975878186589068ull) << "float design.cpp";
  EXPECT_EQ(fnv1a(fx.source), 3317951846078919619ull) << "16-bit design.cpp";
}

}  // namespace
}  // namespace hetacc::codegen
