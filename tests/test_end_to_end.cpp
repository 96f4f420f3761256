// The complete tool-flow on one miniature network: Caffe prototxt in,
// optimizer-chosen heterogeneous fusion strategy, streaming-simulator
// validation, HLS code generation, host compilation, C simulation, and a
// final bit-level comparison against the reference executor. This is the
// paper's Fig. 3 flow end to end (minus the vendor bitstream step).

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "caffe/importer.h"
#include "codegen/generator.h"
#include "codegen/hls_report.h"
#include "nn/model_zoo.h"
#include "toolflow/toolflow.h"

namespace hetacc {
namespace {

constexpr const char* kMiniNet = R"(
name: "mini"
input: "data"
input_dim: 1
input_dim: 3
input_dim: 32
input_dim: 32
layer {
  name: "conv1"
  type: "Convolution"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "relu1" type: "ReLU" }
layer {
  name: "conv2"
  type: "Convolution"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "relu2" type: "ReLU" }
layer {
  name: "pool1"
  type: "Pooling"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "conv3"
  type: "Convolution"
  convolution_param { num_output: 16 kernel_size: 3 stride: 1 pad: 1 }
}
layer {
  name: "fc"
  type: "InnerProduct"
  inner_product_param { num_output: 10 }
}
layer { name: "prob" type: "Softmax" }
)";

TEST(EndToEnd, PrototxtToValidatedCsim) {
  // 1. Front end + optimizer + code generation through the tool-flow.
  toolflow::ToolflowOptions opt;
  opt.optimizer.transfer_budget_bytes = 1 * 1024 * 1024;
  const auto result = toolflow::run_toolflow(kMiniNet, fpga::zc706(), opt);
  ASSERT_TRUE(result.optimization.feasible);
  ASSERT_EQ(result.accel_net.size(), 5u);  // input + 3 conv + pool (FC cut)
  ASSERT_FALSE(result.design.source.empty());

  // The optimizer should have gone heterogeneous or all-Winograd here:
  // every conv is 3x3 stride 1.
  bool any_wino = false;
  for (const auto& g : result.optimization.strategy.groups) {
    for (const auto& ipl : g.impls) {
      any_wino |= ipl.cfg.algo == fpga::ConvAlgo::kWinograd;
    }
  }
  EXPECT_TRUE(any_wino);

  // 2. Functional validation of the chosen architecture in the streaming
  //    simulator (same weights the generated code embeds).
  const auto ws =
      nn::WeightStore::deterministic(result.accel_net, opt.weight_seed);
  std::vector<arch::LayerChoice> choices;
  for (const auto& g : result.optimization.strategy.groups) {
    for (const auto& ipl : g.impls) {
      choices.push_back({ipl.cfg.algo, ipl.cfg.wino_m, {}});
    }
  }
  arch::FusionPipeline pipe(result.accel_net, ws, choices);
  nn::Tensor image(result.accel_net[0].out);
  nn::fill_deterministic(image, 123);
  const nn::Tensor golden = nn::run_network(result.accel_net, ws, image);
  EXPECT_LT(pipe.run(image).max_abs_diff(golden), 2e-3f);

  // 3. Compile and run the generated C simulation.
  if (std::system("c++ --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no host compiler";
  }
  const std::string dir = ::testing::TempDir() + "/e2e_flow";
  codegen::write_design(result.design, dir);
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -w -o " + dir + "/tb " + dir +
                         "/design.cpp " + dir + "/main.cpp -I " + dir +
                         " > /dev/null 2>&1")
                            .c_str()),
            0)
      << "generated design failed to compile";
  {
    std::ofstream f(dir + "/input.txt");
    f << codegen::tensor_to_stream_text(image);
  }
  ASSERT_EQ(std::system(("cd " + dir +
                         " && ./tb input.txt output.txt > /dev/null 2>&1")
                            .c_str()),
            0);
  std::ifstream f(dir + "/output.txt");
  std::stringstream ss;
  ss << f.rdbuf();
  const nn::Tensor got = codegen::tensor_from_stream_text(
      ss.str(), result.accel_net[result.accel_net.size() - 1].out);
  EXPECT_LT(got.max_abs_diff(golden), 2e-3f);
}

TEST(EndToEnd, ReportsAgreeAcrossArtifacts) {
  // The strategy report, the HLS report, and the DDR trace must tell one
  // consistent story for the same strategy.
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.optimizer.transfer_budget_bytes = 4 * 1024 * 1024;
  const auto result =
      toolflow::run_toolflow(nn::vgg_e_head(), fpga::zc706(), opt);
  ASSERT_TRUE(result.optimization.feasible);

  const auto hls = codegen::make_report(
      result.accel_net, result.optimization.strategy, fpga::zc706());
  fpga::ResourceVector strat_total;
  for (const auto& g : result.optimization.strategy.groups) {
    strat_total += g.resources();
  }
  EXPECT_EQ(hls.total_resources(), strat_total);

  const auto trace = arch::trace_strategy(result.optimization.strategy,
                                          result.accel_net, fpga::zc706());
  EXPECT_EQ(trace.feature_bytes(), result.report.feature_transfer_bytes);
  EXPECT_EQ(trace.weight_bytes(), result.report.weight_transfer_bytes);
}

}  // namespace
}  // namespace hetacc
