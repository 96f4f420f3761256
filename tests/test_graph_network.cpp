// Graph-shaped networks: SP-DAG construction, decomposition, the SESE
// fusion gate, chain-equivalence pins (linear nets must be byte-identical
// to the chain-era optimizer), DAG strategy CSV round-trips, and
// reference-vs-pipeline execution on branchy nets.

#include <gtest/gtest.h>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "caffe/importer.h"
#include "core/dp_optimizer.h"
#include "core/strategy_io.h"
#include "fpga/device.h"
#include "fpga/engine_model.h"
#include "nn/graph.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "support/error.h"
#include "toolflow/toolflow.h"

namespace hetacc {
namespace {

core::OptimizeResult optimize_default(const nn::Network& net,
                                      core::OptimizerOptions oo = {}) {
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  if (oo.transfer_budget_bytes <= 0) {
    oo.transfer_budget_bytes =
        toolflow::minimal_transfer_budget(net, dev, oo.transfer_unit_bytes);
  }
  return core::optimize(net, model, oo);
}

// ------------------------------------------------------------ construction --
TEST(GraphBuild, EdgesMustPointBackwards) {
  nn::Network net("g");
  net.input({4, 8, 8});
  net.conv(4, 3, 1, 1, "a");
  EXPECT_THROW(
      (void)net.conv_from(7, 4, 3, 1, 1, "bad"),  // producer out of range
      std::out_of_range);
  EXPECT_THROW((void)net.eltwise_add({1, 1}, "dup"),  // duplicate producers
               std::invalid_argument);
  EXPECT_THROW((void)net.eltwise_add({1}, "arity"),  // merge needs >= 2
               std::invalid_argument);
}

TEST(GraphBuild, MergeShapeRules) {
  nn::Network net("g");
  net.input({4, 8, 8});
  const std::size_t a = net.conv_from(0, 4, 3, 1, 1, "a");
  const std::size_t b = net.conv_from(0, 8, 3, 1, 1, "b");
  // Eltwise needs equal shapes; concat needs equal spatial dims only.
  EXPECT_THROW((void)net.eltwise_add({a, b}, "bad_add"),
               std::invalid_argument);
  const std::size_t cc = net.concat({a, b}, "cat");
  EXPECT_EQ(net[cc].out, (nn::Shape{12, 8, 8}));
  EXPECT_EQ(net[cc].in, net[cc].out);  // merges: in == out by convention
}

TEST(GraphBuild, ChainStaysChain) {
  EXPECT_TRUE(nn::vgg16().is_chain());
  EXPECT_TRUE(nn::alexnet().is_chain());
  EXPECT_FALSE(nn::inception_mini().is_chain());
  EXPECT_FALSE(nn::resnet_mini().is_chain());
  // Chain layers carry explicit {i-1} edges.
  const nn::Network v = nn::vgg16();
  for (std::size_t i = 1; i < v.size(); ++i) {
    ASSERT_EQ(v[i].inputs.size(), 1u) << i;
    EXPECT_EQ(v[i].inputs.front(), i - 1) << i;
  }
}

TEST(GraphBuild, ConsumersAndDeterministicSummary) {
  const nn::Network a = nn::inception_mini();
  const nn::Network b = nn::inception_mini();
  EXPECT_EQ(a.summary(), b.summary());
  // stem_pool (index 3) feeds all four arms.
  EXPECT_EQ(a.consumers(3).size(), 4u);
  // Chain summaries must not grow edge annotations (byte-compat).
  EXPECT_EQ(nn::vgg16().summary().find("<-"), std::string::npos);
  EXPECT_NE(a.summary().find("<- stem_pool"), std::string::npos);
}

// -------------------------------------------------------------- SP algebra --
TEST(SpDecompose, ChainIsDepthOne) {
  const nn::SpNode t = nn::sp_decompose(nn::conv_chain(6, 8, 16));
  EXPECT_EQ(nn::sp_depth(t), 1);
  EXPECT_EQ(nn::sp_parallel_count(t), 0u);
}

TEST(SpDecompose, ZooNets) {
  const nn::SpNode inc = nn::sp_decompose(nn::inception_mini());
  EXPECT_EQ(nn::sp_depth(inc), 2);
  EXPECT_EQ(nn::sp_parallel_count(inc), 1u);
  const nn::SpNode res = nn::sp_decompose(nn::resnet_mini());
  EXPECT_EQ(nn::sp_depth(res), 2);
  EXPECT_EQ(nn::sp_parallel_count(res), 2u);
}

TEST(SpDecompose, NonSpGraphRejected) {
  // The "N" graph: d consumes both an arm interior and the merge, so no
  // series cut or parallel split separates them.
  nn::Network net("n-graph");
  net.input({4, 8, 8});
  const std::size_t a = net.conv_from(0, 4, 3, 1, 1, "a");
  const std::size_t b = net.conv_from(0, 4, 3, 1, 1, "b");
  const std::size_t c = net.eltwise_add({a, b}, "c");
  (void)net.eltwise_add({a, c}, "d");
  EXPECT_THROW((void)nn::sp_decompose(net), ValidationError);
  // graph_shape stays usable: sp_depth reports 0 for non-SP.
  EXPECT_EQ(nn::graph_shape(net).sp_depth, 0);
}

TEST(GraphShape, SummaryLine) {
  EXPECT_EQ(nn::graph_shape_line(nn::inception_mini()),
            "graph: layers=16 edges=18 branches=1 merges=1 sp_depth=2 "
            "chain=no");
  EXPECT_EQ(nn::graph_shape_line(nn::resnet_mini()),
            "graph: layers=15 edges=16 branches=2 merges=2 sp_depth=2 "
            "chain=no");
  const nn::GraphShape v = nn::graph_shape(nn::vgg16());
  EXPECT_EQ(v.sp_depth, 1);
  EXPECT_EQ(v.edge_count, v.layer_count - 1);
  EXPECT_NE(nn::graph_shape_line(nn::vgg16()).find("chain=yes"),
            std::string::npos);
}

TEST(Sese, GateOnInceptionModule) {
  const nn::Network net = nn::inception_mini();
  // The whole module (arms 4..10 + concat 11) reads only stem_pool: SESE.
  EXPECT_TRUE(nn::is_sese_range(net, 4, 11));
  // Without the concat, the arm outputs leak beyond the range.
  EXPECT_FALSE(nn::is_sese_range(net, 4, 10));
  // A single interior arm is SESE (reduce -> conv reads one producer).
  EXPECT_TRUE(nn::is_sese_range(net, 5, 6));
  // Two sibling arm heads read the same producer but b1's output is
  // consumed past the range end.
  EXPECT_FALSE(nn::is_sese_range(net, 4, 5));
  // A merge alone has four external producers: never a group of its own.
  EXPECT_FALSE(nn::is_sese_range(net, 11, 11));
  // Chains: every range passes.
  const nn::Network v = nn::vgg16();
  for (std::size_t i = 1; i + 2 < v.size(); ++i) {
    EXPECT_TRUE(nn::is_sese_range(v, i, i + 2)) << i;
  }
}

TEST(Slice, MultiEntryRangeRejected) {
  const nn::Network net = nn::inception_mini();
  EXPECT_THROW((void)net.slice(5, 11, "bad"), std::invalid_argument);
  const nn::Network arm = net.slice(5, 6, "arm");
  EXPECT_EQ(arm.size(), 3u);  // synthetic input + reduce + conv
  EXPECT_TRUE(arm.is_chain());
}

// --------------------------------------------------- chain equivalence pins --
// Strategy CSVs captured from the chain-era optimizer (pre-DAG seed) on
// zc706 with the toolflow's default budget. The SP-DAG refactor must
// reproduce them byte for byte.
constexpr const char* kVgg16GoldenCsv =
    R"(group,layer,name,kind,algorithm,wino_m,tn,tm,tk,parallelism,dsp,bram18k,ff,lut,compute_cycles,fill_cycles
0,1,conv1_1,conv,winograd,4,1,1,1,36,36,12,11480,9160,669014,1344
0,2,conv1_2,conv,winograd,4,1,22,1,792,792,184,109760,92320,669014,5376
0,3,pool1,pool,-,0,7,1,1,7,0,56,2185,1680,509725,1792
1,4,conv2_1,conv,winograd,4,5,5,1,900,900,175,123800,104200,294436,2688
2,5,conv2_2,conv,winograd,4,5,5,1,900,900,300,123800,104200,588872,5376
2,6,pool2,pool,-,0,7,1,1,7,0,56,2185,1680,254863,1792
3,7,conv3_1,conv,winograd,4,5,5,1,900,900,400,123800,104200,294436,2688
4,8,conv3_2,conv,winograd,4,5,5,1,900,900,750,123800,104200,588872,5376
5,9,conv3_3,conv,winograd,4,5,5,1,900,900,750,123800,104200,588872,5376
6,10,pool3,pool,-,0,7,1,1,7,0,56,2185,1680,127432,1792
6,11,conv4_1,conv,winograd,4,5,5,1,900,900,225,123800,104200,291605,2688
7,12,conv4_2,conv,winograd,4,5,5,1,900,900,450,123800,104200,577602,5376
8,13,conv4_3,conv,winograd,4,5,5,1,900,900,450,123800,104200,577602,5376
9,14,pool4,pool,-,0,7,1,1,7,0,56,2185,1680,63716,1792
9,15,conv5_1,conv,winograd,4,5,5,1,900,900,150,123800,104200,188605,2688
10,16,conv5_2,conv,winograd,4,5,5,1,900,900,150,123800,104200,188605,2688
11,17,conv5_3,conv,winograd,4,5,5,1,900,900,150,123800,104200,188605,2688
11,18,pool5,pool,-,0,1,1,1,1,0,28,1855,1440,111503,896
)";

TEST(ChainEquivalence, Vgg16StrategyByteIdenticalToSeed) {
  const nn::Network net = nn::vgg16().accelerated_portion();
  const auto res = optimize_default(net);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(core::strategy_to_csv(res.strategy, net), kVgg16GoldenCsv);
  EXPECT_EQ(res.strategy.latency_cycles(), 5094918);
  EXPECT_EQ(res.strategy.groups.size(), 12u);
  const auto trace =
      arch::trace_strategy(res.strategy, net, fpga::zc706());
  EXPECT_EQ(trace.total_cycles, 5094918);
}

TEST(ChainEquivalence, AlexnetCyclesAndGroupsPinned) {
  const nn::Network net = nn::alexnet().accelerated_portion();
  const auto res = optimize_default(net);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.strategy.groups.size(), 4u);
  EXPECT_EQ(res.strategy.latency_cycles(), 509235);
  const auto trace =
      arch::trace_strategy(res.strategy, net, fpga::zc706());
  EXPECT_EQ(trace.total_cycles, 509235);
}

TEST(ChainEquivalence, UnfusedTransferBytesMatchesChainFormula) {
  const nn::Network net = nn::vgg16().accelerated_portion();
  std::int64_t expect = 0;  // chain formula: every layer's input + last out
  for (std::size_t i = 1; i < net.size(); ++i) {
    expect += net[i].in.bytes(2);
  }
  expect += net[net.size() - 1].out.bytes(2);
  EXPECT_EQ(net.unfused_feature_transfer_bytes(2), expect);
}

// -------------------------------------------------------------- DAG costs --
TEST(DagTransfer, CountsEveryEdgeAndSinks) {
  nn::Network net("y");
  net.input({4, 8, 8});
  const std::size_t a = net.conv_from(0, 4, 3, 1, 1, "a");
  const std::size_t b = net.conv_from(a, 4, 3, 1, 1, "b");
  const std::size_t c = net.conv_from(a, 4, 3, 1, 1, "c");
  const std::size_t d = net.eltwise_add({b, c}, "d");
  const std::int64_t t = net[0].out.bytes(2);  // edge 0 -> a
  const std::int64_t e = net[a].out.bytes(2);
  // a is read twice (b and c), b and c once each (d), d is the sink.
  EXPECT_EQ(net.unfused_feature_transfer_bytes(2),
            t + 2 * e + net[b].out.bytes(2) + net[c].out.bytes(2) +
                net[d].out.bytes(2));
}

TEST(Coarsen, CollapsesParallelComposition) {
  const nn::Network full = nn::inception_mini().accelerated_portion();
  ASSERT_EQ(full.size(), 14u);
  const nn::Network coarse = full.coarsen(4, 11, "inc1_module");
  EXPECT_EQ(coarse.size(), 7u);
  EXPECT_TRUE(coarse.is_chain());
  const nn::Layer& pseudo = coarse[4];
  EXPECT_EQ(pseudo.kind, nn::LayerKind::kConv);
  EXPECT_EQ(pseudo.out, full[11].out);
  // fan_in annotation carries the module's op count (far beyond the
  // physical 32 input channels).
  EXPECT_GT(pseudo.conv().fan_in, pseudo.in.c);
  const std::int64_t module_mults = [&] {
    std::int64_t m = 0;
    for (std::size_t i = 4; i <= 11; ++i) m += full[i].mults();
    return m;
  }();
  EXPECT_GE(pseudo.mults(), module_mults);  // >= up to the ceil slack
  EXPECT_LT(pseudo.mults() - module_mults,
            static_cast<std::int64_t>(pseudo.out.elems()));
}

TEST(Coarsen, SpDpStrictlyCheaperThanModuleCoarsening) {
  // The DYNAMAP-style acceptance: co-scheduling the module's arms inside
  // one fusion group (per-arm algorithm choice, Winograd where it wins)
  // strictly beats treating the module as one conventional pseudo-layer.
  const nn::Network full = nn::inception_mini().accelerated_portion();
  const nn::Network coarse = full.coarsen(4, 11, "inc1_module");
  const auto sp = optimize_default(full);
  const auto co = optimize_default(coarse);
  ASSERT_TRUE(sp.feasible);
  ASSERT_TRUE(co.feasible);
  EXPECT_LT(sp.strategy.latency_cycles(), co.strategy.latency_cycles());
}

// ------------------------------------------------------------ fusion gating --
TEST(DpGating, ModuleBiggerThanGroupCapIsDiagnosed) {
  const nn::Network net = nn::inception_mini().accelerated_portion();
  core::OptimizerOptions oo;
  oo.bnb.max_group_layers = 4;  // module needs 8
  const auto res = optimize_default(net, oo);
  EXPECT_FALSE(res.feasible);
  EXPECT_NE(res.infeasible_reason.find("merge layer"), std::string::npos)
      << res.infeasible_reason;
}

TEST(DpGating, BranchyNetsOptimizeEndToEnd) {
  const auto inc = optimize_default(nn::inception_mini().accelerated_portion());
  ASSERT_TRUE(inc.feasible);
  const auto res = optimize_default(nn::resnet_mini().accelerated_portion());
  ASSERT_TRUE(res.feasible);
  // Each strategy covers every non-input layer exactly once, in order.
  for (const auto* r : {&inc, &res}) {
    std::size_t next = 1;
    for (const auto& g : r->strategy.groups) {
      EXPECT_EQ(g.first, next);
      next = g.last + 1;
    }
  }
}

// --------------------------------------------------------- strategy CSV IO --
TEST(StrategyIo, ChainCsvKeepsLegacyHeader) {
  const nn::Network net = nn::alexnet().accelerated_portion();
  const auto res = optimize_default(net);
  ASSERT_TRUE(res.feasible);
  const std::string csv = core::strategy_to_csv(res.strategy, net);
  EXPECT_EQ(csv.find(",inputs"), std::string::npos);
}

TEST(StrategyIo, DagCsvRoundTrips) {
  const nn::Network net = nn::inception_mini().accelerated_portion();
  const auto res = optimize_default(net);
  ASSERT_TRUE(res.feasible);
  const std::string csv = core::strategy_to_csv(res.strategy, net);
  EXPECT_NE(csv.find(",inputs"), std::string::npos);
  EXPECT_NE(csv.find("|"), std::string::npos);  // concat row: multi-producer
  const core::Strategy back =
      core::strategy_from_csv(csv, net, fpga::zc706());
  EXPECT_EQ(back.latency_cycles(), res.strategy.latency_cycles());
  ASSERT_EQ(back.groups.size(), res.strategy.groups.size());
  for (std::size_t g = 0; g < back.groups.size(); ++g) {
    EXPECT_EQ(back.groups[g].first, res.strategy.groups[g].first);
    EXPECT_EQ(back.groups[g].last, res.strategy.groups[g].last);
  }
}

TEST(StrategyIo, DagCsvTopologyMismatchRejected) {
  const nn::Network net = nn::inception_mini().accelerated_portion();
  const auto res = optimize_default(net);
  ASSERT_TRUE(res.feasible);
  std::string csv = core::strategy_to_csv(res.strategy, net);
  // Tamper with the concat row's producer list.
  const std::size_t pos = csv.find("|");
  ASSERT_NE(pos, std::string::npos);
  csv[pos + 1] = csv[pos + 1] == '9' ? '8' : '9';
  EXPECT_THROW((void)core::strategy_from_csv(csv, net, fpga::zc706()),
               ParseError);
}

// ------------------------------------------------- reference vs pipeline --
void expect_pipeline_matches_reference(const nn::Network& accel,
                                       std::uint32_t seed) {
  const auto ws = nn::WeightStore::deterministic(accel, 7u);
  arch::FusionPipeline pipe(accel, ws);
  nn::Tensor in(accel[0].out);
  nn::fill_deterministic(in, seed);
  const nn::Tensor ref = nn::run_network(accel, ws, in);
  const nn::Tensor got = pipe.run(in);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_LT(got.max_abs_diff(ref), 1e-3f);
}

TEST(PipelineVsReference, SkipNet) {
  expect_pipeline_matches_reference(nn::resnet_mini().accelerated_portion(),
                                    11u);
}

TEST(PipelineVsReference, InceptionNet) {
  expect_pipeline_matches_reference(
      nn::inception_mini().accelerated_portion(), 13u);
}

TEST(PipelineVsReference, DagBatchMatchesSerialRuns) {
  const nn::Network accel = nn::resnet_mini().accelerated_portion();
  const auto ws = nn::WeightStore::deterministic(accel, 7u);
  arch::FusionPipeline pipe(accel, ws);
  std::vector<nn::Tensor> inputs;
  for (std::uint32_t s = 0; s < 4; ++s) {
    nn::Tensor t(accel[0].out);
    nn::fill_deterministic(t, 100u + s);
    inputs.push_back(std::move(t));
  }
  const auto batch = pipe.run_batch(inputs, /*threads=*/4);
  ASSERT_EQ(batch.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(batch[i].max_abs_diff(pipe.run(inputs[i])), 0.0f) << i;
  }
}

TEST(Pipeline, MergeLayersHaveNoEngine) {
  const nn::Network accel = nn::resnet_mini().accelerated_portion();
  const auto ws = nn::WeightStore::deterministic(accel, 7u);
  arch::FusionPipeline pipe(accel, ws);
  bool saw_merge = false;
  for (std::size_t i = 0; i + 1 < accel.size(); ++i) {
    if (accel[i + 1].is_merge()) {
      saw_merge = true;
      EXPECT_FALSE(pipe.has_engine(i));
      EXPECT_THROW((void)pipe.engine(i), std::logic_error);
    } else {
      EXPECT_TRUE(pipe.has_engine(i));
    }
  }
  EXPECT_TRUE(saw_merge);
}

// -------------------------------------------------------------- importer --
TEST(ImportGraph, InceptionRoundTripsThroughPrototxt) {
  const nn::Network built = nn::inception_mini();
  const nn::Network again =
      caffe::import_prototxt(caffe::export_prototxt(built));
  ASSERT_EQ(again.size(), built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(again[i].kind, built[i].kind) << i;
    EXPECT_EQ(again[i].name, built[i].name) << i;
    EXPECT_EQ(again[i].out, built[i].out) << i;
    EXPECT_EQ(again[i].inputs, built[i].inputs) << i;
    if (built[i].kind == nn::LayerKind::kConv) {
      EXPECT_EQ(again[i].conv().fused_relu, built[i].conv().fused_relu) << i;
    }
  }
}

TEST(ImportGraph, ResnetRoundTripsThroughPrototxt) {
  const nn::Network built = nn::resnet_mini();
  const nn::Network again =
      caffe::import_prototxt(caffe::export_prototxt(built));
  ASSERT_EQ(again.size(), built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(again[i].kind, built[i].kind) << i;
    EXPECT_EQ(again[i].inputs, built[i].inputs) << i;
  }
}

TEST(ImportGraph, DanglingBottomCarriesLine) {
  try {
    (void)caffe::import_prototxt(
        "input: \"data\"\ninput_dim: 1\ninput_dim: 3\n"
        "input_dim: 8\ninput_dim: 8\n"
        "layer { name: \"c\" type: \"Convolution\" bottom: \"nope\"\n"
        "        top: \"c\"\n"
        "        convolution_param { num_output: 2 kernel_size: 3 } }\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("dangling bottom"),
              std::string::npos);
    EXPECT_EQ(e.line(), 6);
  }
}

TEST(ImportGraph, DuplicateTopRejected) {
  try {
    (void)caffe::import_prototxt(
        "input: \"data\"\ninput_dim: 1\ninput_dim: 3\n"
        "input_dim: 8\ninput_dim: 8\n"
        "layer { name: \"a\" type: \"Convolution\" bottom: \"data\" "
        "top: \"x\"\n convolution_param { num_output: 2 kernel_size: 3 } }\n"
        "layer { name: \"b\" type: \"Convolution\" bottom: \"data\" "
        "top: \"x\"\n convolution_param { num_output: 2 kernel_size: 3 } }\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate top"), std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

TEST(ImportGraph, ForwardReferenceDiagnosedAsCycle) {
  try {
    (void)caffe::import_prototxt(
        "input: \"data\"\ninput_dim: 1\ninput_dim: 3\n"
        "input_dim: 8\ninput_dim: 8\n"
        "layer { name: \"a\" type: \"Convolution\" bottom: \"b_out\" "
        "top: \"a_out\"\n convolution_param { num_output: 2 kernel_size: 3 "
        "} }\n"
        "layer { name: \"b\" type: \"Convolution\" bottom: \"data\" "
        "top: \"b_out\"\n convolution_param { num_output: 2 kernel_size: 3 "
        "} }\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("produced later"),
              std::string::npos);
  }
}

TEST(ImportGraph, UnsupportedMergeVariantsRejected) {
  const std::string header =
      "input: \"data\"\ninput_dim: 1\ninput_dim: 3\n"
      "input_dim: 8\ninput_dim: 8\n"
      "layer { name: \"a\" type: \"Convolution\" bottom: \"data\" "
      "top: \"a\"\n convolution_param { num_output: 4 kernel_size: 3 pad: 1 "
      "} }\n"
      "layer { name: \"b\" type: \"Convolution\" bottom: \"data\" "
      "top: \"b\"\n convolution_param { num_output: 4 kernel_size: 3 pad: 1 "
      "} }\n";
  EXPECT_THROW((void)caffe::import_prototxt(
                   header +
                   "layer { name: \"m\" type: \"Eltwise\" bottom: \"a\" "
                   "bottom: \"b\" top: \"m\"\n eltwise_param { operation: "
                   "PROD } }\n"),
               ParseError);
  EXPECT_THROW((void)caffe::import_prototxt(
                   header +
                   "layer { name: \"m\" type: \"Concat\" bottom: \"a\" "
                   "bottom: \"b\" top: \"m\"\n concat_param { axis: 2 } }\n"),
               ParseError);
  // The supported forms import.
  const nn::Network ok = caffe::import_prototxt(
      header +
      "layer { name: \"m\" type: \"Eltwise\" bottom: \"a\" bottom: \"b\" "
      "top: \"m\"\n eltwise_param { operation: SUM } }\n");
  EXPECT_EQ(ok[ok.size() - 1].kind, nn::LayerKind::kEltwiseAdd);
}

}  // namespace
}  // namespace hetacc
