#include "core/strategy_io.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "arch/pipeline.h"
#include "core/dp_optimizer.h"
#include "cost/group_timing.h"
#include "fpga/engine_model.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "support/error.h"

namespace hetacc::core {
namespace {

class StrategyIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::vgg_e_head();
    const fpga::EngineModel model(dev_);
    OptimizerOptions oo;
    oo.transfer_budget_bytes = 4 * 1024 * 1024;
    result_ = optimize(net_, model, oo);
    ASSERT_TRUE(result_.feasible);
  }

  nn::Network net_;
  fpga::Device dev_ = fpga::zc706();
  OptimizeResult result_;
};

TEST_F(StrategyIoTest, CsvHasHeaderAndOneRowPerLayer) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line.rfind("group,layer,name,kind,algorithm", 0), 0u);
  int rows = 0;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 7);  // the 7 fused VGG head layers
}

TEST_F(StrategyIoTest, CsvFieldCountConsistent) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  const auto count_fields = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',') + 1;
  };
  const auto header_fields = count_fields(line);
  EXPECT_EQ(header_fields, 16);
  while (std::getline(is, line)) {
    if (!line.empty()) {
      EXPECT_EQ(count_fields(line), header_fields) << line;
    }
  }
}

TEST_F(StrategyIoTest, CsvNamesMatchNetwork) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  for (const char* name :
       {"conv1_1", "conv1_2", "pool1", "conv2_1", "conv2_2", "pool2",
        "conv3_1"}) {
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
}

TEST_F(StrategyIoTest, MarkdownHasTotalsRow) {
  const std::string md = strategy_to_markdown(result_.strategy, net_);
  EXPECT_NE(md.find("| Layer | Algorithm |"), std::string::npos);
  EXPECT_NE(md.find("**Total**"), std::string::npos);
}

TEST_F(StrategyIoTest, ReportRowRoundTrips) {
  const StrategyReport rep = make_report(result_.strategy, net_, dev_);
  const std::string row = report_to_csv_row(rep);
  std::istringstream is(row);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(is, field, ',')) fields.push_back(field);
  ASSERT_EQ(fields.size(), 11u);
  EXPECT_EQ(std::stoll(fields[0]), rep.latency_cycles);
  // Default ostream precision is 6 significant digits.
  EXPECT_NEAR(std::stod(fields[2]), rep.effective_gops,
              1e-3 * rep.effective_gops);
}

// ---------------------------------------------------- csv inverse parsing --
TEST_F(StrategyIoTest, CsvRoundTripsThroughTheInverseParser) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  const Strategy back = strategy_from_csv(csv, net_, dev_);
  ASSERT_EQ(back.groups.size(), result_.strategy.groups.size());
  for (std::size_t gi = 0; gi < back.groups.size(); ++gi) {
    const auto& a = result_.strategy.groups[gi];
    const auto& b = back.groups[gi];
    EXPECT_EQ(b.first, a.first);
    EXPECT_EQ(b.last, a.last);
    ASSERT_EQ(b.impls.size(), a.impls.size());
    for (std::size_t k = 0; k < b.impls.size(); ++k) {
      EXPECT_EQ(b.impls[k].cfg, a.impls[k].cfg);
      EXPECT_EQ(b.impls[k].res.dsp, a.impls[k].res.dsp);
      EXPECT_EQ(b.impls[k].compute_cycles, a.impls[k].compute_cycles);
      EXPECT_EQ(b.impls[k].weight_words, a.impls[k].weight_words);
      EXPECT_EQ(b.impls[k].mults_performed, a.impls[k].mults_performed);
    }
    // Timing is re-derived through the one cost layer; it must agree with
    // what the optimizer priced.
    EXPECT_EQ(b.timing.latency_cycles, a.timing.latency_cycles);
    EXPECT_EQ(b.timing.transfer_bytes, a.timing.transfer_bytes);
  }
  EXPECT_EQ(back.latency_cycles(), result_.strategy.latency_cycles());
}

TEST_F(StrategyIoTest, Int8ImplsRoundTripThroughTheAlgorithmLabel) {
  // Re-implement every conv layer on the int8 datapath (int8 engines are
  // conventional-only) and re-derive the group timings, then push the
  // strategy through the CSV writer and the inverse parser. The int8 flag
  // rides in the algorithm token ("conventional-i8"), so the strict 16/17
  // field format is unchanged.
  fpga::EngineModelParams p;
  p.enable_int8 = true;
  const fpga::EngineModel i8_model(dev_, p);
  Strategy s = result_.strategy;
  int flipped = 0;
  for (auto& g : s.groups) {
    for (std::size_t k = 0; k < g.impls.size(); ++k) {
      const nn::Layer& l = net_[g.first + k];
      if (l.kind != nn::LayerKind::kConv) continue;
      fpga::EngineConfig cfg = g.impls[k].cfg;
      cfg.algo = fpga::ConvAlgo::kConventional;
      cfg.int8 = true;
      g.impls[k] = i8_model.implement(l, cfg);
      ++flipped;
    }
    g.timing =
        cost::evaluate_group_timing(net_, g.first, g.last, g.impls, dev_);
  }
  ASSERT_GT(flipped, 0);

  const std::string csv = strategy_to_csv(s, net_);
  EXPECT_NE(csv.find("conventional-i8"), std::string::npos);
  const Strategy back = strategy_from_csv(csv, net_, dev_);
  ASSERT_EQ(back.groups.size(), s.groups.size());
  for (std::size_t gi = 0; gi < back.groups.size(); ++gi) {
    const auto& a = s.groups[gi];
    const auto& b = back.groups[gi];
    ASSERT_EQ(b.impls.size(), a.impls.size());
    for (std::size_t k = 0; k < b.impls.size(); ++k) {
      EXPECT_EQ(b.impls[k].cfg, a.impls[k].cfg);  // includes the int8 flag
      EXPECT_EQ(b.impls[k].weight_words, a.impls[k].weight_words);
      const nn::Layer& l = net_[a.first + k];
      if (l.kind == nn::LayerKind::kConv) {
        EXPECT_TRUE(b.impls[k].cfg.int8);
        // int8 packs two weights per 16-bit word (ceil).
        const long long count = static_cast<long long>(l.out.c) *
                                l.conv_fan_in() * l.conv().kernel *
                                l.conv().kernel;
        EXPECT_EQ(b.impls[k].weight_words, (count + 1) / 2);
      }
    }
    EXPECT_EQ(b.timing.latency_cycles, a.timing.latency_cycles);
    EXPECT_EQ(b.timing.transfer_bytes, a.timing.transfer_bytes);
  }
  EXPECT_EQ(back.latency_cycles(), s.latency_cycles());
}

TEST_F(StrategyIoTest, CrlfCsvStillRoundTrips) {
  std::string csv = strategy_to_csv(result_.strategy, net_);
  std::string crlf;
  for (const char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const Strategy back = strategy_from_csv(crlf, net_, dev_);
  EXPECT_EQ(back.latency_cycles(), result_.strategy.latency_cycles());
}

TEST_F(StrategyIoTest, TruncatedCsvIsAParseErrorWithLineContext) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  // Drop the last data line.
  const std::size_t cut = csv.rfind(
      '\n', csv.size() - 2);  // start of the final row
  try {
    (void)strategy_from_csv(csv.substr(0, cut + 1), net_, dev_);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(StrategyIoTest, GarbledCsvRejectsWithLineNumbers) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  EXPECT_THROW((void)strategy_from_csv("", net_, dev_), ParseError);
  EXPECT_THROW((void)strategy_from_csv("not,a,header\n", net_, dev_),
               ParseError);

  // Corrupt one numeric field of the first data row.
  std::istringstream is(csv);
  std::string header, row1;
  std::getline(is, header);
  std::getline(is, row1);
  std::string rest((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());

  const std::size_t last_comma = row1.rfind(',');
  std::string bad_row = row1.substr(0, last_comma + 1) + "banana";
  try {
    (void)strategy_from_csv(header + "\n" + bad_row + "\n" + rest, net_,
                            dev_);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);  // 1-based: header is line 1
    EXPECT_NE(std::string(e.what()).find("fill_cycles"), std::string::npos);
  }

  // Wrong layer name on the first row.
  std::string renamed = row1;
  const std::size_t name_pos = renamed.find(net_[1].name);
  ASSERT_NE(name_pos, std::string::npos);
  renamed.replace(name_pos, net_[1].name.size(), "imposter");
  EXPECT_THROW((void)strategy_from_csv(
                   header + "\n" + renamed + "\n" + rest, net_, dev_),
               ParseError);

  // Unknown algorithm token.
  std::string bad_algo = row1;
  for (const char* a : {"winograd", "conventional"}) {
    const std::size_t p = bad_algo.find(a);
    if (p != std::string::npos) {
      bad_algo.replace(p, std::strlen(a), "quantum");
      break;
    }
  }
  EXPECT_THROW((void)strategy_from_csv(
                   header + "\n" + bad_algo + "\n" + rest, net_, dev_),
               ParseError);

  // A stored row naming `winograd-s2`, which is no algorithm of the design
  // space: a typed parse error (exit 2) with the row's line number.
  std::string s2_row = row1;
  std::size_t algo_at = 0;
  for (int f = 0; f < 4; ++f) algo_at = s2_row.find(',', algo_at) + 1;
  s2_row.replace(algo_at, s2_row.find(',', algo_at) - algo_at, "winograd-s2");
  try {
    (void)strategy_from_csv(header + "\n" + s2_row + "\n" + rest, net_,
                            dev_);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.exit_code(), 2);
    EXPECT_NE(std::string(e.what()).find("unknown algorithm 'winograd-s2'"),
              std::string::npos);
  }
}

TEST_F(StrategyIoTest, ShuffledGroupIndicesRejected) {
  const std::string csv = strategy_to_csv(result_.strategy, net_);
  std::istringstream is(csv);
  std::vector<std::string> lines;
  std::string l;
  while (std::getline(is, l)) lines.push_back(l);
  ASSERT_GE(lines.size(), 3u);
  // Claim the second row belongs to a far-future group.
  lines[2] = "9" + lines[2].substr(lines[2].find(','));
  std::string shuffled;
  for (const auto& s : lines) shuffled += s + "\n";
  EXPECT_THROW((void)strategy_from_csv(shuffled, net_, dev_), ParseError);
}

TEST(ModelZooNin, ShapesAndOneByOneConvs) {
  const nn::Network net = nn::nin();
  EXPECT_EQ(net[*net.find("conv1")].out, (nn::Shape{96, 54, 54}));
  EXPECT_EQ(net[*net.find("cccp8")].out.c, 1000);
  // 1x1 convs are conventional-only (Winograd needs r >= 2).
  const fpga::EngineModel model(fpga::zc706());
  for (const auto& cfg : model.candidates(net[*net.find("cccp1")])) {
    EXPECT_EQ(cfg.algo, fpga::ConvAlgo::kConventional);
  }
}

TEST(ModelZooNin, OptimizesEndToEnd) {
  const nn::Network net = nn::nin().accelerated_portion();
  const fpga::EngineModel model(fpga::zc706());
  OptimizerOptions oo;
  oo.transfer_budget_bytes = 24ll * 1024 * 1024;
  const auto r = optimize(net, model, oo);
  ASSERT_TRUE(r.feasible);
  // Heterogeneous outcome: 1x1/11x11 layers conventional, some 3x3/5x5
  // layers may go Winograd.
  bool conv1_conventional = false;
  for (const auto& g : r.strategy.groups) {
    for (std::size_t k = 0; k < g.impls.size(); ++k) {
      if (net[g.first + k].name == "conv1") {
        conv1_conventional =
            g.impls[k].cfg.algo == fpga::ConvAlgo::kConventional;
      }
    }
  }
  EXPECT_TRUE(conv1_conventional);
}

TEST(ModelZooNin, OneByOneConvStreamsCorrectly) {
  nn::Network net("1x1");
  net.input({4, 10, 10});
  net.conv(6, 1, 1, 0, "c");
  const auto ws = nn::WeightStore::deterministic(net, 7);
  nn::Tensor in(net[0].out);
  nn::fill_deterministic(in, 8);
  arch::FusionPipeline pipe(net, ws);
  const nn::Tensor got = pipe.run(in);
  const nn::Tensor ref = nn::run_network(net, ws, in);
  EXPECT_LT(got.max_abs_diff(ref), 1e-5f);
}

}  // namespace
}  // namespace hetacc::core
