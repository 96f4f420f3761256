// Caffe front-end demo: import a deploy prototxt (a bundled VGG-E or a file
// given on the command line), print the parsed topology, and run the
// optimizer on its accelerated portion for a chosen device.
//
//   ./caffe_import [deploy.prototxt] [--device zc706|vc707] [--budget-mb N]

#include <cstdio>
#include <cstring>
#include <string>

#include "caffe/importer.h"
#include "toolflow/toolflow.h"

using namespace hetacc;

int main(int argc, char** argv) {
  std::string path;
  fpga::Device dev = fpga::zc706();
  long long budget_mb = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--device") && i + 1 < argc) {
      dev = std::strcmp(argv[++i], "vc707") ? fpga::zc706() : fpga::vc707();
    } else if (!std::strcmp(argv[i], "--budget-mb") && i + 1 < argc) {
      budget_mb = std::atoll(argv[++i]);
    } else {
      path = argv[i];
    }
  }

  nn::Network net;
  try {
    net = path.empty() ? caffe::import_prototxt(caffe::vgg_e_prototxt())
                       : caffe::import_prototxt_file(path);
  } catch (const std::exception& e) {
    std::printf("import failed: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", net.summary().c_str());

  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.optimizer.transfer_budget_bytes = budget_mb * 1024 * 1024;
  try {
    const auto result = toolflow::run_toolflow(net, dev, opt);
    std::printf("%s\n", result.summary().c_str());
    std::printf("%s\n",
                result.optimization.strategy.describe(result.accel_net)
                    .c_str());
  } catch (const std::exception& e) {
    std::printf("tool-flow failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
