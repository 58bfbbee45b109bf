// Fig. 15: benefit of the Tensor-Core GEMM path (fp16 multiply, fp32
// accumulate; Sec. 5.2). Paper: 3.11% average; programs dominated by large
// GEMMs benefit the most.
#include "bench_util.hpp"
#include "common/timer.hpp"
#include "rng/rng.hpp"
#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"

using namespace psml;
using namespace psml::bench;

int main() {
  header("Fig. 15", "Tensor-Core GEMM path benefit");
  std::printf("device GEMM engine: %s\n\n", tensor::gemm_kernel_name());

  // Kernel-level. The TC path rounds each operand once to binary16 and runs
  // the same f32 engine as the fp32 path (fp16 multiply, fp32 accumulate),
  // so on this CPU substrate "benefit" is minus the cost of the two rounding
  // passes: the paper's gain comes from Tensor Core throughput, which a
  // simulated device has no counterpart for.
  std::printf("-- kernel level (n x n GEMM, device) --\n");
  std::printf("%-8s %12s %12s %10s\n", "n", "fp32(s)", "tc(s)", "benefit");
  auto& dev = sgpu::Device::global();
  for (const std::size_t n : {128u, 256u, 512u, 1024u}) {
    MatrixF a(n, n), b(n, n);
    rng::fill_uniform_par(a, -1.0f, 1.0f, 1);
    rng::fill_uniform_par(b, -1.0f, 1.0f, 2);
    auto best = [&](bool tc) {
      double best_t = 1e100;
      for (int i = 0; i < 3; ++i) {
        Timer t;
        (void)sgpu::device_matmul(dev, a, b, tc);
        best_t = std::min(best_t, t.seconds());
      }
      return best_t;
    };
    const double fp32 = best(false);
    const double tc = best(true);
    std::printf("%-8zu %12.5f %12.5f %9.1f%%\n", n, fp32, tc,
                (fp32 - tc) / fp32 * 100.0);
  }

  // End-to-end: full secure training with/without the TC path.
  std::printf("\n-- end to end (secure training) --\n");
  std::printf("%-10s %-10s %12s %12s %10s\n", "dataset", "model", "fp32(s)",
              "tc(s)", "benefit");
  double sum = 0;
  int count = 0;
  for (const auto model : {ml::ModelKind::kMlp, ml::ModelKind::kLinear}) {
    for (const auto dataset :
         {data::DatasetKind::kNist, data::DatasetKind::kSynthetic}) {
      auto cfg = default_config(model, dataset, parsecureml::Mode::kCustom);
      cfg.samples = scaled(256);  // big enough that GEMMs pass the TC gate
      cfg.batch = cfg.samples;
      cfg.custom_opts = mpc::PartyOptions::parsecureml();
      cfg.custom_opts.adaptive = false;  // keep every GEMM on the device
      auto best_of = [&](bool tc_on) {
        cfg.custom_opts.use_tensor_core = tc_on;
        double best = 1e100;
        for (int i = 0; i < 3; ++i) {
          best = std::min(best, parsecureml::run_training(cfg).total_sec);
        }
        return best;
      };
      const double fp32 = best_of(false);
      const double tc = best_of(true);
      const double benefit = (fp32 - tc) / fp32;
      sum += benefit;
      ++count;
      std::printf("%-10s %-10s %12.3f %12.3f %9.1f%%\n",
                  data::to_string(dataset).c_str(),
                  ml::to_string(model).c_str(), fp32, tc, benefit * 100.0);
    }
  }
  std::printf("\naverage end-to-end benefit: %.1f%% (paper 3.11%%)\n",
              sum / count * 100.0);
  return 0;
}
