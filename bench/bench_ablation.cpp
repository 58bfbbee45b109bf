// Ablation study (DESIGN.md §5): starting from the default ParSecureML
// options, flip one optimization at a time and measure the cost. Every row
// disables one, except Tensor-Core rounding, which is off by default, so
// its row enables it. Complements Figs. 14/15 with the pipeline,
// compression, Eq. 8 fusion, and adaptive-dispatch axes.
#include "bench_util.hpp"

using namespace psml;
using namespace psml::bench;

namespace {

struct Axis {
  const char* name;
  void (*flip)(mpc::PartyOptions&);
};

}  // namespace

int main() {
  header("Ablation", "flip one ParSecureML optimization at a time");

  const Axis axes[] = {
      {"-pipeline", [](mpc::PartyOptions& o) { o.use_pipeline = false; }},
      {"-compression", [](mpc::PartyOptions& o) { o.use_compression = false; }},
      {"+tensor-core", [](mpc::PartyOptions& o) { o.use_tensor_core = true; }},
      {"-eq8-fusion", [](mpc::PartyOptions& o) { o.fuse_eq8 = false; }},
      {"-cpu-parallel", [](mpc::PartyOptions& o) { o.cpu_parallel = false; }},
      {"-adaptive", [](mpc::PartyOptions& o) { o.adaptive = false; }},
      {"-gpu (all CPU)", [](mpc::PartyOptions& o) {
         o.use_gpu = false;
         o.adaptive = false;
       }},
  };

  for (const auto model : {ml::ModelKind::kMlp, ml::ModelKind::kCnn}) {
    auto cfg = default_config(model, data::DatasetKind::kMnist,
                              parsecureml::Mode::kCustom);
    cfg.samples = scaled(96);
    cfg.batch = cfg.samples;
    cfg.epochs = 2;
    cfg.custom_opts = mpc::PartyOptions::parsecureml();
    const auto full = parsecureml::run_training(cfg);
    std::printf("\n%s on MNIST (default ParSecureML: online %.3fs, total "
                "%.3fs, s2s %.2f MiB)\n",
                ml::to_string(model).c_str(), full.online_sec, full.total_sec,
                static_cast<double>(full.server_to_server_bytes) / (1 << 20));
    std::printf("%-16s %10s %10s %12s %12s\n", "variant", "online(s)",
                "total(s)", "vs-full-onl", "s2s(MiB)");

    for (const auto& axis : axes) {
      cfg.custom_opts = mpc::PartyOptions::parsecureml();
      axis.flip(cfg.custom_opts);
      const auto r = parsecureml::run_training(cfg);
      std::printf("%-16s %10.3f %10.3f %11.2fx %12.2f\n", axis.name,
                  r.online_sec, r.total_sec, r.online_sec / full.online_sec,
                  static_cast<double>(r.server_to_server_bytes) / (1 << 20));
    }
  }
  std::printf("\n(vs-full-onl > 1 means the flipped optimization's default "
              "was helping at this scale)\n");
  return 0;
}
