// Two-process secure inference over TCP — the deployment shape of Fig. 1b.
//
// Run in three terminals (or let the no-arg mode fork both servers itself):
//   ./secure_inference_tcp server0 9001     # computation server 0
//   ./secure_inference_tcp server1 9001     # computation server 1
//   (no args)                               # in-process demo of the same
//
// The client role lives in whichever process you start with "server0": it
// deals triplets, shares the input, and reconstructs predictions — in a real
// deployment the dealer would be a third machine; the protocol code is
// identical.
#include <cstdio>
#include <cstring>
#include <thread>

#include "data/datasets.hpp"
#include "ml/models.hpp"
#include "ml/secure/secure_model.hpp"
#include "mpc/party.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "net/tcp_channel.hpp"
#include "parsecureml/store_transfer.hpp"

using namespace psml;

namespace {

constexpr std::size_t kSamples = 32;

ml::ModelConfig model_config(const data::Dataset& ds) {
  ml::ModelConfig mc;
  mc.kind = ml::ModelKind::kMlp;
  mc.input_dim = ds.geometry.features();
  mc.classes = 10;
  mc.seed = 21;
  return mc;
}

// One server's role: receive offline material + input share, run secure
// inference, send the prediction share to the peer holding the client role.
void run_server(int id, std::shared_ptr<net::Channel> peer,
                mpc::TripletStore store, MatrixF x_share,
                MatrixF* pred_share_out) {
  const auto opts = mpc::PartyOptions::parsecureml();
  mpc::PartyContext ctx(id, std::move(peer), &sgpu::Device::global(), opts);
  ctx.set_triplets(std::move(store));

  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, kSamples,
                                     2024);
  auto pair = ml::build_secure_pair(model_config(ds));
  auto& model = id == 0 ? pair.m0 : pair.m1;

  ml::SecureEnv env{&ctx, false};
  *pred_share_out = ml::secure_infer_batch(env, model, x_share);
  std::printf("[server%d] inference done (%zu x %zu prediction share)\n", id,
              pred_share_out->rows(), pred_share_out->cols());
}

int run_role(const std::string& role, std::uint16_t port) {
  const auto ds = data::make_dataset(data::DatasetKind::kMnist,
                                     data::LabelScheme::kOneHot10, kSamples,
                                     2024);
  auto pair = ml::build_secure_pair(model_config(ds));
  std::vector<mpc::TripletSpec> plan;
  pair.m0.plan_batch(plan, kSamples, ml::LossKind::kMse, 10, false);

  if (role == "server0") {
    // Client+server0 role: deal, send server1 its material, run, combine.
    auto peer = net::TcpChannel::listen(port);
    mpc::TripletDealer dealer(&sgpu::Device::global(), {true, false, 3001});
    auto [st0, st1] = dealer.generate(plan);
    auto xs = mpc::share_float(ds.x, 3002);

    parsecureml::send_store(*peer, st1);
    net::send_matrix(*peer, mpc::tags::kClientData, xs.s1);
    std::printf("[server0] offline material sent to server1\n");

    MatrixF pred0;
    run_server(0, peer, std::move(st0), xs.s0, &pred0);

    const MatrixF pred1 = net::recv_matrix_f32(*peer, mpc::tags::kResult);
    const MatrixF pred = mpc::reconstruct_float(pred0, pred1);
    const double acc = ml::accuracy(pred, ds.y);
    std::printf("[client] reconstructed predictions, accuracy %.3f\n", acc);
    return 0;
  }

  // server1 role.
  auto peer = net::TcpChannel::connect("127.0.0.1", port, 30.0);
  mpc::TripletStore st1 = parsecureml::recv_store(*peer);
  const MatrixF x1 = net::recv_matrix_f32(*peer, mpc::tags::kClientData);
  std::printf("[server1] offline material received\n");

  MatrixF pred1;
  run_server(1, peer, std::move(st1), x1, &pred1);
  net::send_matrix(*peer, mpc::tags::kResult, pred1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3) {
    return run_role(argv[1], static_cast<std::uint16_t>(std::atoi(argv[2])));
  }
  // No-arg mode: run both roles over loopback TCP in one process.
  std::printf("running both parties over loopback TCP (port 9314)\n");
  std::thread t1([] { run_role("server1", 9314); });
  const int rc = run_role("server0", 9314);
  t1.join();
  return rc;
}
