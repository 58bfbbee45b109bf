#include "mpc/party.hpp"

namespace psml::mpc {

PartyContext::PartyContext(int party_id, std::shared_ptr<net::Channel> peer,
                           sgpu::Device* device, PartyOptions opts)
    : party_id_(party_id),
      peer_(std::move(peer)),
      device_(device),
      opts_(opts) {
  PSML_REQUIRE(party_id == 0 || party_id == 1, "party id must be 0 or 1");
  PSML_REQUIRE(peer_ != nullptr, "party requires a peer channel");
  if (opts_.use_gpu) {
    PSML_REQUIRE(device_ != nullptr, "use_gpu requires a device");
  }
  compress::Config ccfg;
  ccfg.enabled = opts_.use_compression;
  ccfg.sparsity_threshold = opts_.compression_threshold;
  compressed_ = std::make_unique<compress::Endpoint>(*peer_, ccfg);
  if (device_ != nullptr) {
    copy_stream_ = device_->create_stream();
    compute_stream_ = device_->create_stream();
  }
}

sgpu::Stream& PartyContext::upload_stream() {
  return opts_.use_pipeline ? copy_stream() : compute_stream();
}

}  // namespace psml::mpc
