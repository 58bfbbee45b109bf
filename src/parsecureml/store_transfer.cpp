#include "parsecureml/store_transfer.hpp"

#include <cstring>
#include <deque>

#include "common/taint.hpp"
#include "mpc/party.hpp"
#include "net/serialize.hpp"

namespace psml::parsecureml {

namespace {

constexpr net::Tag kStoreHeader = mpc::tags::kControl + 0x100;
constexpr net::Tag kStoreMatrix = mpc::tags::kControl + 0x101;

// declassify(): this is the client handing server i its *own* share of the
// offline material — the one party entitled to exactly these words. The
// other server's share never crosses this channel, so the additive masking
// stays information-theoretic (paper Sec. 2.2, client-aided dealer model).
void send_share_matrix(net::Channel& ch, const MatrixF& m) {
  net::send_matrix(ch, kStoreMatrix, psml::declassify(m));
}

// One message per matrix, so neither side ever holds a second copy of the
// whole store.
template <class Share>
void send_kind(net::Channel& ch, const std::deque<Share>& q) {
  for (const Share& share : q) {
    mpc::for_each_matrix(
        share, [&ch](const MatrixF& m) { send_share_matrix(ch, m); });
  }
}

template <class Share>
void recv_kind(net::Channel& ch, std::uint32_t n, std::deque<Share>& q) {
  for (std::uint32_t i = 0; i < n; ++i) {
    Share share;
    mpc::for_each_matrix(share, [&ch](MatrixF& m) {
      m = net::recv_matrix_f32(ch, kStoreMatrix);
    });
    q.push_back(std::move(share));
  }
}

}  // namespace

// The header carries one u32 entry count per kind, in for_each_queue order.
void send_store(net::Channel& ch, const mpc::TripletStore& store) {
  std::vector<std::uint32_t> counts;
  mpc::TripletStore::for_each_queue([&](mpc::TripletKind, auto queue) {
    counts.push_back(static_cast<std::uint32_t>((store.*queue).size()));
  });
  std::vector<std::uint8_t> buf(counts.size() * sizeof(std::uint32_t));
  std::memcpy(buf.data(), counts.data(), buf.size());
  ch.send(kStoreHeader, buf);

  mpc::TripletStore::for_each_queue(
      [&](mpc::TripletKind, auto queue) { send_kind(ch, store.*queue); });
}

mpc::TripletStore recv_store(net::Channel& ch) {
  const net::Message msg = ch.recv(kStoreHeader);
  std::vector<std::uint32_t> counts(mpc::TripletStore::kinds());
  if (msg.payload.size() != counts.size() * sizeof(std::uint32_t)) {
    throw ProtocolError("recv_store: bad header size");
  }
  std::memcpy(counts.data(), msg.payload.data(), msg.payload.size());

  mpc::TripletStore store;
  std::size_t at = 0;
  mpc::TripletStore::for_each_queue([&](mpc::TripletKind, auto queue) {
    recv_kind(ch, counts[at++], store.*queue);
  });
  return store;
}

}  // namespace psml::parsecureml
