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

struct StoreHeader {
  std::uint32_t n_matmul;
  std::uint32_t n_elem;
  std::uint32_t n_act;
  std::uint32_t n_layer;
};

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
void recv_kind(net::Channel& ch, std::uint32_t n, mpc::TripletStore& store,
               void (mpc::TripletStore::*push)(Share)) {
  for (std::uint32_t i = 0; i < n; ++i) {
    Share share;
    mpc::for_each_matrix(share, [&ch](MatrixF& m) {
      m = net::recv_matrix_f32(ch, kStoreMatrix);
    });
    (store.*push)(std::move(share));
  }
}

}  // namespace

void send_store(net::Channel& ch, const mpc::TripletStore& store) {
  const StoreHeader h{static_cast<std::uint32_t>(store.matmuls().size()),
                      static_cast<std::uint32_t>(store.elementwises().size()),
                      static_cast<std::uint32_t>(store.activations().size()),
                      static_cast<std::uint32_t>(store.layers().size())};
  std::vector<std::uint8_t> buf(sizeof(h));
  std::memcpy(buf.data(), &h, sizeof(h));
  ch.send(kStoreHeader, buf);

  send_kind(ch, store.matmuls());
  send_kind(ch, store.elementwises());
  send_kind(ch, store.activations());
  send_kind(ch, store.layers());
}

mpc::TripletStore recv_store(net::Channel& ch) {
  const net::Message msg = ch.recv(kStoreHeader);
  if (msg.payload.size() != sizeof(StoreHeader)) {
    throw ProtocolError("recv_store: bad header size");
  }
  StoreHeader h;
  std::memcpy(&h, msg.payload.data(), sizeof(h));

  mpc::TripletStore store;
  recv_kind(ch, h.n_matmul, store, &mpc::TripletStore::push_matmul);
  recv_kind(ch, h.n_elem, store, &mpc::TripletStore::push_elementwise);
  recv_kind(ch, h.n_act, store, &mpc::TripletStore::push_activation);
  recv_kind(ch, h.n_layer, store, &mpc::TripletStore::push_layer);
  return store;
}

}  // namespace psml::parsecureml
