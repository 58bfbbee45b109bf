#include "parsecureml/store_transfer.hpp"

#include <cstring>

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
void send_triplet(net::Channel& ch, const mpc::TripletShare& t) {
  net::send_matrix(ch, kStoreMatrix, psml::declassify(t.u));
  net::send_matrix(ch, kStoreMatrix, psml::declassify(t.v));
  net::send_matrix(ch, kStoreMatrix, psml::declassify(t.z));
}

mpc::TripletShare recv_triplet(net::Channel& ch) {
  mpc::TripletShare t;
  t.u = net::recv_matrix_f32(ch, kStoreMatrix);
  t.v = net::recv_matrix_f32(ch, kStoreMatrix);
  t.z = net::recv_matrix_f32(ch, kStoreMatrix);
  return t;
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

  for (const auto& t : store.matmuls()) send_triplet(ch, t);
  for (const auto& t : store.elementwises()) send_triplet(ch, t);
  for (const auto& a : store.activations()) {
    send_triplet(ch, a.t_lo);
    send_triplet(ch, a.t_hi);
    // Same dealer-to-owner handoff as send_triplet above.
    net::send_matrix(ch, kStoreMatrix, psml::declassify(a.s_lo));
    net::send_matrix(ch, kStoreMatrix, psml::declassify(a.s_hi));
  }
  for (const auto& l : store.layers()) {
    send_triplet(ch, l);
    // Same dealer-to-owner handoff as send_triplet above.
    net::send_matrix(ch, kStoreMatrix, psml::declassify(l.v2));
    net::send_matrix(ch, kStoreMatrix, psml::declassify(l.z_dw));
    net::send_matrix(ch, kStoreMatrix, psml::declassify(l.z_dx));
  }
}

mpc::TripletStore recv_store(net::Channel& ch) {
  const net::Message msg = ch.recv(kStoreHeader);
  if (msg.payload.size() != sizeof(StoreHeader)) {
    throw ProtocolError("recv_store: bad header size");
  }
  StoreHeader h;
  std::memcpy(&h, msg.payload.data(), sizeof(h));

  mpc::TripletStore store;
  for (std::uint32_t i = 0; i < h.n_matmul; ++i) {
    store.push_matmul(recv_triplet(ch));
  }
  for (std::uint32_t i = 0; i < h.n_elem; ++i) {
    store.push_elementwise(recv_triplet(ch));
  }
  for (std::uint32_t i = 0; i < h.n_act; ++i) {
    mpc::ActivationShare a;
    a.t_lo = recv_triplet(ch);
    a.t_hi = recv_triplet(ch);
    a.s_lo = net::recv_matrix_f32(ch, kStoreMatrix);
    a.s_hi = net::recv_matrix_f32(ch, kStoreMatrix);
    store.push_activation(std::move(a));
  }
  for (std::uint32_t i = 0; i < h.n_layer; ++i) {
    mpc::LayerShare l;
    static_cast<mpc::TripletShare&>(l) = recv_triplet(ch);
    l.v2 = net::recv_matrix_f32(ch, kStoreMatrix);
    l.z_dw = net::recv_matrix_f32(ch, kStoreMatrix);
    l.z_dx = net::recv_matrix_f32(ch, kStoreMatrix);
    store.push_layer(std::move(l));
  }
  return store;
}

}  // namespace psml::parsecureml
