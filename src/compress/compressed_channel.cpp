#include "compress/compressed_channel.hpp"

#include <cstring>

#include "net/buffer_pool.hpp"
#include "net/serialize.hpp"
#include "net/wire_buf.hpp"
#include "sparse/csr.hpp"
#include "tensor/ops.hpp"

namespace psml::compress {

namespace {

enum SubKind : std::uint8_t { kDense = 0, kCsrDelta = 1, kPair = 2 };

}  // namespace

Endpoint::Endpoint(net::Channel& channel, Config cfg)
    : channel_(channel), cfg_(cfg) {}

std::size_t Endpoint::plan_body(std::uint64_t key, const MatrixF& m,
                                net::WireBuf& out) {
  const std::size_t before = out.size();
  stats_.messages += 1;
  // Derived from the serializer (wire header + payload + our subkind byte),
  // not hard-coded, so the ratio accounting tracks any header change.
  const std::size_t dense_payload = net::encoded_matrix_bytes(m) + 1;
  stats_.dense_bytes += dense_payload;

  const std::uint8_t sk_dense = kDense;
  const std::uint8_t sk_csr = kCsrDelta;

  if (cfg_.enabled) {
    auto it = send_state_.find(key);
    if (it != send_state_.end() && it->second.baseline.same_shape(m)) {
      SendState& st = it->second;
      // st.delta is per-key scratch: after the first epoch its allocation is
      // reused every send instead of churning a fresh matrix per call.
      tensor::sub(m, st.baseline, st.delta);
      if (tensor::zero_fraction(st.delta) >= cfg_.sparsity_threshold) {
        const auto csr = sparse::Csr::from_dense(st.delta);
        // CSR only pays off if it is actually smaller than dense.
        if (net::encoded_csr_bytes(csr) + 1 < dense_payload) {
          out.append_copy(&sk_csr, 1);
          out.append_vector(net::encode_csr(csr));
          stats_.compressed_messages += 1;
          st.baseline = m;  // same shape: copy-assign reuses the allocation
          const std::size_t appended = out.size() - before;
          stats_.sent_bytes += appended;
          return appended;
        }
      }
    }
  }
  out.append_copy(&sk_dense, 1);
  // Borrowed view of the caller's matrix storage — valid through the
  // synchronous channel send that follows plan_body.
  net::encode_matrix_into(m, out);
  if (cfg_.enabled) {
    SendState& st = send_state_[key];
    st.baseline = m;
  }
  const std::size_t appended = out.size() - before;
  stats_.sent_bytes += appended;
  return appended;
}

void Endpoint::send(net::Tag tag, std::uint64_t key, const MatrixF& m) {
  sync::MutexLock lock(send_mutex_);
  net::WireBuf buf;
  plan_body(key, m, buf);
  channel_.send(tag, std::move(buf));
}

void Endpoint::send_pair(net::Tag tag, std::uint64_t key_a, const MatrixF& a,
                         std::uint64_t key_b, const MatrixF& b) {
  sync::MutexLock lock(send_mutex_);
  net::WireBuf buf;
  // Prefix placeholder: [kPair][u32 len_a]; len_a patched once body_a is
  // planned. append_copy lands in the arena, so we plan body_a into a side
  // WireBuf first and splice — arena offsets stay valid through append_buf.
  net::WireBuf body_a;
  const std::size_t len_a = plan_body(key_a, a, body_a);
  std::uint8_t prefix[5];
  prefix[0] = kPair;
  const auto la = static_cast<std::uint32_t>(len_a);
  prefix[1] = static_cast<std::uint8_t>(la & 0xff);
  prefix[2] = static_cast<std::uint8_t>((la >> 8) & 0xff);
  prefix[3] = static_cast<std::uint8_t>((la >> 16) & 0xff);
  prefix[4] = static_cast<std::uint8_t>((la >> 24) & 0xff);
  buf.append_copy(prefix, sizeof(prefix));
  buf.append_buf(std::move(body_a));
  plan_body(key_b, b, buf);
  stats_.sent_bytes += sizeof(prefix);
  channel_.send(tag, std::move(buf));
}

MatrixF Endpoint::decode_body(std::uint64_t key, const std::uint8_t* data,
                              std::size_t size) {
  if (size == 0) {
    throw ProtocolError("compressed recv: empty payload");
  }
  const auto sk = static_cast<SubKind>(data[0]);
  const std::uint8_t* body = data + 1;
  const std::size_t body_size = size - 1;

  switch (sk) {
    case kDense: {
      MatrixF m = net::decode_matrix_f32(body, body_size);
      if (cfg_.enabled) recv_baseline_[key] = m;
      return m;
    }
    case kCsrDelta: {
      auto it = recv_baseline_.find(key);
      if (it == recv_baseline_.end()) {
        throw ProtocolError(
            "compressed recv: delta received with no baseline for key " +
            std::to_string(key));
      }
      MatrixF delta = net::decode_matrix_f32(body, body_size);
      if (!delta.same_shape(it->second)) {
        throw ProtocolError("compressed recv: delta shape drifted");
      }
      tensor::add(it->second, delta, it->second);
      return it->second;
    }
    default:
      throw ProtocolError("compressed recv: unknown subkind byte");
  }
}

MatrixF Endpoint::recv(net::Tag tag, std::uint64_t key) {
  // The blocking channel receive happens OUTSIDE the endpoint lock: holding
  // it here would recreate the cross-party pipeline deadlock documented in
  // net::Channel::recv (one thread blocks holding the lock; another thread
  // that must send the peer's awaited message queues behind it).
  // Tags are globally unique per message, so concurrent recvs for different
  // keys cannot steal each other's payloads; only the baseline map needs
  // the lock.
  net::Message msg = channel_.recv(tag);
  MatrixF out;
  {
    sync::MutexLock lock(recv_mutex_);
    out = decode_body(key, msg.payload.data(), msg.payload.size());
  }
  net::BufferPool::global().release(std::move(msg.payload));
  return out;
}

std::pair<MatrixF, MatrixF> Endpoint::recv_pair(net::Tag tag,
                                                std::uint64_t key_a,
                                                std::uint64_t key_b) {
  net::Message msg = channel_.recv(tag);
  const std::uint8_t* p = msg.payload.data();
  const std::size_t n = msg.payload.size();
  if (n < 5 || p[0] != kPair) {
    throw ProtocolError("compressed recv_pair: not a pair frame");
  }
  const std::uint32_t len_a = static_cast<std::uint32_t>(p[1]) |
                              (static_cast<std::uint32_t>(p[2]) << 8) |
                              (static_cast<std::uint32_t>(p[3]) << 16) |
                              (static_cast<std::uint32_t>(p[4]) << 24);
  if (5 + static_cast<std::size_t>(len_a) > n) {
    throw ProtocolError("compressed recv_pair: len_a overruns payload");
  }
  std::pair<MatrixF, MatrixF> out;
  {
    sync::MutexLock lock(recv_mutex_);
    out.first = decode_body(key_a, p + 5, len_a);
    out.second = decode_body(key_b, p + 5 + len_a, n - 5 - len_a);
  }
  net::BufferPool::global().release(std::move(msg.payload));
  return out;
}

void Endpoint::reset_baselines() {
  // Fixed acquisition order (send before recv) — the only place both locks
  // are held at once, so the whole-program lock graph keeps a single edge
  // between them.
  sync::MutexLock send_lock(send_mutex_);
  sync::MutexLock recv_lock(recv_mutex_);
  send_state_.clear();
  recv_baseline_.clear();
}

}  // namespace psml::compress
