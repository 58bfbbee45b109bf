#include "mpc/activation.hpp"

#include <future>

#include "common/taint.hpp"
#include "net/serialize.hpp"
#include "profile/profiler.hpp"
#include "tensor/ops.hpp"

namespace psml::mpc {

namespace {

// Opens a shared matrix between the two servers (both learn the value).
MatrixF open_shares(PartyContext& ctx, const MatrixF& mine, net::Tag tag) {
  // Both opens carry values that change every step (E moves with the
  // pre-activation, C with E), so delta compression cannot help: bypass
  // it with a raw dense send.
  std::future<void> sent;
  if (ctx.peer().send_may_block()) {
    sent = std::async(std::launch::async, [&] {
      ctx.peer().send(tag, net::encode_matrix(mine));
    });
  } else {
    ctx.peer().send(tag, net::encode_matrix(mine));
  }
  const net::Message msg = ctx.peer().recv(tag);
  if (sent.valid()) sent.get();
  MatrixF theirs = net::decode_matrix_f32(msg.payload.data(), msg.payload.size());
  MatrixF out;
  tensor::add(mine, theirs, out);
  return out;
}

// Every matrix of the material must match X's shape.
void require_shape(const MatrixF& x_i, const ActivationShare& material,
                   const char* what) {
  for_each_matrix(material, [&](const MatrixF& m) {
    PSML_REQUIRE(x_i.same_shape(m), what);
  });
}

// Round 1: opens E = X - U (tag family kExchangeE).
MatrixF open_masked_input(PartyContext& ctx, const MatrixF& x_i,
                          PSML_SECRET const MatrixF& u_i, std::uint32_t seq) {
  auto& prof = profile::Profiler::global();
  MatrixF e_i;
  {
    profile::ScopedPhase sp(prof, "online.compute1");
    if (ctx.options().cpu_parallel) {
      tensor::sub_par(x_i, u_i, e_i);
    } else {
      tensor::sub(x_i, u_i, e_i);
    }
  }
  profile::ScopedPhase sp(prof, "online.communicate");
  return open_shares(ctx, e_i, tags::kExchangeE + (seq & 0x00ffffffu));
}

// This party's share of (X + offset) .* S from the public E = X - U:
// (E + offset) .* S_i + Z_i, since Z = U .* S. Writes E.size() floats.
void masked_product(const MatrixF& e, float offset, const MatrixF& s_i,
                    const MatrixF& z_i, float* out) {
  const float* pe = e.data();
  const float* ps = s_i.data();
  const float* pz = z_i.data();
  for (std::size_t idx = 0; idx < e.size(); ++idx) {
    out[idx] = (pe[idx] + offset) * ps[idx] + pz[idx];
  }
}

// Round 2: opens the masked products (tag family kOpenMasked).
MatrixF open_products(PartyContext& ctx, const MatrixF& c_i,
                      std::uint32_t seq) {
  profile::ScopedPhase sp(profile::Profiler::global(), "online.communicate");
  return open_shares(ctx, c_i, tags::kOpenMasked + (seq & 0x00ffffffu));
}

}  // namespace

ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i,
                                   const ActivationShare& material) {
  require_shape(x_i, material, "secure_activation: material shape mismatch");
  auto& prof = profile::Profiler::global();
  const float i = static_cast<float>(ctx.id());
  const std::uint32_t seq = ctx.next_seq();
  const MatrixF e = open_masked_input(ctx, x_i, material.u, seq);

  // Both products travel in one frame: C_lo in the top rows, C_hi below.
  // sign(C_lo) = sign(X + 1/2) and sign(C_hi) = sign(X - 1/2).
  const std::size_t n = x_i.size();
  MatrixF c(2 * x_i.rows(), x_i.cols());
  {
    profile::ScopedPhase sp(prof, "online.compute2");
    masked_product(e, 0.5f, material.s_lo, material.z_lo, c.data());
    masked_product(e, -0.5f, material.s_hi, material.z_hi, c.data() + n);
  }
  const MatrixF opened = open_products(ctx, c, seq);

  profile::ScopedPhase sp(prof, "online.compute2");
  ActivationResult out;
  out.value_share.resize(x_i.rows(), x_i.cols());
  out.grad_mask.resize(x_i.rows(), x_i.cols());
  for (std::size_t idx = 0; idx < n; ++idx) {
    const bool below = opened.data()[idx] < 0.0f;     // X < -1/2
    const bool above = opened.data()[n + idx] > 0.0f;  // X > 1/2
    if (below) {
      out.value_share.data()[idx] = 0.0f;
      out.grad_mask.data()[idx] = 0.0f;
    } else if (above) {
      out.value_share.data()[idx] = i;  // shares (0, 1) reconstruct to 1
      out.grad_mask.data()[idx] = 0.0f;
    } else {
      out.value_share.data()[idx] = x_i.data()[idx] + i * 0.5f;
      out.grad_mask.data()[idx] = 1.0f;
    }
  }
  return out;
}

ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i) {
  const ActivationShare material = ctx.triplets().pop_activation();
  return secure_activation(ctx, x_i, material);
}

MatrixF secure_less_than(PartyContext& ctx, const MatrixF& x_i, float c,
                         const ActivationShare& material) {
  require_shape(x_i, material, "secure_less_than: material shape mismatch");
  const std::uint32_t seq = ctx.next_seq();
  const MatrixF e = open_masked_input(ctx, x_i, material.u, seq);

  // sign((X - c) .* S_lo) = sign(X - c).
  MatrixF masked(x_i.rows(), x_i.cols());
  {
    profile::ScopedPhase sp(profile::Profiler::global(), "online.compute2");
    masked_product(e, -c, material.s_lo, material.z_lo, masked.data());
  }
  const MatrixF opened = open_products(ctx, masked, seq);
  MatrixF mask(x_i.rows(), x_i.cols());
  for (std::size_t idx = 0; idx < mask.size(); ++idx) {
    mask.data()[idx] = opened.data()[idx] < 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

MatrixF activation_ref(const MatrixF& x) {
  MatrixF out(x.rows(), x.cols());
  for (std::size_t idx = 0; idx < x.size(); ++idx) {
    const float v = x.data()[idx];
    out.data()[idx] = v < -0.5f ? 0.0f : (v > 0.5f ? 1.0f : v + 0.5f);
  }
  return out;
}

MatrixF activation_grad_ref(const MatrixF& x) {
  MatrixF out(x.rows(), x.cols());
  for (std::size_t idx = 0; idx < x.size(); ++idx) {
    const float v = x.data()[idx];
    out.data()[idx] = (v > -0.5f && v < 0.5f) ? 1.0f : 0.0f;
  }
  return out;
}

}  // namespace psml::mpc
