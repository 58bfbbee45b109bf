#include "mpc/triplet.hpp"

#include <iterator>

#include "sgpu/ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace psml::mpc {

namespace {

// splitmix64 step for the dealer's seed chain.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Shares x under `seed` into `member` of both parties' halves.
template <class Share>
void split_into(std::pair<Share, Share>& out, const MatrixF& x,
                std::type_identity_t<MatrixF Share::*> member,
                std::uint64_t seed) {
  auto s = share_float(x, seed);
  out.first.*member = std::move(s.s0);
  out.second.*member = std::move(s.s1);
}

}  // namespace

void TripletStore::set_recycle(bool recycle) {
  if (recycle == recycle_) return;  // no-op: never touches cursors
  PSML_CHECK_MSG(!popped_,
                 "TripletStore::set_recycle after the first pop would reset "
                 "cursors and desynchronize the two parties' SPMD streams — "
                 "switch modes before consuming");
  PSML_CHECK_MSG(!(recycle && retain_),
                 "TripletStore: recycle and retain are mutually exclusive");
  recycle_ = recycle;
  cursor_ = Mark{};
}

void TripletStore::set_retain(bool retain) {
  if (retain == retain_) return;  // no-op: never touches cursors
  PSML_CHECK_MSG(!popped_,
                 "TripletStore::set_retain after the first pop would reset "
                 "cursors and desynchronize the two parties' SPMD streams — "
                 "switch modes before consuming");
  PSML_CHECK_MSG(!(retain && recycle_),
                 "TripletStore: recycle and retain are mutually exclusive");
  retain_ = retain;
  cursor_ = Mark{};
}

TripletStore::Mark TripletStore::mark() const {
  PSML_CHECK_MSG(retain_ || recycle_,
                 "TripletStore::mark needs retain or recycle mode");
  return cursor_;
}

void TripletStore::rewind(const Mark& mark) {
  PSML_CHECK_MSG(retain_ || recycle_,
                 "TripletStore::rewind needs retain or recycle mode");
  cursor_ = mark;
}

template <class T>
T TripletStore::pop(std::deque<T>& q, std::size_t& cursor, const char* what) {
  PSML_CHECK_MSG(!q.empty(), what);
  popped_ = true;
  if (recycle_) {
    T t = q[cursor];
    cursor = (cursor + 1) % q.size();
    return t;
  }
  if (retain_) {
    PSML_CHECK_MSG(cursor < q.size(), what);
    return q[cursor++];
  }
  T t = std::move(q.front());
  q.pop_front();
  return t;
}

TripletShare TripletStore::pop_matmul() {
  return pop(matmul_, cursor_.matmul, "offline matmul triplets exhausted");
}

TripletShare TripletStore::pop_elementwise() {
  return pop(elem_, cursor_.elem, "offline elementwise triplets exhausted");
}

ActivationShare TripletStore::pop_activation() {
  return pop(act_, cursor_.act, "offline activation material exhausted");
}

LayerShare TripletStore::pop_layer() {
  return pop(layer_, cursor_.layer, "offline layer material exhausted");
}

void TripletStore::append(TripletStore&& from) {
  for_each_queue([&](TripletKind, auto queue) {
    auto& src = from.*queue;
    auto& dst = this->*queue;
    std::move(src.begin(), src.end(), std::back_inserter(dst));
    src.clear();
  });
}

void TripletStore::move_front(TripletKind kind, TripletStore& to) {
  PSML_CHECK_MSG(!recycle_ && !retain_,
                 "TripletStore::move_front consumes: recycle and retain "
                 "stores keep their material");
  popped_ = true;
  for_each_queue([&](TripletKind k, auto queue) {
    if (k != kind) return;
    auto& src = this->*queue;
    PSML_CHECK_MSG(!src.empty(), "offline material of the kind exhausted");
    (to.*queue).push_back(std::move(src.front()));
    src.pop_front();
  });
}

std::size_t TripletStore::size() const {
  std::size_t n = 0;
  for_each_queue([&](TripletKind, auto queue) { n += (this->*queue).size(); });
  return n;
}

std::size_t TripletStore::bytes() const {
  std::size_t total = 0;
  for_each_queue([&](TripletKind, auto queue) {
    for (const auto& share : this->*queue) {
      for_each_matrix(share,
                      [&total](const MatrixF& m) { total += m.bytes(); });
    }
  });
  return total;
}

std::vector<std::pair<std::size_t, std::size_t>> material_shapes(
    const TripletSpec& spec) {
  const std::pair<std::size_t, std::size_t> mk{spec.m, spec.k};
  const std::pair<std::size_t, std::size_t> kn{spec.k, spec.n};
  const std::pair<std::size_t, std::size_t> mn{spec.m, spec.n};
  switch (spec.kind) {
    case TripletKind::kMatMul:
      return {mk, kn, mn};
    case TripletKind::kElementwise:
      return {mn, mn, mn};
    case TripletKind::kActivation:
      return {mn, mn, mn, mn, mn};
    case TripletKind::kLayer:
      return {mk, kn, mn, mn, kn, mk};  // u, v, z, v2, z_dw, z_dx
  }
  return {};
}

TripletDealer::TripletDealer(sgpu::Device* device, DealerOptions opts)
    : device_(device), opts_(opts) {
  seed_state_ = opts_.seed != 0 ? opts_.seed : rng::random_seed();
  PSML_REQUIRE(!(opts_.use_gpu && opts_.naive_cpu),
               "dealer: use_gpu and naive_cpu are mutually exclusive — GPU "
               "mode's small-shape fallback is the packed CPU engine, so a "
               "naive-CPU request would be silently honored only for small "
               "shapes");
  if (opts_.use_gpu) {
    PSML_REQUIRE(device_ != nullptr, "dealer: use_gpu requires a device");
  }
}

std::uint64_t TripletDealer::next_seed() {
  seed_state_ = mix64(seed_state_);
  return seed_state_;
}

MatrixF TripletDealer::product(const MatrixF& a, const MatrixF& b) {
  // Profiling-guided adaptive offline (Sec. 4.2): small products never
  // amortize the device round trip, so they stay on the CPU even in GPU
  // mode.
  const bool big_enough = 2.0 * static_cast<double>(a.rows()) * a.cols() *
                              b.cols() >=
                          static_cast<double>(1 << 21);
  if (opts_.use_gpu && big_enough) return sgpu::device_matmul(*device_, a, b);
  if (opts_.naive_cpu) return tensor::matmul_naive(a, b);
  return tensor::matmul(a, b);
}

std::pair<TripletShare, TripletShare> TripletDealer::make_matmul(
    std::size_t m, std::size_t k, std::size_t n) {
  MatrixF u(m, k), v(k, n);
  rng::fill_uniform_par(u, -1.0f, 1.0f, next_seed());
  rng::fill_uniform_par(v, -1.0f, 1.0f, next_seed());
  const MatrixF z = product(u, v);

  auto su = share_float(u, next_seed());
  auto sv = share_float(v, next_seed());
  auto sz = share_float(z, next_seed());
  return {TripletShare{std::move(su.s0), std::move(sv.s0), std::move(sz.s0)},
          TripletShare{std::move(su.s1), std::move(sv.s1), std::move(sz.s1)}};
}

std::pair<TripletShare, TripletShare> TripletDealer::make_elementwise(
    std::size_t m, std::size_t n) {
  MatrixF u(m, n), v(m, n), z;
  rng::fill_uniform_par(u, -1.0f, 1.0f, next_seed());
  rng::fill_uniform_par(v, -1.0f, 1.0f, next_seed());
  tensor::hadamard(u, v, z);

  auto su = share_float(u, next_seed());
  auto sv = share_float(v, next_seed());
  auto sz = share_float(z, next_seed());
  return {TripletShare{std::move(su.s0), std::move(sv.s0), std::move(sz.s0)},
          TripletShare{std::move(su.s1), std::move(sv.s1), std::move(sz.s1)}};
}

std::pair<ActivationShare, ActivationShare> TripletDealer::make_activation(
    std::size_t m, std::size_t n) {
  // U masks X exactly as a Beaver U would. The positive masks are bounded
  // away from zero so sign(y * s) is numerically robust in float; being
  // dealer randomness they serve as the products' second Beaver mask, so
  // nothing about them is ever opened.
  MatrixF u(m, n), s_lo(m, n), s_hi(m, n), z_lo, z_hi;
  rng::fill_uniform_par(u, -1.0f, 1.0f, next_seed());
  rng::fill_uniform_par(s_lo, 0.5f, 2.0f, next_seed());
  rng::fill_uniform_par(s_hi, 0.5f, 2.0f, next_seed());
  tensor::hadamard(u, s_lo, z_lo);
  tensor::hadamard(u, s_hi, z_hi);

  std::pair<ActivationShare, ActivationShare> out_pair;
  split_into(out_pair, u, &ActivationShare::u, next_seed());
  split_into(out_pair, s_lo, &ActivationShare::s_lo, next_seed());
  split_into(out_pair, s_hi, &ActivationShare::s_hi, next_seed());
  split_into(out_pair, z_lo, &ActivationShare::z_lo, next_seed());
  split_into(out_pair, z_hi, &ActivationShare::z_hi, next_seed());
  return out_pair;
}

std::pair<LayerShare, LayerShare> TripletDealer::make_layer(std::size_t b,
                                                            std::size_t in,
                                                            std::size_t out) {
  MatrixF u(b, in), v(in, out), v2(b, out);
  rng::fill_uniform_par(u, -1.0f, 1.0f, next_seed());
  rng::fill_uniform_par(v, -1.0f, 1.0f, next_seed());
  rng::fill_uniform_par(v2, -1.0f, 1.0f, next_seed());
  // The same three GEMMs as three independent triplets of these shapes.
  const MatrixF z = product(u, v);
  const MatrixF z_dw = product(tensor::transpose(u), v2);
  const MatrixF z_dx = product(v2, tensor::transpose(v));

  std::pair<LayerShare, LayerShare> out_pair;
  split_into(out_pair, u, &LayerShare::u, next_seed());
  split_into(out_pair, v, &LayerShare::v, next_seed());
  split_into(out_pair, v2, &LayerShare::v2, next_seed());
  split_into(out_pair, z, &LayerShare::z, next_seed());
  split_into(out_pair, z_dw, &LayerShare::z_dw, next_seed());
  split_into(out_pair, z_dx, &LayerShare::z_dx, next_seed());
  return out_pair;
}

std::pair<TripletStore, TripletStore> TripletDealer::generate(
    const std::vector<TripletSpec>& plan) {
  TripletStore st0, st1;
  for (const auto& spec : plan) {
    switch (spec.kind) {
      case TripletKind::kMatMul: {
        auto [t0, t1] = make_matmul(spec.m, spec.k, spec.n);
        st0.push_matmul(std::move(t0));
        st1.push_matmul(std::move(t1));
        break;
      }
      case TripletKind::kElementwise: {
        auto [t0, t1] = make_elementwise(spec.m, spec.n);
        st0.push_elementwise(std::move(t0));
        st1.push_elementwise(std::move(t1));
        break;
      }
      case TripletKind::kActivation: {
        auto [a0, a1] = make_activation(spec.m, spec.n);
        st0.push_activation(std::move(a0));
        st1.push_activation(std::move(a1));
        break;
      }
      case TripletKind::kLayer: {
        auto [l0, l1] = make_layer(spec.m, spec.k, spec.n);
        st0.push_layer(std::move(l0));
        st1.push_layer(std::move(l1));
        break;
      }
    }
  }
  return {std::move(st0), std::move(st1)};
}

}  // namespace psml::mpc
