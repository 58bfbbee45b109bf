// Shared test utilities: deterministic matrices, matrix comparison, and the
// two-party harness used by every protocol test.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_io.hpp"
#include "mpc/party.hpp"
#include "net/local_channel.hpp"
#include "rng/rng.hpp"
#include "sgpu/device.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace psml::test {

inline MatrixF random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed, float lo = -1.0f,
                             float hi = 1.0f) {
  MatrixF m(rows, cols);
  rng::fill_uniform_par(m, lo, hi, seed);
  return m;
}

// A batch of sequences in the RNN's input layout: each row holds `steps`
// chunks of `d` features, chunk t drawn as random_matrix(rows, d, seed + t).
inline MatrixF random_sequence(std::size_t rows, std::size_t steps,
                               std::size_t d, std::uint64_t seed,
                               float lo = -1.0f, float hi = 1.0f) {
  MatrixF m(rows, steps * d);
  for (std::size_t t = 0; t < steps; ++t) {
    const MatrixF xt = random_matrix(rows, d, seed + t, lo, hi);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < d; ++c) m(r, t * d + c) = xt(r, c);
    }
  }
  return m;
}

inline void expect_near(const MatrixF& a, const MatrixF& b, double tol,
                        const char* what = "") {
  ASSERT_TRUE(a.same_shape(b)) << what << ": shape mismatch";
  EXPECT_LE(tensor::max_abs_diff(a, b), tol) << what;
}

// Runs the two server roles on two threads over a fresh LocalChannel pair
// and propagates assertion failures / exceptions.
inline void run_parties(
    const mpc::PartyOptions& opts,
    const std::function<void(mpc::PartyContext&)>& party0,
    const std::function<void(mpc::PartyContext&)>& party1) {
  auto chans = net::LocalChannel::make_pair();
  sgpu::Device* dev = opts.use_gpu ? &sgpu::Device::global() : nullptr;
  mpc::PartyContext ctx0(0, chans.a, dev, opts);
  mpc::PartyContext ctx1(1, chans.b, dev, opts);

  std::exception_ptr err0, err1;
  std::thread t0([&] {
    try {
      party0(ctx0);
    } catch (...) {
      err0 = std::current_exception();
    }
  });
  std::thread t1([&] {
    try {
      party1(ctx1);
    } catch (...) {
      err1 = std::current_exception();
    }
  });
  t0.join();
  t1.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);
}

// A triplet-store payload of the layout before the layout word:
//   u32 n_matmul | u32 n_elem | u32 n_act | act* | u32 n_layer
// holding only `n_act` activations of that layout — two (u, v, z) triplets
// plus S_lo and S_hi, eight rows x cols matrices each.
inline std::vector<std::uint8_t> old_layout_payload(std::uint32_t n_act,
                                                    std::uint32_t rows,
                                                    std::uint32_t cols) {
  std::vector<std::uint8_t> out;
  auto put_u32 = [&out](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  put_u32(0);  // n_matmul
  put_u32(0);  // n_elem
  put_u32(n_act);
  const float value = 0.75f;
  std::uint32_t word = 0;
  std::memcpy(&word, &value, sizeof(word));
  for (std::uint32_t m = 0; m < 8 * n_act; ++m) {
    put_u32(rows);
    put_u32(cols);
    for (std::uint32_t i = 0; i < rows * cols; ++i) put_u32(word);
  }
  put_u32(0);  // n_layer
  return out;
}

// A TripletFactory pool file of that layout for the activation spec
// rows x cols: its spec section and both halves, two activations each.
inline void write_old_layout_pool_file(const std::string& path,
                                       std::uint32_t rows,
                                       std::uint32_t cols) {
  durable::Section spec{durable::section_tag("TSPC"), {}};
  for (const std::uint32_t w : {2u, rows, 0u, cols}) {  // kActivation
    for (int b = 0; b < 4; ++b) {
      spec.payload.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    }
  }
  durable::Section p0{durable::section_tag("TRP0"),
                      old_layout_payload(2, rows, cols)};
  durable::Section p1{durable::section_tag("TRP1"),
                      old_layout_payload(2, rows, cols)};
  durable::write_sections(path, {spec, p0, p1});
}

}  // namespace psml::test
