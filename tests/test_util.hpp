// Shared test utilities: deterministic matrices, matrix comparison, and the
// two-party harness used by every protocol test.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <thread>

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

}  // namespace psml::test
