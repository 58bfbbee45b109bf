// Beaver triplet generation — the offline phase (paper Sec. 2.2 Eqs. 2-3 and
// Fig. 4).
//
// For every secure multiplication the dealer (the client, trusted in
// SecureML's client-aided model) samples random U, V, computes Z = U x V,
// additively shares all three, and hands share i to server i. The heavy step
// is Z = U x V, which ParSecureML runs on the GPU (>90 % of offline time,
// Sec. 4.2); TripletDealer takes a device pointer for exactly that.
//
// A TripletPlan is the ordered list of triplet shapes one epoch consumes.
// Both servers execute the same op sequence (SPMD), so consuming from a FIFO
// TripletStore keeps them aligned with no extra coordination.
//
// A training dense or conv layer multiplies three times per step: Y = X x W,
// dW = X^T x dY and dX = dY x W^T. Its kLayer material correlates the three
// products so that each operand is opened once per step: the masks U of X
// and V of W serve forward and both backward products, and one more mask V2
// of dY serves both backward products (docs/PROTOCOL.md §5).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/taint.hpp"
#include "mpc/share.hpp"
#include "sgpu/device.hpp"
#include "tensor/matrix.hpp"

namespace psml::mpc {

enum class TripletKind : std::uint8_t {
  kMatMul = 0,       // U(mxk), V(kxn), Z = U x V
  kElementwise = 1,  // U, V, Z = U .* V, all (mxn)
  kActivation = 2,   // two elementwise triplets + two positive masks (mxn)
  kLayer = 3,        // training layer, m = batch, k = in, n = out (LayerShare)
};

struct TripletSpec {
  TripletKind kind = TripletKind::kMatMul;
  std::size_t m = 0, k = 0, n = 0;  // kElementwise/kActivation use m, n only

  // Ordered so specs can key shape-indexed containers (the TripletFactory
  // pools are a std::map<TripletSpec, Pool>).
  friend auto operator<=>(const TripletSpec&, const TripletSpec&) = default;
};

// One server's share of a multiplication triplet (matmul or elementwise).
struct PSML_SECRET TripletShare {
  MatrixF u, v, z;
};

// One server's share of a training layer's correlated material. The
// inherited (u, v, z) is the forward triplet: U (b x in), V (in x out),
// Z = U x V. V2 (b x out) masks dY, Z_dw = U^T x V2 (in x out) serves
// dW = X^T x dY and Z_dx = V2 x V^T (b x in) serves dX = dY x W^T.
struct PSML_SECRET LayerShare : TripletShare {
  MatrixF v2, z_dw, z_dx;
};

// One server's share of the activation-comparison material: Beaver triplets
// for the two masked products and additive shares of the positive
// multiplicative masks s1, s2 (see activation.hpp).
struct PSML_SECRET ActivationShare {
  TripletShare t_lo, t_hi;
  MatrixF s_lo, s_hi;
};

// FIFO store of one server's offline material.
//
// Recycle mode: the paper's compressed-transmission design (Eqs. 11-12)
// requires the triplet masks U/V of a given operation to stay *fixed across
// epochs* — E_{j+1} = E_j + dA only holds when U does not change. In recycle
// mode pops cycle through the stored material (one epoch's worth) instead of
// consuming it, exactly modelling that reuse. The security trade-off
// (revealed E-deltas equal data deltas) is inherent to the paper's scheme
// and documented in DESIGN.md.
class PSML_SECRET TripletStore {
 public:
  void push_matmul(TripletShare t) { matmul_.push_back(std::move(t)); }
  void push_elementwise(TripletShare t) { elem_.push_back(std::move(t)); }
  void push_activation(ActivationShare a) { act_.push_back(std::move(a)); }
  void push_layer(LayerShare l) { layer_.push_back(std::move(l)); }

  // Enables epoch-cycling pops; cursors restart at the front.
  //
  // Mode-switch contract (enforced, not advisory): the two parties consume
  // one SPMD triplet stream, so a cursor reset after consumption has begun
  // would silently desynchronize them. Changing the mode after the first
  // pop therefore fails a PSML_CHECK; calling the setter again with the
  // current value is a no-op (and never resets cursors). Recycle and retain
  // are mutually exclusive — enabling one while the other is on is
  // rejected.
  void set_recycle(bool recycle);
  bool recycle() const { return recycle_; }

  // Retain mode: pops advance cursors without consuming (no wrap-around, a
  // pop past the end still fails), which is what makes mark()/rewind()
  // possible — the fault-tolerant training loop rewinds to the step's mark
  // before retrying so both parties re-consume identical triplets. Same
  // switch-before-first-pop contract as set_recycle.
  void set_retain(bool retain);
  bool retain() const { return retain_; }

  // Cursor snapshot for step-level rollback. Requires retain or recycle
  // mode (consuming pops destroy the material and cannot be rewound).
  struct Mark {
    std::size_t matmul = 0, elem = 0, act = 0, layer = 0;
  };
  Mark mark() const;
  void rewind(const Mark& mark);

  TripletShare pop_matmul();
  TripletShare pop_elementwise();
  ActivationShare pop_activation();
  LayerShare pop_layer();

  bool empty() const {
    return matmul_.empty() && elem_.empty() && act_.empty() && layer_.empty();
  }
  std::size_t matmul_size() const { return matmul_.size(); }
  std::size_t elementwise_size() const { return elem_.size(); }
  std::size_t activation_size() const { return act_.size(); }
  std::size_t layer_size() const { return layer_.size(); }

  // Total bytes of offline material held (what the client must transmit).
  std::size_t bytes() const;

  // Read-only views for serialization (client -> server transmission).
  const std::deque<TripletShare>& matmuls() const { return matmul_; }
  const std::deque<TripletShare>& elementwises() const { return elem_; }
  const std::deque<ActivationShare>& activations() const { return act_; }
  const std::deque<LayerShare>& layers() const { return layer_; }

 private:
  // The one pop of every kind: consume, retain or recycle per the mode.
  template <class T>
  T pop(std::deque<T>& q, std::size_t& cursor, const char* what);

  std::deque<TripletShare> matmul_;
  std::deque<TripletShare> elem_;
  std::deque<ActivationShare> act_;
  std::deque<LayerShare> layer_;
  bool recycle_ = false;
  bool retain_ = false;
  bool popped_ = false;  // any pop seen — mode switches are rejected after
  Mark cursor_;
};

struct DealerOptions {
  // Run Z = U x V on the simulated GPU (the paper's offline acceleration).
  bool use_gpu = true;
  // Use the baseline naive CPU GEMM instead (SecureML mode). Mutually
  // exclusive with use_gpu: the adaptive small-shape CPU fallback of GPU
  // mode is the *packed* engine, so "GPU + naive CPU" has no coherent
  // meaning and the constructor rejects the combination (InvalidArgument).
  bool naive_cpu = false;
  // Deterministic seed; 0 draws a random one.
  std::uint64_t seed = 0;
};

class TripletDealer {
 public:
  TripletDealer(sgpu::Device* device, DealerOptions opts);

  // Generates the shares of one triplet for both servers.
  std::pair<TripletShare, TripletShare> make_matmul(std::size_t m,
                                                    std::size_t k,
                                                    std::size_t n);
  std::pair<TripletShare, TripletShare> make_elementwise(std::size_t m,
                                                         std::size_t n);
  std::pair<ActivationShare, ActivationShare> make_activation(std::size_t m,
                                                              std::size_t n);
  // Correlated material of one training layer with batch b, input width
  // `in` and output width `out`: three masks and their three products.
  std::pair<LayerShare, LayerShare> make_layer(std::size_t b, std::size_t in,
                                               std::size_t out);

  // Generates a whole plan into per-server stores.
  std::pair<TripletStore, TripletStore> generate(
      const std::vector<TripletSpec>& plan);

 private:
  std::uint64_t next_seed();
  // a x b on the configured engine (device from 2^21 flops up in GPU mode).
  MatrixF product(const MatrixF& a, const MatrixF& b);

  sgpu::Device* device_;  // may be null when use_gpu is false
  DealerOptions opts_;
  std::uint64_t seed_state_;
};

}  // namespace psml::mpc
