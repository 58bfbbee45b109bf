// Secure piecewise-linear activation (paper Sec. 4.2, Eq. 9).
//
//            { 0        x < -1/2
//   f(x) =   { x + 1/2  -1/2 <= x <= 1/2
//            { 1        x > 1/2
//
// The servers hold additive shares x_i of the pre-activation X and must end
// with shares of f(X). The nonlinearity reduces to two comparisons per
// element: X vs -1/2 and X vs +1/2. We use dealer-assisted masked sign
// reveal in two rounds. The offline material holds shares of a mask U of X,
// of two secret random *positive* masks S_lo and S_hi, and of
// Z_lo = U .* S_lo and Z_hi = U .* S_hi. Online, the servers open
// E = X - U once; each then computes, locally,
//   C_lo,i = (E + 1/2) .* S_lo,i + Z_lo,i,  C_hi,i = (E - 1/2) .* S_hi,i + Z_hi,i
// and both C's are opened in one frame: C_lo = (X + 1/2) .* S_lo and
// C_hi = (X - 1/2) .* S_hi. S is dealer randomness standing in the Beaver
// V's place, so nothing about it is opened. Since S > 0, sign(C) is the
// sign of X +- 1/2, so both servers learn which side of each threshold each
// element lies on — the same region information that any piecewise
// evaluation (including the reference implementation's) exposes — while
// |X +- 1/2| stays scaled by an unknown S (docs/ANALYSIS.md §14).
// f(X) is then linear per region:
//   middle:  f = X + 1/2  ->  share_i = x_i + i * 1/2
//   low:     f = 0        ->  share_i = 0
//   high:    f = 1        ->  share_i = i
// The derivative mask (for backprop) is public per region: 1 in the middle,
// 0 outside. Both opens are raw dense sends: a pre-activation changes every
// step, so its E never compresses.
#pragma once

#include "mpc/party.hpp"
#include "tensor/matrix.hpp"

namespace psml::mpc {

struct ActivationResult {
  MatrixF value_share;  // share of f(X)
  MatrixF grad_mask;    // public region mask: f'(X) in {0, 1}
};

ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i,
                                   const ActivationShare& material);

// Pops the next activation material from the party's offline store.
ActivationResult secure_activation(PartyContext& ctx, const MatrixF& x_i);

// Public comparison mask [X < c] from shares of X via one masked-sign
// reveal (the same two rounds), consuming the `u`/`s_lo`/`z_lo` part of an
// ActivationShare. Used by the SVM hinge loss (margin test) — both servers
// learn the boolean mask, the same leakage profile as the activation
// protocol.
MatrixF secure_less_than(PartyContext& ctx, const MatrixF& x_i, float c,
                         const ActivationShare& material);

// Plaintext reference of Eq. 9 (used by tests and the plaintext models).
MatrixF activation_ref(const MatrixF& x);
MatrixF activation_grad_ref(const MatrixF& x);

}  // namespace psml::mpc
