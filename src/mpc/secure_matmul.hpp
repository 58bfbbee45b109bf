// Secure matrix multiplication — the online phase of the triplet protocol
// (paper Sec. 2.2 Eqs. 4-6, Sec. 4.2 Eq. 8, Sec. 4.3 Fig. 5).
//
// Both servers call secure_matmul with their shares A_i, B_i and a matmul
// triplet; each obtains C_i with C_0 + C_1 = A x B. The execution path is
// selected by the PartyOptions:
//
//   reconstruct ("compute1" + "communicate"):
//     E_i = A_i - U_i, F_i = B_i - V_i, exchanged with the peer (optionally
//     delta-CSR compressed) and summed to E, F. Always on the CPU — the
//     paper found GPU offload of this step counterproductive.
//
//   GPU operation ("compute2"):
//     C_i = ((-i) E + A_i) x F + E x B_i + Z_i     (fused Eq. 8)
//     run on the simulated device, with the Fig. 5 pipeline overlapping the
//     H2D transfers of F, B_i, Z_i with the kernels, or on the CPU when the
//     adaptive dispatcher predicts the CPU wins (small workloads).
#pragma once

#include <cstdint>

#include "common/taint.hpp"
#include "mpc/party.hpp"
#include "tensor/matrix.hpp"

namespace psml::mpc {

// `comm_key` identifies the logical tensor stream for delta compression; use
// compress::stream_key(layer, phase, operand) and keep it stable across
// epochs. 0 derives a one-shot key from the op sequence number (compression
// still works within repeated calls only if keys repeat).
MatrixF secure_matmul(PartyContext& ctx, const MatrixF& a_i,
                      const MatrixF& b_i, const TripletShare& triplet,
                      std::uint64_t comm_key = 0);

// Pops the next matmul triplet from the party's offline store.
MatrixF secure_matmul(PartyContext& ctx, const MatrixF& a_i,
                      const MatrixF& b_i, std::uint64_t comm_key = 0);

// The reconstruct step alone (E, F from shares): exposed for the secure
// layers, which keep a training step's forward E and F for its backward
// products (the kLayer material, docs/PROTOCOL.md §5).
struct Reconstructed {
  MatrixF e, f;
};
Reconstructed reconstruct_ef(PartyContext& ctx, const MatrixF& a_i,
                             const MatrixF& b_i, const TripletShare& triplet,
                             std::uint64_t comm_key);

// The compute step alone, given reconstructed E/F and the share Z_i of the
// masks' product: C_i of Eq. 6 / Eq. 8.
MatrixF compute_ci(PartyContext& ctx, const Reconstructed& ef,
                   const MatrixF& a_i, const MatrixF& b_i, const MatrixF& z_i);

// Opens one masked operand: both parties exchange share - mask_share and
// sum. A layer's backward pass opens F' = dY - V2 with it. `tag` must be
// drawn from ctx.next_seq() so both servers' tag sequences agree.
MatrixF open_operand(PartyContext& ctx, const MatrixF& share_minus_mask_of,
                     PSML_SECRET const MatrixF& mask_share, net::Tag tag,
                     std::uint64_t comm_key);

// Share refresh for the float-share mode. Composed Beaver multiplications
// grow share magnitudes multiplicatively (the A_i x F term scales with the
// magnitude of the input *share*, not the input), and float reconstruction
// loses |share| * eps per element — after a few training epochs the weight
// shares outgrow float precision entirely. refresh_share re-randomizes a
// share pair back to the kFloatMaskRadius scale with one message:
//   party 0: draw fresh r, send x_0 - r, keep r.
//   party 1: keep x_1 + (x_0 - r).
// The message is masked by the fresh r exactly as strongly as the original
// sharing. Ring-mode shares are uniform over Z_2^64 and never need this —
// see DESIGN.md §6. Applied by the secure layers to weight gradients before
// each update.
MatrixF refresh_share(PartyContext& ctx, const MatrixF& x_i);

}  // namespace psml::mpc
