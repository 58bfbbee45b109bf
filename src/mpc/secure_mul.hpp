// Secure elementwise (Hadamard) multiplication via Beaver triplets.
//
// Same protocol as secure_matmul with the products replaced by elementwise
// ones:  C_i = (-i) E.*F + X_i.*F + E.*Y_i + Z_i. Used by the SVM hinge
// loss's margin product.
#pragma once

#include <cstdint>

#include "mpc/party.hpp"
#include "tensor/matrix.hpp"

namespace psml::mpc {

MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   const TripletShare& triplet, std::uint64_t comm_key = 0);

// Pops the next elementwise triplet from the party's offline store.
MatrixF secure_mul(PartyContext& ctx, const MatrixF& x_i, const MatrixF& y_i,
                   std::uint64_t comm_key = 0);

}  // namespace psml::mpc
