// triplet-double-consume fixture for the activation material: Z_lo =
// U .* S_lo completes one masked product per activation, so completing a
// second product with it must be flagged. The clean twin uses each member
// once.

void z_lo_double_consume(const ActivationShare& m, const MatrixF& lo,
                         const MatrixF& hi) {
  MatrixF c_lo;
  MatrixF c_hi;
  add(lo, m.z_lo, c_lo);
  add(hi, m.z_lo, c_hi);  // EXPECT: triplet-double-consume
}

void activation_members_once(const ActivationShare& m, const MatrixF& x,
                             const MatrixF& lo, const MatrixF& hi) {
  MatrixF e;
  MatrixF c_lo;
  MatrixF c_hi;
  sub(x, m.u, e);
  add(lo, m.z_lo, c_lo);  // clean: each member completes one product
  add(hi, m.z_hi, c_hi);
}
