// triplet-double-consume fixture for a training layer's correlated
// material: V2 masks dY once per step (F' = dY - V2), so masking a second
// value with it must be flagged. The clean twin masks each opened value
// with its own member.

void v2_double_consume(const LayerShare& m, const MatrixF& dy,
                       const MatrixF& dx) {
  MatrixF f_dy;
  MatrixF f_dx;
  sub(dy, m.v2, f_dy);
  sub(dx, m.v2, f_dx);  // EXPECT: triplet-double-consume
}

void layer_masks_once(const LayerShare& m, const MatrixF& x,
                      const MatrixF& w, const MatrixF& dy) {
  MatrixF e;
  MatrixF f;
  MatrixF f_dy;
  sub(x, m.u, e);
  sub(w, m.v, f);
  sub(dy, m.v2, f_dy);  // clean: each mask masks one opened value
}
