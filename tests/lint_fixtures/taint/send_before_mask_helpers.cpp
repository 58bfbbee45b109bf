// send-before-mask through the open helpers and with a mask-share
// parameter: exchange_pair, open_shares and send_pair put their matrix
// arguments on the wire like Channel::send, and subtracting a PSML_SECRET
// mask-share parameter arms the rule like subtracting a triplet member.

void open_pair_raw(PartyContext& ctx, const MatrixF& a_i, const MatrixF& b_i,
                   const TripletShare& t) {
  MatrixF e_i, f_i;
  sub(a_i, t.u, e_i);
  sub(b_i, t.v, f_i);
  exchange_pair(ctx, 1, 1, a_i, 2, f_i);  // EXPECT: send-before-mask
}

void open_pair_masked(PartyContext& ctx, const MatrixF& a_i,
                      const MatrixF& b_i, const TripletShare& t) {
  MatrixF e_i, f_i;
  sub(a_i, t.u, e_i);
  sub(b_i, t.v, f_i);
  exchange_pair(ctx, 1, 1, e_i, 2, f_i);  // clean: both halves masked
}

MatrixF open_input_raw(PartyContext& ctx, const MatrixF& x_i,
                       PSML_SECRET const MatrixF& u_i) {
  MatrixF e_i;
  sub(x_i, u_i, e_i);
  return open_shares(ctx, x_i, 7);  // EXPECT: send-before-mask
}

MatrixF open_input_masked(PartyContext& ctx, const MatrixF& x_i,
                          PSML_SECRET const MatrixF& u_i) {
  MatrixF e_i;
  sub(x_i, u_i, e_i);
  return open_shares(ctx, e_i, 7);  // clean: E = X - U
}

void send_pair_raw(Endpoint& ep, const MatrixF& share,
                   PSML_SECRET const MatrixF& mask_share) {
  MatrixF diff;
  sub(share, mask_share, diff);
  ep.send_pair(3, 1, share, 2, diff);  // EXPECT: send-before-mask
}

void send_pair_masked(Endpoint& ep, const MatrixF& a, const MatrixF& b,
                      PSML_SECRET const MatrixF& mask_a,
                      PSML_SECRET const MatrixF& mask_b) {
  MatrixF da, db;
  sub(a, mask_a, da);
  sub(b, mask_b, db);
  ep.send_pair(3, 1, da, 2, db);  // clean: both differences masked
}
