#include "ml/secure/party_state.hpp"

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/taint.hpp"
#include "ml/checkpoint.hpp"

namespace psml::ml {

PartyState PartyState::capture(mpc::PartyContext& ctx,
                               SecureSequential& model) {
  PartyState st;
  std::ostringstream os(std::ios::binary);
  save_share_snapshot(os, model);
  if (!os.good()) {
    throw IOError("party state: snapshot serialization failure");
  }
  const std::string body = os.str();
  st.shares.assign(body.begin(), body.end());
  // declassify(): Mark holds cursor *positions* — how many offline entries
  // each deque has consumed — which both parties already know from their
  // shared SPMD schedule. No share words flow through it (audited in
  // docs/ANALYSIS.md §10).
  st.cursors = psml::declassify(ctx.triplets().mark());
  st.seq = ctx.peek_seq();
  return st;
}

void PartyState::restore(mpc::PartyContext& ctx,
                         SecureSequential& model) const {
  ctx.engine().drain();
  std::istringstream is(std::string(shares.begin(), shares.end()),
                        std::ios::binary);
  load_share_snapshot(is, model);
  ctx.triplets().rewind(cursors);
  ctx.resync_seq(seq);
  ctx.compressed().reset_baselines();
}

}  // namespace psml::ml
