// psml-taint — cross-translation-unit secret-taint dataflow analyzer and
// Beaver protocol-order checker for ParSecureML-Repro.
//
// Where psml-lint matches single tokens, psml-taint builds a whole-program
// model: every function in the input set is parsed into a statement stream,
// taint is seeded from declared secret sources, propagated through
// assignments / container copies / call summaries to a fixpoint, and flows
// into plaintext sinks are reported unless they pass through a sanctioned
// declassifier. The program model (stripping, function extraction, the taint
// environment, and the signature-keyed cross-TU summaries) lives in
// tools/lint-common/model.* and is shared with psml-ct, so "secret" means
// exactly one thing across the analyzer stack.
//
// Sources (see src/common/taint.hpp for the annotation contract):
//   - values of PSML_SECRET-annotated types (SharePair, TripletShare,
//     ActivationShare, RingTripletShare, TripletStore, ...)
//   - results of PSML_SECRET-annotated functions (share_float, share_ring,
//     random_seed, ...) and of functions whose declared return type is secret
//   - the first argument of PSML_SECRET-annotated void functions (the rng
//     fill_* out-parameter convention)
//   - results of triplet-store accessors (pop_matmul, triplets(), ...)
//
// Sinks:
//   taint-to-log      PSML_* log macros, printf family, std::cout/cerr
//   taint-to-channel  Channel::send / send_matrix / exchange helpers
//   taint-to-persist  ostream .write() serialization (checkpoints)
//
// Declassifiers (taint is dropped):
//   - psml::declassify(x)            explicit, audited escape hatch
//   - reconstruct_float / reconstruct_ring   opening a shared value
//   - subtracting a secret mask: tensor::sub(x, u, e) / ring_sub(x, u) where
//     the subtrahend is itself secret produces a blinded value (the paper's
//     E_i = A_i - U_i masking step)
//   - metadata accessors (.rows(), .size(), .bytes(), ...) — shapes and
//     counts are public
//
// Declassifier misuse is itself checked:
//   useless-declassify      psml::declassify() of a value that is already
//                           public — every declassify call is an audited
//                           escape hatch, so no-op calls dilute the audit
//   reconstruct-before-mask an operand share is opened via reconstruct_*
//                           before (or without) the Beaver masking step in a
//                           function that masks other operands
//
// A second, flow-order pass checks the Beaver protocol shape itself in any
// function that masks with triplet members (.u/.v/.z, and a layer
// material's .v2/.z_dw/.z_dx):
//   send-before-mask        a matrix is exchanged before (or without) being
//                           masked, violating E_i = A_i - U_i before exchange
//   triplet-double-consume  one triplet member feeds two distinct
//                           destinations in the same branch lineage — each
//                           Beaver triplet is single-use
//
// Output: file:line diagnostics plus optional SARIF 2.1.0 (--sarif FILE).
// Shares the justified-allowlist mechanism (and its hard entry budget) with
// psml-lint via tools/lint-common. Heuristic, not a real C++ parser: built on
// stripped source and a brace/paren statement scanner; it aims for useful
// precision on this codebase's idioms, not language completeness.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint_common.hpp"
#include "model.hpp"

namespace fs = std::filesystem;
using psml::lint::AllowEntry;
using psml::lint::ident_char;
using psml::lint::ident_starting_at;
using psml::lint::RuleInfo;
using psml::lint::skip_spaces_fwd;
using psml::lint::Violation;
using namespace psml::lint::model;

namespace {

constexpr std::uint64_t kParamBits = (1ull << kMaxParams) - 1;

struct SendEvent {
  std::vector<std::string> arg_roots;
  std::size_t line = 0;
};

struct ReconstructEvent {
  std::vector<std::string> arg_roots;
  std::size_t line = 0;
};

struct Consumption {
  std::string dest;
  std::vector<int> block_path;
  std::size_t line = 0;
};

class TaintAnalysis : public FlowAnalysis {
 public:
  TaintAnalysis(const Function& fn, Model& model, std::vector<Violation>* sink)
      : FlowAnalysis(fn, model), report_(sink) {}

 private:
  void violate(const std::string& rule, std::size_t line,
               const std::string& msg) {
    if (report_) report_->push_back({fn_.file, line, rule, msg});
  }

  // -- sinks ----------------------------------------------------------------

  // `last_arg_only`: channel sends carry the secret-bearing payload as their
  // final argument; tags and compression keys are protocol metadata, and
  // treating them as sinks would drag every comm_key parameter into the
  // summaries. Log/persist sinks check every argument.
  void check_sink(const std::string& rule, const std::string& sink_desc,
                  const std::string& args_text, std::size_t line,
                  bool last_arg_only = false) {
    const auto args = split_args(args_text);
    for (std::size_t ai = last_arg_only && !args.empty() ? args.size() - 1 : 0;
         ai < args.size(); ++ai) {
      const std::uint64_t t = expr_taint(args[ai]);
      if (t & kSecret) {
        violate(rule, line,
                "secret '" + secret_witness(args[ai]) + "' reaches " +
                    sink_desc +
                    "; mask it with a triplet share (E_i = A_i - U_i), open "
                    "it via reconstruct_*, or wrap it in psml::declassify() "
                    "if the disclosure is intentional");
      }
      for (int b = 0; b < kMaxParams; ++b) {
        if (t & (1ull << b)) {
          summary_.sink_params |= 1ull << b;
          summary_.sink_info.emplace(b, std::make_pair(rule, where(line)));
        }
      }
    }
  }

  // Scans one statement for raw sinks and summary-based call sinks.
  void on_stmt(const Stmt& s) override {
    const std::string& t = s.text;

    static const std::vector<std::string> log_sinks{
        "PSML_TRACE", "PSML_DEBUG", "PSML_INFO", "PSML_WARN",
        "PSML_ERROR", "PSML_LOG",   "printf",    "fprintf",
        "puts",       "fputs"};
    for (const std::string& name : log_sinks) {
      std::size_t pos = 0;
      while ((pos = t.find(name, pos)) != std::string::npos) {
        const std::size_t after = pos + name.size();
        if ((pos > 0 && ident_char(t[pos - 1])) ||
            (after < t.size() && ident_char(t[after]))) {
          pos = after;
          continue;
        }
        const std::size_t open = skip_spaces_fwd(t, after);
        if (open < t.size() && t[open] == '(') {
          const std::size_t end = match_paren(t, open);
          const std::size_t stop =
              end == std::string::npos ? t.size() : end - 1;
          check_sink("taint-to-log", "a log/print sink ('" + name + "')",
                     t.substr(open + 1, stop - open - 1), s.line);
        }
        pos = after;
      }
    }
    if (has_token(t, "cout") || has_token(t, "cerr")) {
      check_sink("taint-to-log", "a console stream", t, s.line);
    }

    // `.send(` / `->send(`: raw channel sink; also a send event for the
    // protocol pass.
    scan_member_sink(s, "send", "taint-to-channel",
                     "a channel send (Channel::send)", /*last_arg_only=*/true);
    scan_member_sink(s, "write", "taint-to-persist",
                     "persistent storage (ostream::write)", false);
    scan_named_sink(s, "send_matrix", "taint-to-channel",
                    "a channel send (net::send_matrix)",
                    /*last_arg_only=*/true);
    scan_named_sink(s, "fwrite", "taint-to-persist",
                    "persistent storage (fwrite)", false);

    // Interprocedural: arguments that land on a sink parameter of a callee.
    std::size_t i = 0;
    while (i < t.size()) {
      if (!ident_char(t[i]) || (t[i] >= '0' && t[i] <= '9')) {
        ++i;
        continue;
      }
      const std::string name = ident_starting_at(t, i);
      const std::size_t open = skip_spaces_fwd(t, i + name.size());
      if (open < t.size() && t[open] == '(') {
        const std::size_t end = match_paren(t, open);
        const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
        const std::string args_text = t.substr(open + 1, stop - open - 1);
        const auto args = split_args(args_text);
        const auto sum = call_summary(name, args_text);
        if (!sum || sum->sink_params == 0) {
          i += name.size();
          continue;
        }
        for (const auto& [idx, info] : sum->sink_info) {
          if (idx >= static_cast<int>(args.size())) continue;
          const std::uint64_t at = expr_taint(args[static_cast<size_t>(idx)]);
          if (at & kSecret) {
            violate(info.first, s.line,
                    "secret '" + secret_witness(args[static_cast<size_t>(idx)]) +
                        "' flows into '" + name + "' (" + info.second +
                        "), which passes it to a plaintext sink; declassify "
                        "or mask before the call");
          }
          for (int b = 0; b < kMaxParams; ++b) {
            if (at & (1ull << b)) {
              summary_.sink_params |= 1ull << b;
              summary_.sink_info.emplace(b, info);
            }
          }
        }
      }
      i += name.size();
    }

    // Declassifier misuse.
    scan_useless_declassify(s);

    // Masking *sources*: `sub(x, u, e)` / `ring_sub(x, u)` with a secret
    // subtrahend blinds x — record the minuend so the protocol pass can
    // tell "opened a value this function masks" from "opened something
    // else" (e.g. the peer's already-masked difference).
    for (const char* mask_fn : {"sub", "sub_par", "ring_sub"}) {
      std::size_t pos = 0;
      while ((pos = t.find(mask_fn, pos)) != std::string::npos) {
        const std::size_t after = pos + std::char_traits<char>::length(mask_fn);
        if ((pos > 0 && ident_char(t[pos - 1])) ||
            (after < t.size() && ident_char(t[after]))) {
          pos = after;
          continue;
        }
        const std::size_t open = skip_spaces_fwd(t, after);
        if (open < t.size() && t[open] == '(') {
          const std::size_t end = match_paren(t, open);
          const std::size_t stop =
              end == std::string::npos ? t.size() : end - 1;
          const auto args = split_args(t.substr(open + 1, stop - open - 1));
          if (args.size() >= 2 && (expr_taint(args[1]) & kSecret)) {
            const std::string src = root_ident(args[0]);
            if (!src.empty() && !mask_src_.count(src)) {
              mask_src_[src] = s.line;
            }
          }
        }
        pos = after;
      }
    }

    // Send / reconstruct events for the protocol-order pass.
    collect_send_event(s, ".send");
    collect_send_event(s, "send_matrix");
    collect_send_event(s, "exchange");
    collect_send_event(s, "exchange_u64");
    collect_reconstruct_event(s, "reconstruct_float");
    collect_reconstruct_event(s, "reconstruct_ring");
  }

  void scan_member_sink(const Stmt& s, const std::string& method,
                        const std::string& rule, const std::string& desc,
                        bool last_arg_only) {
    const std::string& t = s.text;
    std::size_t pos = 0;
    while ((pos = t.find(method, pos)) != std::string::npos) {
      const std::size_t after = pos + method.size();
      const bool member =
          pos > 0 && (t[pos - 1] == '.' ||
                      (pos > 1 && t[pos - 2] == '-' && t[pos - 1] == '>'));
      if (!member || (after < t.size() && ident_char(t[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(t, after);
      if (open < t.size() && t[open] == '(') {
        const std::size_t end = match_paren(t, open);
        const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
        check_sink(rule, desc, t.substr(open + 1, stop - open - 1), s.line,
                   last_arg_only);
      }
      pos = after;
    }
  }

  void scan_named_sink(const Stmt& s, const std::string& name,
                       const std::string& rule, const std::string& desc,
                       bool last_arg_only) {
    const std::string& t = s.text;
    std::size_t pos = 0;
    while ((pos = t.find(name, pos)) != std::string::npos) {
      const std::size_t after = pos + name.size();
      if ((pos > 0 && ident_char(t[pos - 1])) ||
          (after < t.size() && ident_char(t[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(t, after);
      if (open < t.size() && t[open] == '(') {
        const std::size_t end = match_paren(t, open);
        const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
        check_sink(rule, desc, t.substr(open + 1, stop - open - 1), s.line,
                   last_arg_only);
      }
      pos = after;
    }
  }

  // -- declassifier misuse ---------------------------------------------------

  // psml::declassify() is an audited escape hatch; calling it on a value
  // that is provably public already (no secret taint AND no
  // possibly-secret parameter taint) is a no-op that dilutes the audit
  // trail. Values of unknown provenance are left alone.
  void scan_useless_declassify(const Stmt& s) {
    const std::string& t = s.text;
    std::size_t pos = 0;
    while ((pos = t.find("declassify", pos)) != std::string::npos) {
      const std::size_t after = pos + 10;
      if ((pos > 0 && ident_char(t[pos - 1])) ||
          (after < t.size() && ident_char(t[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(t, after);
      if (open >= t.size() || t[open] != '(') {
        pos = after;
        continue;
      }
      const std::size_t end = match_paren(t, open);
      const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
      const std::string inner = trim(t.substr(open + 1, stop - open - 1));
      if (!inner.empty()) {
        const std::uint64_t it = expr_taint(inner);
        if ((it & kSecret) == 0 && (it & kParamBits) == 0) {
          violate("useless-declassify", s.line,
                  "declassify() of already-public value '" +
                      (root_ident(inner).empty() ? inner
                                                 : root_ident(inner)) +
                      "'; declassify calls are audited escape hatches — "
                      "remove the call or declassify at the true "
                      "secret->public transition");
        }
      }
      pos = end == std::string::npos ? t.size() : end;
    }
  }

  // -- protocol-order pass ---------------------------------------------------

  void collect_send_event(const Stmt& s, const std::string& needle) {
    const std::string& t = s.text;
    std::size_t pos = 0;
    while ((pos = t.find(needle, pos)) != std::string::npos) {
      const std::size_t after = pos + needle.size();
      const std::size_t name_begin = needle[0] == '.' ? pos + 1 : pos;
      if ((name_begin > 0 && needle[0] != '.' &&
           ident_char(t[name_begin - 1])) ||
          (after < t.size() && ident_char(t[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(t, after);
      if (open >= t.size() || t[open] != '(') {
        pos = after;
        continue;
      }
      const std::size_t end = match_paren(t, open);
      const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
      SendEvent ev;
      ev.line = s.line;
      for (const std::string& a :
           split_args(t.substr(open + 1, stop - open - 1))) {
        ev.arg_roots.push_back(root_ident(a));
      }
      sends_.push_back(std::move(ev));
      pos = after;
    }
  }

  void collect_reconstruct_event(const Stmt& s, const std::string& name) {
    const std::string& t = s.text;
    std::size_t pos = 0;
    while ((pos = t.find(name, pos)) != std::string::npos) {
      const std::size_t after = pos + name.size();
      if ((pos > 0 && ident_char(t[pos - 1])) ||
          (after < t.size() && ident_char(t[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(t, after);
      if (open >= t.size() || t[open] != '(') {
        pos = after;
        continue;
      }
      const std::size_t end = match_paren(t, open);
      const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
      ReconstructEvent ev;
      ev.line = s.line;
      for (const std::string& a :
           split_args(t.substr(open + 1, stop - open - 1))) {
        ev.arg_roots.push_back(root_ident(a));
      }
      reconstructs_.push_back(std::move(ev));
      pos = after;
    }
  }

  void on_mask(const std::string& dest, std::size_t line,
               bool triplet) override {
    if (dest.empty()) return;
    if (!masked_.count(dest)) masked_[dest] = line;
    if (triplet) triplet_mask_ = true;
  }

  void on_consume(const std::string& member, const std::string& dest,
                  std::size_t line) override {
    if (member.empty() || dest.empty()) return;
    consume_[member].push_back({dest, block_path_, line});
  }

  void after_stmts() override {
    if (triplet_mask_) {
      for (const SendEvent& ev : sends_) {
        for (const std::string& r : ev.arg_roots) {
          if (r.empty()) continue;
          const auto mk = masked_.find(r);
          if (mk != masked_.end()) {
            if (mk->second > ev.line) {
              violate("send-before-mask", ev.line,
                      "'" + r + "' is exchanged before the masking step at " +
                          where(mk->second) +
                          "; the Beaver online phase requires E_i = A_i - "
                          "U_i before the exchange");
            }
            continue;
          }
          const auto vt = var_type_.find(r);
          const bool matrix_typed =
              vt != var_type_.end() &&
              vt->second.find("Matrix") != std::string::npos;
          // Any taint counts here, including positional parameter taint: in
          // the protocol helpers the operand shares arrive as plain MatrixF
          // parameters. Reconstructed/declassified values carry no taint and
          // pass freely.
          const auto et = env_.find(r);
          const bool tainted = et != env_.end() && et->second != 0;
          if (matrix_typed && tainted && !pinned_.count(r)) {
            violate("send-before-mask", ev.line,
                    "'" + r +
                        "' is exchanged without a triplet masking step in a "
                        "function that masks other operands; every secret "
                        "operand must be blinded (E_i = A_i - U_i) first");
          }
        }
      }
      // Opening an *operand* share before it was masked reveals the input
      // itself, not the blinded difference. Two precise triggers: the root
      // is a masking destination created only later (ordering), or the root
      // is itself the minuend of a later masking step (this function blinds
      // it — so opening the raw value first defeats the mask). Values never
      // masked here (result shares, the peer's differences) are exempt.
      for (const ReconstructEvent& ev : reconstructs_) {
        for (const std::string& r : ev.arg_roots) {
          if (r.empty()) continue;
          const auto mk = masked_.find(r);
          if (mk != masked_.end() && mk->second > ev.line) {
            violate("reconstruct-before-mask", ev.line,
                    "'" + r +
                        "' is reconstructed before the masking step at " +
                        where(mk->second) +
                        "; opening an unmasked operand reveals the raw "
                        "share (mask first: E_i = A_i - U_i)");
            continue;
          }
          const auto ms = mask_src_.find(r);
          if (mk == masked_.end() && ms != mask_src_.end() &&
              ms->second > ev.line) {
            violate("reconstruct-before-mask", ev.line,
                    "operand '" + r +
                        "' is reconstructed raw here but masked at " +
                        where(ms->second) +
                        " (E_i = A_i - U_i); opening the unmasked operand "
                        "reveals the raw share");
          }
        }
      }
    }
    for (const auto& [member, uses] : consume_) {
      for (std::size_t a = 0; a < uses.size(); ++a) {
        for (std::size_t b = a + 1; b < uses.size(); ++b) {
          if (uses[a].dest == uses[b].dest) continue;
          // Same branch lineage only: one path must be a prefix of the
          // other, otherwise they are exclusive if/else siblings.
          const auto& pa = uses[a].block_path;
          const auto& pb = uses[b].block_path;
          const std::size_t n = std::min(pa.size(), pb.size());
          if (!std::equal(pa.begin(), pa.begin() + static_cast<long>(n),
                          pb.begin())) {
            continue;
          }
          violate("triplet-double-consume", uses[b].line,
                  "triplet member '" + member + "' already consumed into '" +
                      uses[a].dest + "' at " + where(uses[a].line) +
                      "; each Beaver triplet component is single-use per "
                      "protocol instance");
          break;
        }
      }
    }
  }

  std::vector<Violation>* report_;

  // protocol pass state
  bool triplet_mask_ = false;
  std::map<std::string, std::size_t> masked_;    // dest -> first mask line
  std::map<std::string, std::size_t> mask_src_;  // minuend -> first mask line
  std::map<std::string, std::vector<Consumption>> consume_;
  std::vector<SendEvent> sends_;
  std::vector<ReconstructEvent> reconstructs_;
};

// ---- rule metadata ----------------------------------------------------------

const std::vector<RuleInfo> kRules{
    {"taint-to-log",
     "Secret share/triplet/seed material reaches a log or print sink without "
     "declassification"},
    {"taint-to-channel",
     "Secret material is sent over a channel without triplet masking or "
     "declassification"},
    {"taint-to-persist",
     "Secret material is serialized to persistent storage without "
     "declassification"},
    {"send-before-mask",
     "Operand exchanged before the Beaver masking step (E_i = A_i - U_i must "
     "precede the exchange)"},
    {"reconstruct-before-mask",
     "Operand share opened via reconstruct_* before (or without) the Beaver "
     "masking step"},
    {"triplet-double-consume",
     "A Beaver triplet component is consumed by two destinations; triplets "
     "are single-use"},
    {"useless-declassify",
     "declassify() of an already-public value; no-op declassification "
     "dilutes the audited escape-hatch surface"},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  psml::lint::ReportOptions ropts;
  ropts.tool = "psml-taint";
  fs::path allowlist_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psml-taint: --allowlist needs a file\n");
        return 2;
      }
      allowlist_path = argv[++i];
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psml-taint: --sarif needs a file\n");
        return 2;
      }
      ropts.sarif_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: psml-taint [--allowlist FILE] [--sarif FILE] "
          "DIR-OR-FILE...\n");
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "psml-taint: no inputs (try --help)\n");
    return 2;
  }

  bool allow_ok = true;
  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty()) {
    allow = psml::lint::read_allowlist(allowlist_path, "psml-taint", allow_ok);
    ropts.allowlist_path = allowlist_path;
  }

  const auto files = psml::lint::collect_inputs(roots, "psml-taint");
  if (!files) return 2;

  auto prog = load_program(*files, "psml-taint");
  if (!prog) return 2;

  // Phase 3: summary fixpoint (monotone merge, signature-keyed).
  solve_summaries(*prog, [](const Function& fn, Model& model) {
    return TaintAnalysis(fn, model, nullptr).run();
  });

  // Phase 4: reporting pass.
  std::vector<Violation> violations;
  for (const Function& fn : prog->functions) {
    TaintAnalysis(fn, prog->model, &violations).run();
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  violations.erase(std::unique(violations.begin(), violations.end(),
                               [](const Violation& a, const Violation& b) {
                                 return a.file == b.file && a.line == b.line &&
                                        a.rule == b.rule;
                               }),
                   violations.end());

  return psml::lint::report_and_finish(ropts, kRules, violations, allow,
                                       allow_ok, files->size());
}
