// Shared whole-program model for the flow-sensitive checkers (psml-taint,
// psml-ct): annotation scanning, function extraction over stripped source,
// the taint environment with PSML_SECRET/PSML_PUBLIC seeds and declassifier
// semantics, and signature-keyed cross-TU call summaries solved to a
// fixpoint.
//
// psml-taint layers sink detection and the Beaver protocol-order pass on
// top of FlowAnalysis; psml-ct layers the constant-time CFG pass. Both see
// the exact same expression-taint semantics because there is exactly one
// implementation of them — here.
//
// Everything is heuristic (token-level, not a real C++ parser); see
// docs/ANALYSIS.md §3 for the accuracy contract.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint_common.hpp"

namespace psml::lint::model {

// Taint is a bitmask: bit 63 = definitely-secret, bit 62 = control-dependent
// on a secret branch (implicit flow, set only by psml-ct), bits 0..47 =
// "derived from parameter i" for summary building.
inline constexpr std::uint64_t kSecret = 1ull << 63;
inline constexpr std::uint64_t kImplicit = 1ull << 62;
inline constexpr int kMaxParams = 48;

// ---- program shape ---------------------------------------------------------

struct Stmt {
  enum Kind { kNormal, kBlockOpen, kBlockClose };
  Kind kind = kNormal;
  std::string text;
  std::size_t line = 0;
};

struct Param {
  std::string name;
  std::string type;  // full declarator text
  std::string core;  // normalized core type ("MatrixF", "std size_t", ...)
  bool pinned = false;  // PSML_PUBLIC
  bool secret = false;  // PSML_SECRET
};

struct Function {
  std::string name;
  std::string file;
  std::size_t line = 0;
  std::vector<Param> params;
  std::vector<Stmt> stmts;
};

// Cross-TU call summary. Keyed by the function's normalized parameter-type
// signature ("name/Core1,Core2"), so const/non-const and type-distinct
// overloads never share (and cross-poison) one record; call sites that
// cannot type their arguments fall back to merging every same-name/arity
// candidate, which is conservative but never unsound.
struct Summary {
  bool returns_secret = false;
  // psml-taint: param bits that reach a plaintext sink.
  std::uint64_t sink_params = 0;
  std::map<int, std::pair<std::string, std::string>> sink_info;
  // psml-ct: param bits that reach a non-constant-time construct (branch,
  // memory index, variable-latency op) inside the callee.
  std::uint64_t ct_params = 0;
  std::map<int, std::pair<std::string, std::string>> ct_info;

  void merge_from(const Summary& o);
  bool operator==(const Summary& o) const {
    return returns_secret == o.returns_secret &&
           sink_params == o.sink_params && ct_params == o.ct_params;
  }
};

struct Model {
  std::set<std::string> secret_types;
  std::set<std::string> secret_fns;    // call result is secret
  std::set<std::string> taintout_fns;  // first argument becomes secret
  std::map<std::string, Summary> summaries;  // signature key -> summary
  // "name/arity" -> signature keys of its overloads.
  std::map<std::string, std::vector<std::string>> overloads;

  // Merged summary over the overload candidates of name/arity compatible
  // with `arg_cores` (an empty core is a wildcard). nullopt when no
  // overload of that name/arity is known at all.
  std::optional<Summary> lookup(const std::string& name, std::size_t arity,
                                const std::vector<std::string>& arg_cores)
      const;
};

// The project's seeded sources (share/triplet types, rng fills, sharing
// helpers) — identical for every tool so "secret" means one thing.
Model seeded_model();

// ---- token / expression helpers --------------------------------------------

const std::set<std::string>& keywords();
const std::set<std::string>& metadata_methods();    // .rows() etc: public
const std::set<std::string>& accessor_methods();    // triplet-store pops
const std::set<std::string>& declassifier_fns();    // declassify/reconstruct

bool has_token(const std::string& s, const std::string& tok);
// Position just past the ')' matching the '(' at `open`, or npos.
std::size_t match_paren(const std::string& s, std::size_t open);
// Splits on top-level commas (parens/brackets/braces respected).
std::vector<std::string> split_args(const std::string& s);
std::string trim(const std::string& s);
// First identifier of an expression with namespace qualification skipped.
std::string root_ident(const std::string& s);
// Last identifier with any trailing [subscript] stripped first.
std::string last_ident(const std::string& s);

// Normalized core type of a declarator: qualifier tokens and the trailing
// declared name (when `declared_name` is non-empty and more than one
// candidate token remains) dropped, remaining type tokens space-joined.
std::string core_type(const std::string& decl,
                      const std::string& declared_name);
// Signature key for summary storage: "name/Core1,Core2".
std::string signature_key(const Function& fn);

// ---- phases 1+2: declarations and function extraction ----------------------

void scan_declarations(const std::string& path,
                       const std::vector<std::string>& clean, Model& model);
void scan_secret_returns(const std::vector<std::string>& clean, Model& model);
void extract_functions(const std::string& path,
                       const std::vector<std::string>& clean,
                       const Model& model, std::vector<Function>& out);

// Whole-program container: every input file stripped, the seeded+scanned
// model, and every extracted function body.
struct Program {
  std::vector<std::pair<std::string, std::vector<std::string>>> stripped;
  Model model;
  std::vector<Function> functions;
};

// Loads, strips, scans, and extracts all files. nullopt (with a message on
// stderr) when a file is unreadable.
std::optional<Program> load_program(
    const std::vector<std::filesystem::path>& files, const char* tool);

// ---- per-function dataflow engine ------------------------------------------

// Seeds parameters, walks the statement stream updating the taint
// environment (assignments, declarations, range-for bindings, rng fills,
// tensor out-parameter ops, declassifier laundering, ring_sub masking), and
// produces the function's Summary. Tools subclass and hook:
//
//   on_stmt         every processed statement, before its env updates
//   on_block_open   after the block-opening statement is processed
//   on_block_close  a '}' was consumed
//   after_stmts     end of body (protocol-order pass lives here)
//   implicit_taint  extra taint ORed into every value written while a
//                   secret-controlled region is open (psml-ct)
//   on_mask/on_consume  Beaver masking / triplet-consumption events
class FlowAnalysis {
 public:
  FlowAnalysis(const Function& fn, Model& model);
  virtual ~FlowAnalysis() = default;

  Summary run();

 protected:
  virtual void on_stmt(const Stmt&) {}
  virtual void on_block_open(const Stmt&) {}
  virtual void on_block_close() {}
  virtual void after_stmts() {}
  virtual std::uint64_t implicit_taint() const { return 0; }
  // `dest` was masked by subtracting a secret (a triplet member or a
  // PSML_SECRET mask share).
  virtual void on_mask(const std::string& /*dest*/, std::size_t /*line*/) {}
  virtual void on_consume(const std::string& /*member*/,
                          const std::string& /*dest*/, std::size_t /*line*/) {}

  // Conservative expression taint: OR over identifier chains, with
  // declassifier blanking and ring_sub masking applied first.
  std::uint64_t expr_taint(const std::string& raw, int depth = 0);
  // First chain in `raw` that contributes kSecret, for diagnostics.
  std::string secret_witness(const std::string& raw);
  // Blanks every `name(...)` span for declassifier functions.
  std::string blank_declassifiers(std::string s) const;
  // Taint of a member/method chain rooted at `root`; advances *next.
  std::uint64_t chain_taint(const std::string& s, std::size_t ident_begin,
                            const std::string& root, std::size_t* next);
  // Triplet-member expression (`root.u/.v/.z`, or a layer material's
  // `.v2/.z_dw/.z_dx`) with a plausible triplet root, or "".
  std::string triplet_member(const std::string& text) const;
  // Signature-aware summary lookup for a call `name(args_text)`: argument
  // core types are resolved through var_type_ when an argument is a bare
  // identifier.
  std::optional<Summary> call_summary(const std::string& name,
                                      const std::string& args_text) const;
  std::vector<std::string> arg_cores(const std::string& args_text) const;
  // Known core type of a bare-identifier expression, or "".
  std::string expr_core(const std::string& expr) const;

  std::string where(std::size_t line) const;

  static std::size_t top_level_assign(const std::string& t);
  static bool is_compound(const std::string& t, std::size_t eq);
  static std::vector<std::string> binding_names(const std::string& lhs);

  const Function& fn_;
  Model& model_;
  Summary summary_;
  std::map<std::string, std::uint64_t> env_;
  std::set<std::string> pinned_;
  std::map<std::string, std::string> var_type_;
  std::vector<int> block_path_;

 private:
  void process(const Stmt& s);
  void handle_assignment(const Stmt& s, const std::string& lhs,
                         const std::string& rhs, bool compound);
  void handle_declaration_or_call(const Stmt& s);

  int next_block_id_ = 0;
};

// Runs `analyze` over every function until the summary map stops changing
// (bounded monotone iteration; summaries only grow).
void solve_summaries(Program& prog,
                     Summary (*analyze)(const Function&, Model&));

}  // namespace psml::lint::model
