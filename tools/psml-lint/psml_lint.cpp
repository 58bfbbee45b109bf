// psml-lint — project-specific static checker for ParSecureML-Repro.
//
// Enforces project-specific rules a generic linter cannot express because
// they encode MPC-protocol and library-architecture invariants (the later
// rules — raw-thread-spawn, raw-socket-io, durable-io — are documented at
// their check functions below):
//
//   ring-raw-arith   No raw +/-/* on ring share words (MatrixU64 values)
//                    outside src/mpc/ring.*. Share arithmetic must go through
//                    ring_add/ring_sub/ring_matmul/truncate_share so that
//                    wraparound semantics and truncation stay in one audited
//                    place. Tracks `using`/`typedef` aliases of MatrixU64 and
//                    auto/auto& bindings to tracked variables, so renaming a
//                    share type or taking a reference cannot dodge the rule.
//   rng-outside-rng  No rand()/srand()/std::mt19937/std::random_device
//                    outside src/rng/. Secret shares and masks must come from
//                    the Philox/seeded generators in src/rng so randomness is
//                    reproducible and never silently correlated.
//   secret-logging   No logging/printing of share, triplet, mask, or seed
//                    material from secure code paths (src/mpc, src/ml/secure,
//                    src/parsecureml, src/compress). A debug print of a share
//                    buffer is a secret leak.
//   naked-thread     No std::thread construction outside the owned
//                    concurrency primitives (common/thread_pool, sgpu/stream,
//                    src/net). Ad-hoc threads dodge the shutdown/exception
//                    discipline those wrappers provide.
//
// Diagnostics are file:line with a rule tag, plus optional SARIF 2.1.0
// (--sarif FILE) for CI annotation upload. A violation can be suppressed by
// an allowlist entry ("<rule> <path-suffix> <justification>"); unused entries
// are themselves an error so the allowlist cannot rot, and the list is
// hard-capped at lint::kAllowlistBudget entries.
//
// The checker is line/token-heuristic, not a real C++ parser: comments,
// string literals (including raw strings), and char literals are stripped
// before matching (tools/lint-common). For flow-sensitive secret tracking see
// the companion tool tools/psml-taint.

#include <cstdio>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_common.hpp"

namespace fs = std::filesystem;
using psml::lint::AllowEntry;
using psml::lint::ident_char;
using psml::lint::ident_ending_at;
using psml::lint::ident_starting_at;
using psml::lint::path_contains;
using psml::lint::path_ends_with;
using psml::lint::RuleInfo;
using psml::lint::skip_spaces_back;
using psml::lint::skip_spaces_fwd;
using psml::lint::Violation;

namespace {

// ---- rule: ring-raw-arith ---------------------------------------------------

// Collects the set of type names that denote MatrixU64 in this file:
// MatrixU64 itself plus every `using X = MatrixU64;` / `typedef MatrixU64 X;`
// chain (aliases of aliases included, iterated to fixpoint).
std::set<std::string> collect_ring_types(const std::vector<std::string>& lines) {
  std::set<std::string> types{"MatrixU64"};
  static const std::regex using_re(
      R"(\busing\s+(\w+)\s*=\s*(?:psml::)?(?:tensor::)?(\w+)\s*;)");
  static const std::regex typedef_re(
      R"(\btypedef\s+(?:psml::)?(?:tensor::)?(\w+)\s+(\w+)\s*;)");
  bool grew = true;
  while (grew) {
    grew = false;
    for (const std::string& line : lines) {
      std::smatch m;
      if (std::regex_search(line, m, using_re) && types.count(m[2].str())) {
        grew |= types.insert(m[1].str()).second;
      }
      if (std::regex_search(line, m, typedef_re) && types.count(m[1].str())) {
        grew |= types.insert(m[2].str()).second;
      }
    }
  }
  return types;
}

// Collects names declared with a ring type in this file (parameters and
// locals; comma-chained declarators included), plus auto/auto& bindings to
// already-tracked names (reference bindings would otherwise escape the
// rule). Function names that *return* a ring type also land in the registry,
// which is harmless: a name directly followed by '(' is never treated as an
// operand.
std::set<std::string> collect_ring_vars(const std::vector<std::string>& lines,
                                        const std::set<std::string>& types) {
  std::set<std::string> vars;
  for (const std::string& line : lines) {
    for (const std::string& type : types) {
      std::size_t pos = 0;
      while ((pos = line.find(type, pos)) != std::string::npos) {
        // Reject identifiers that merely contain the token (e.g.
        // MatrixU64Ptr).
        const std::size_t after = pos + type.size();
        if ((pos > 0 && ident_char(line[pos - 1])) ||
            (after < line.size() && ident_char(line[after]))) {
          pos = after;
          continue;
        }
        std::size_t i = skip_spaces_fwd(line, after);
        // `using X = MatrixU64;` — the name *left* of '=' is an alias (in
        // the type registry), not a variable.
        if (i < line.size() && (line[i] == '=' || line[i] == ';')) {
          pos = after;
          continue;
        }
        while (i < line.size() && (line[i] == '&' || line[i] == '*')) ++i;
        i = skip_spaces_fwd(line, i);
        for (;;) {
          const std::string name = ident_starting_at(line, i);
          if (name.empty()) break;
          vars.insert(name);
          i += name.size();
          i = skip_spaces_fwd(line, i);
          // Skip an initializer / constructor-call to find a chained
          // declarator.
          if (i < line.size() && line[i] == '(') {
            int depth = 0;
            while (i < line.size()) {
              if (line[i] == '(') ++depth;
              if (line[i] == ')' && --depth == 0) {
                ++i;
                break;
              }
              ++i;
            }
            i = skip_spaces_fwd(line, i);
          } else if (i < line.size() && line[i] == '=') {
            while (i < line.size() && line[i] != ',' && line[i] != ';') ++i;
          }
          if (i < line.size() && line[i] == ',') {
            i = skip_spaces_fwd(line, i + 1);
            // Step over cv-qualifiers.
            while (true) {
              const std::string word = ident_starting_at(line, i);
              if (word == "const" || word == "volatile") {
                i = skip_spaces_fwd(line, i + word.size());
              } else {
                break;
              }
            }
            // Only a chained *declarator* continues the walk. In a parameter
            // list the comma introduces a fresh type (`MatrixU64& out,
            // std::uint64_t seed`), recognizable by a second identifier or a
            // '::' after the first one — stop there.
            const std::string peek = ident_starting_at(line, i);
            const std::size_t after_peek =
                skip_spaces_fwd(line, i + peek.size());
            if (!peek.empty() && after_peek < line.size() &&
                (ident_char(line[after_peek]) || line[after_peek] == ':' ||
                 line[after_peek] == '&' || line[after_peek] == '*')) {
              break;
            }
            continue;
          }
          break;
        }
        pos = after;
      }
    }
  }
  vars.erase("const");
  vars.erase("volatile");

  // auto / auto& / const auto& bindings whose initializer is exactly a
  // tracked variable adopt its ring-ness (`auto body = m.serialize();` must
  // NOT — the serialized bytes are not a ring matrix, so the initializer has
  // to be the bare name). Fixpoint so chains of bindings (auto& a = m;
  // auto& b = a;) are all caught.
  static const std::regex auto_bind(
      R"(\bauto\s*(?:const\s*)?[&]?\s*(\w+)\s*=\s*(\w+)\s*;)");
  bool grew = true;
  while (grew) {
    grew = false;
    for (const std::string& line : lines) {
      auto begin = std::sregex_iterator(line.begin(), line.end(), auto_bind);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (vars.count((*it)[2].str())) {
          grew |= vars.insert((*it)[1].str()).second;
        }
      }
    }
  }
  return vars;
}

// Resolves the operand to the *left* of operator position `op` to a matrix
// variable name, handling `name` and `name.data()[...]` shapes.
std::string left_operand_var(const std::string& s, std::size_t op,
                             const std::set<std::string>& vars) {
  if (op == 0) return {};
  std::size_t i = skip_spaces_back(s, op - 1);
  if (i == std::string::npos) return {};
  if (s[i] == ']') {
    // name.data()[...]  — walk back over the subscript.
    int depth = 0;
    while (true) {
      if (s[i] == ']') ++depth;
      if (s[i] == '[' && --depth == 0) break;
      if (i == 0) return {};
      --i;
    }
    if (i == 0) return {};
    i = skip_spaces_back(s, i - 1);
    if (i == std::string::npos || s[i] != ')') {
      // Plain subscript ident[...]: resolve the array identifier itself.
      const std::string name = ident_ending_at(s, i);
      return vars.count(name) ? name : std::string{};
    }
    // ...data()[  — walk back over the call parens.
    int pd = 0;
    while (true) {
      if (s[i] == ')') ++pd;
      if (s[i] == '(' && --pd == 0) break;
      if (i == 0) return {};
      --i;
    }
    if (i == 0) return {};
    i = skip_spaces_back(s, i - 1);
    const std::string fn = ident_ending_at(s, i);
    if (fn != "data") return {};
    i -= fn.size();
    if (i == 0 || s[i - 1] != '.') return {};
    const std::string name = ident_ending_at(s, i - 2);
    return vars.count(name) ? name : std::string{};
  }
  if (ident_char(s[i])) {
    const std::string name = ident_ending_at(s, i);
    // Reject members of some other object (foo.m) and qualified names.
    const std::size_t b = i + 1 - name.size();
    if (b > 0 && (s[b - 1] == '.' || s[b - 1] == ':')) return {};
    return vars.count(name) ? name : std::string{};
  }
  return {};
}

std::string right_operand_var(const std::string& s, std::size_t after_op,
                              const std::set<std::string>& vars) {
  const std::size_t i = skip_spaces_fwd(s, after_op);
  if (i >= s.size() || !ident_char(s[i])) return {};
  const std::string name = ident_starting_at(s, i);
  if (!vars.count(name)) return {};
  const std::size_t j = skip_spaces_fwd(s, i + name.size());
  if (j < s.size() && s[j] == '(') return {};  // function call, not a var
  if (j < s.size() && s[j] == '.') {
    // Member access: only name.data()[...] is a use of the share words
    // themselves; name.rows() / name.bytes() etc. are metadata.
    static const std::regex data_sub(R"(^\.\s*data\s*\(\s*\)\s*\[)");
    if (!std::regex_search(s.substr(j), data_sub)) return {};
  }
  return name;
}

void check_ring_arith(const std::string& path,
                      const std::vector<std::string>& clean,
                      std::vector<Violation>& out) {
  if (path_ends_with(path, "mpc/ring.cpp") ||
      path_ends_with(path, "mpc/ring.hpp")) {
    return;  // the one audited home of raw ring-word arithmetic
  }
  const std::set<std::string> types = collect_ring_types(clean);
  const std::set<std::string> vars = collect_ring_vars(clean, types);
  if (vars.empty()) return;

  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    const std::string& s = clean[ln];
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c != '+' && c != '-' && c != '*') continue;
      const char prev = i > 0 ? s[i - 1] : '\0';
      const char next = i + 1 < s.size() ? s[i + 1] : '\0';
      if (next == c || prev == c) continue;           // ++ -- (and **)
      if (c == '-' && next == '>') continue;          // ->
      if (c == '*' && (prev == '(' || next == ')')) continue;  // casts/deref
      // Unary context: operator preceded by another operator or open paren.
      const std::size_t lp = skip_spaces_back(s, i == 0 ? 0 : i - 1);
      if (i == 0 || lp == std::string::npos) continue;
      const char lc = s[lp];
      const bool compound = next == '=';
      if (std::string("(,=<>?:&|!+-*/%^{[;").find(lc) != std::string::npos) {
        continue;  // unary +/-/deref — not share arithmetic
      }
      const std::string lv = left_operand_var(s, i, vars);
      const std::string rv =
          right_operand_var(s, i + (compound ? 2 : 1), vars);
      const std::string hit = !lv.empty() ? lv : rv;
      if (hit.empty()) continue;
      std::ostringstream msg;
      msg << "raw '" << c << (compound ? "=" : "")
          << "' on ring share word '" << hit
          << "' — use psml::mpc ring ops (ring_add/ring_sub/ring_matmul/"
             "truncate_share) so Z_2^64 semantics stay audited in mpc/ring.*";
      out.push_back({path, ln + 1, "ring-raw-arith", msg.str()});
    }
  }
}

// ---- rule: rng-outside-rng --------------------------------------------------

void check_rng(const std::string& path, const std::vector<std::string>& clean,
               std::vector<Violation>& out) {
  if (path_contains(path, "src/rng/") || path_contains(path, "/rng/")) return;
  static const std::regex re(
      R"((^|[^\w])(s?rand\s*\(|mt19937(_64)?\b|random_device\b))");
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (std::regex_search(clean[ln], re)) {
      out.push_back({path, ln + 1, "rng-outside-rng",
                     "raw C/std randomness outside src/rng/ — secret shares "
                     "and masks must come from psml::rng (Philox / seeded "
                     "generators)"});
    }
  }
}

// ---- rule: secret-logging ---------------------------------------------------

bool in_secure_path(const std::string& path) {
  return path_contains(path, "src/mpc/") ||
         path_contains(path, "src/ml/secure/") ||
         path_contains(path, "src/parsecureml/") ||
         path_contains(path, "src/compress/");
}

void check_secret_logging(const std::string& path,
                          const std::vector<std::string>& clean,
                          std::vector<Violation>& out) {
  if (!in_secure_path(path)) return;
  static const std::regex sink(
      R"(\b(printf|fprintf|puts|fputs|std::cout|std::cerr|PSML_TRACE|PSML_DEBUG|PSML_INFO|PSML_WARN|PSML_ERROR|PSML_LOG)\b)");
  static const std::regex secret(
      R"(share|triplet|secret|mask|seed|\.s0\b|\.s1\b|\.data\s*\()",
      std::regex::icase);
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (!std::regex_search(clean[ln], sink)) continue;
    // Gather the full statement (to the terminating ';'), capped at 10 lines.
    std::string stmt;
    for (std::size_t j = ln; j < clean.size() && j < ln + 10; ++j) {
      stmt += clean[j];
      stmt += ' ';
      if (clean[j].find(';') != std::string::npos) break;
    }
    if (std::regex_search(stmt, secret)) {
      out.push_back({path, ln + 1, "secret-logging",
                     "logging/printing references share/triplet/mask/seed "
                     "material in a secure code path — a debug print of "
                     "secret-shared data is a leak"});
    }
  }
}

// ---- rule: naked-thread -----------------------------------------------------

bool thread_owner_file(const std::string& path) {
  return path_ends_with(path, "common/thread_pool.hpp") ||
         path_ends_with(path, "common/thread_pool.cpp") ||
         path_ends_with(path, "sgpu/stream.hpp") ||
         path_ends_with(path, "sgpu/stream.cpp") ||
         path_contains(path, "src/net/");
}

void check_naked_thread(const std::string& path,
                        const std::vector<std::string>& clean,
                        std::vector<Violation>& out) {
  if (thread_owner_file(path)) return;
  // std::thread not followed by :: (so std::thread::id and
  // std::thread::hardware_concurrency stay legal), plus pthread_create.
  static const std::regex re(R"(std::j?thread\b(?!\s*::)|\bpthread_create\b)");
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (std::regex_search(clean[ln], re)) {
      out.push_back({path, ln + 1, "naked-thread",
                     "raw thread construction outside the owned concurrency "
                     "primitives — use ThreadPool, sgpu::Stream, or a "
                     "channel backend so shutdown and exception "
                     "propagation stay centralized"});
    }
  }
}

// ---- rule: raw-thread-spawn -------------------------------------------------

// Stricter companion to naked-thread: flags the actual *spawn expressions*
// (std::thread constructed with a callable, pthread_create) everywhere but
// the pooled executors the scheduler work depends on — common/thread_pool.*
// and src/pipeline/. naked-thread polices where the std::thread type may
// appear at all; this rule polices where new OS threads may be born, so
// future server code is forced through ThreadPool even in files that
// legitimately mention the type.
bool spawn_owner_file(const std::string& path) {
  return path_ends_with(path, "common/thread_pool.hpp") ||
         path_ends_with(path, "common/thread_pool.cpp") ||
         path_contains(path, "src/pipeline/");
}

void check_raw_thread_spawn(const std::string& path,
                            const std::vector<std::string>& clean,
                            std::vector<Violation>& out) {
  if (spawn_owner_file(path)) return;
  // `std::thread t(...)`, `std::thread t{...}`, a bare `std::thread(...)`
  // temporary, or pthread_create. Member declarations (`std::thread
  // worker_;`) and nested types (`std::thread::id`) have no construction
  // parens and stay legal.
  static const std::regex re(
      R"(std::j?thread\s+\w+\s*[({]|std::j?thread\s*[({]|\bpthread_create\s*\()");
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (std::regex_search(clean[ln], re)) {
      out.push_back({path, ln + 1, "raw-thread-spawn",
                     "direct thread spawn outside common/thread_pool and "
                     "src/pipeline/ — submit work to ThreadPool so the "
                     "pooled executors own every OS thread"});
    }
  }
}

// ---- rule: raw-socket-io ----------------------------------------------------

// Socket syscalls bypass Channel framing — checksums, sequencing, reconnect,
// and the zero-copy WireBuf path — so only the net backends may touch them.
// `::send(` / `::recv(` must be the global-namespace syscalls: a preceding
// identifier character or ':' means a qualified method (Endpoint::send,
// Channel::recv) and stays legal, as do member calls (`ch.send(`), which have
// no `::` at all. The iovec family has no method homonyms in this codebase,
// so bare identifiers are flagged.
void check_raw_socket_io(const std::string& path,
                         const std::vector<std::string>& clean,
                         std::vector<Violation>& out) {
  if (path_contains(path, "src/net/")) return;
  static const std::regex re(
      R"((^|[^A-Za-z0-9_:])::(send|recv|sendto|recvfrom)\s*\()"
      R"(|\b(writev|readv|sendmsg|recvmsg)\s*\()");
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (std::regex_search(clean[ln], re)) {
      out.push_back({path, ln + 1, "raw-socket-io",
                     "raw socket I/O outside src/net/ — go through a "
                     "net::Channel so framing, checksums, and reconnect "
                     "semantics stay in one place"});
    }
  }
}

// ---- rule: durable-io -------------------------------------------------------

// Direct-to-destination persistence (std::ofstream, fwrite, fopen) tears on
// crash: a process dying mid-write leaves a truncated or half-updated file
// at the final path, and nothing detects it on load. common/durable_io is
// the one audited writer (temp file + fsync + atomic rename + CRC-framed
// sections), so every other file must route persistence through it.
void check_durable_io(const std::string& path,
                      const std::vector<std::string>& clean,
                      std::vector<Violation>& out) {
  if (path_contains(path, "common/durable_io")) return;
  // String literals are stripped before matching, so fopen's mode is not
  // visible — every fopen is flagged (read-only FILE* use has std::ifstream
  // and durable_io::read_file as sanctioned alternatives).
  static const std::regex re(
      R"(\bstd::ofstream\b|\bfwrite\s*\(|(^|[^\w:])fopen\s*\()");
  for (std::size_t ln = 0; ln < clean.size(); ++ln) {
    if (std::regex_search(clean[ln], re)) {
      out.push_back({path, ln + 1, "durable-io",
                     "direct-to-destination file write outside "
                     "common/durable_io — a crash mid-write tears the file; "
                     "use durable_io (temp + fsync + atomic rename + "
                     "CRC-framed sections) so loads detect corruption"});
    }
  }
}

const std::vector<RuleInfo> kRules = {
    {"ring-raw-arith",
     "Raw +/-/* on ring share words outside src/mpc/ring.* — use the audited "
     "ring ops"},
    {"rng-outside-rng",
     "Raw C/std randomness outside src/rng/ — use the seeded psml::rng "
     "facade"},
    {"secret-logging",
     "Log/print references share/triplet/mask/seed material in a secure code "
     "path"},
    {"naked-thread",
     "Raw thread construction outside the owned concurrency primitives"},
    {"raw-thread-spawn",
     "Thread spawn expression outside common/thread_pool and src/pipeline/ — "
     "use the pooled executors"},
    {"raw-socket-io",
     "Raw socket syscalls (::send/::recv/writev/sendmsg/...) outside "
     "src/net/ bypass Channel framing"},
    {"durable-io",
     "Direct-to-destination ofstream/fwrite/fopen persistence outside "
     "common/durable_io tears on crash — use the atomic, CRC-framed writer"},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  psml::lint::ReportOptions ropts;
  ropts.tool = "psml-lint";
  fs::path allowlist_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psml-lint: --allowlist needs a file\n");
        return 2;
      }
      allowlist_path = argv[++i];
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psml-lint: --sarif needs a file\n");
        return 2;
      }
      ropts.sarif_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: psml-lint [--allowlist FILE] [--sarif FILE] "
          "DIR-OR-FILE...\n");
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "psml-lint: no inputs (try --help)\n");
    return 2;
  }

  bool allow_ok = true;
  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty()) {
    allow = psml::lint::read_allowlist(allowlist_path, "psml-lint", allow_ok);
    ropts.allowlist_path = allowlist_path;
  }

  const auto files = psml::lint::collect_inputs(roots, "psml-lint");
  if (!files) return 2;

  std::vector<Violation> violations;
  for (const fs::path& f : *files) {
    auto lines = psml::lint::read_lines(f);
    if (!lines) {
      std::fprintf(stderr, "psml-lint: cannot read %s\n", f.string().c_str());
      return 2;
    }
    const std::vector<std::string> clean = psml::lint::strip_source(*lines);
    const std::string path = f.generic_string();
    check_ring_arith(path, clean, violations);
    check_rng(path, clean, violations);
    check_secret_logging(path, clean, violations);
    check_naked_thread(path, clean, violations);
    check_raw_thread_spawn(path, clean, violations);
    check_raw_socket_io(path, clean, violations);
    check_durable_io(path, clean, violations);
  }

  return psml::lint::report_and_finish(ropts, kRules, violations, allow,
                                       allow_ok, files->size());
}
