// psml-sync — lockset & blocking-discipline analyzer over the concurrency
// contracts in src/common/sync_annot.hpp (PSML_GUARDED_BY, PSML_REQUIRES,
// PSML_ACQUIRE/RELEASE, PSML_BLOCKING, PSML_NONBLOCKING_CTX).
//
// Five rules on top of the shared whole-program model (tools/lint-common):
//
//   unguarded-shared-write   a PSML_GUARDED_BY field touched without its
//                            mutex held, or a PSML_REQUIRES callee invoked
//                            without the required lock
//   lock-order-inversion     a cycle in the whole-program lock acquisition
//                            graph (every edge carries its witness site)
//   blocking-under-lock      a blocking call (channel I/O, condvar wait,
//                            sleep, join, PSML_BLOCKING callee) made while
//                            holding a mutex not marked PSML_BLOCKING
//   missing-deadline-recv    a recv with no explicit deadline reachable
//                            from a PSML_NONBLOCKING_CTX function
//   atomic-mixed-access      one field accessed both through std::atomic
//                            operations and under a mutex guard
//
// Locksets are computed per function by a sequential token-level walk
// (RAII guards, manual lock()/unlock(), scope-based release) and composed
// across TUs through name-keyed summaries solved to a fixpoint — the same
// accuracy contract as psml-taint/psml-ct (docs/ANALYSIS.md §3, §9): a
// heuristic scanner over stripped source, not a C++ parser.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "model.hpp"

namespace psml::lint::sync {

namespace fs = std::filesystem;
using model::Function;
using model::Program;
using model::Stmt;

constexpr std::size_t npos = std::string::npos;

// Token-boundary find (ident chars on neither side).
std::size_t find_token(const std::string& s, const std::string& tok,
                       std::size_t from) {
  for (std::size_t p = s.find(tok, from); p != npos; p = s.find(tok, p + 1)) {
    const bool lb = p == 0 || !ident_char(s[p - 1]);
    const std::size_t e = p + tok.size();
    const bool rb = e >= s.size() || !ident_char(s[e]);
    if (lb && rb) return p;
  }
  return npos;
}

std::string join(const std::vector<std::string>& v, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += sep;
    out += v[i];
  }
  return out;
}

// ---- contracts -------------------------------------------------------------

// Lock nodes are named "<filestem>:<mutexname>" so hpp/cpp pairs share a
// namespace while same-named mutexes in unrelated classes stay distinct.
struct Contracts {
  std::set<std::string> mutexes;  // every declared lock node
  std::set<std::string> exempt;   // PSML_BLOCKING on the mutex: sanctioned
                                  // to be held across blocking I/O
  // stem -> field -> guarding lock node
  std::map<std::string, std::map<std::string, std::string>> guarded;
  std::set<std::string> blocking_fns;     // PSML_BLOCKING on a function
  std::set<std::string> nonblocking_fns;  // PSML_NONBLOCKING_CTX
  // "stem:fn" -> lock nodes that must be held at every call site
  std::map<std::string, std::set<std::string>> required;
  // fn name -> nodes it acquires / releases on behalf of the caller
  std::map<std::string, std::set<std::string>> acquire_fns;
  std::map<std::string, std::set<std::string>> release_fns;
  std::map<std::string, std::set<std::string>> classes;  // ctor/dtor exemption
  std::map<std::string, std::string> class_stem;  // class name -> file stem
  // stem -> variable/member name -> declared class name, so
  // `inner_->send(...)` resolves through the class hierarchy instead of
  // the merged name key.
  std::map<std::string, std::map<std::string, std::string>> var_class;
  // class name -> file stems of the class and all transitively derived
  // classes — the candidate set for a virtual dispatch on that type.
  std::map<std::string, std::set<std::string>> dispatch_stems;
  std::vector<Violation> decl_violations;  // atomic+guarded declarations
};

std::string file_stem(const std::string& path) {
  return fs::path(path).stem().string();
}

// One macro argument list: text inside the parens right after `p` (the
// position of a macro token), split on top-level commas.
std::vector<std::string> macro_args(const std::string& seg, std::size_t p,
                                    std::size_t tok_len) {
  const std::size_t open = seg.find('(', p + tok_len);
  if (open == npos) return {};
  const std::size_t close = model::match_paren(seg, open);
  if (close == npos) return {};
  return model::split_args(seg.substr(open + 1, close - open - 2));
}

// Identifier named by the first '(' of a declaration segment — the function
// a trailing contract macro annotates.
std::string decl_fn_name(const std::string& seg) {
  const std::size_t p = seg.find('(');
  if (p == npos || p == 0) return "";
  const std::size_t q = skip_spaces_back(seg, p - 1);
  if (q == npos) return "";
  return ident_ending_at(seg, q);
}

void handle_segment(const std::string& file, const std::string& stem,
                    const std::string& seg, std::size_t line, Contracts& c) {
  // Guarded-field declaration.
  std::size_t p = find_token(seg, "PSML_GUARDED_BY", 0);
  if (p != npos) {
    const auto args = macro_args(seg, p, 15);
    const std::string lock = args.empty() ? "" : model::last_ident(args[0]);
    // Field name: identifier just before the macro, skipping an array
    // suffix like `bins_[kNumClasses]`.
    std::size_t q = p == 0 ? npos : skip_spaces_back(seg, p - 1);
    if (q != npos && seg[q] == ']') {
      int depth = 0;
      while (q != npos) {
        if (seg[q] == ']') ++depth;
        if (seg[q] == '[' && --depth == 0) {
          q = q == 0 ? npos : skip_spaces_back(seg, q - 1);
          break;
        }
        q = q == 0 ? npos : q - 1;
      }
    }
    const std::string field = q == npos ? "" : ident_ending_at(seg, q);
    if (!field.empty() && !lock.empty()) {
      const std::string node = stem + ":" + lock;
      c.guarded[stem][field] = node;
      c.mutexes.insert(node);
      if (find_token(seg, "atomic", 0) != npos) {
        c.decl_violations.push_back(
            {file, line, "atomic-mixed-access",
             "field '" + field + "' is declared both std::atomic and "
             "PSML_GUARDED_BY('" + lock + "') — pick one discipline"});
      }
    }
    // A guarded-field declaration carries no function contracts.
    return;
  }

  // Mutex declaration: `sync::Mutex name ...` or `std::mutex name ...`.
  bool is_mutex_decl = false;
  for (p = find_token(seg, "Mutex", 0); p != npos;
       p = find_token(seg, "Mutex", p + 1)) {
    const std::size_t j = skip_spaces_fwd(seg, p + 5);
    const std::string name = j == npos ? "" : ident_starting_at(seg, j);
    if (name.empty() || model::keywords().count(name)) continue;
    const std::string node = stem + ":" + name;
    c.mutexes.insert(node);
    if (find_token(seg, "PSML_BLOCKING", 0) != npos) c.exempt.insert(node);
    is_mutex_decl = true;
    break;
  }
  if (!is_mutex_decl) {
    for (p = find_token(seg, "mutex", 0); p != npos;
         p = find_token(seg, "mutex", p + 1)) {
      if (p < 5 || seg.compare(p - 5, 5, "std::") != 0) continue;
      const std::size_t j = skip_spaces_fwd(seg, p + 5);
      const std::string name = j == npos ? "" : ident_starting_at(seg, j);
      if (name.empty() || model::keywords().count(name)) continue;
      const std::string node = stem + ":" + name;
      c.mutexes.insert(node);
      if (find_token(seg, "PSML_BLOCKING", 0) != npos) c.exempt.insert(node);
      is_mutex_decl = true;
      break;
    }
  }

  // Function-level contracts (skip when the segment declared a mutex: the
  // PSML_BLOCKING there marks the lock, not a function).
  if (!is_mutex_decl) {
    if (find_token(seg, "PSML_BLOCKING", 0) != npos) {
      const std::string fn = decl_fn_name(seg);
      if (!fn.empty()) c.blocking_fns.insert(fn);
    }
    if (find_token(seg, "PSML_NONBLOCKING_CTX", 0) != npos) {
      const std::string fn = decl_fn_name(seg);
      if (!fn.empty()) c.nonblocking_fns.insert(fn);
    }
    struct MacroMap {
      const char* tok;
      std::size_t len;
      int kind;  // 0=requires 1=acquire 2=release
    };
    static const MacroMap kMaps[] = {{"PSML_REQUIRES", 13, 0},
                                     {"PSML_ACQUIRE", 12, 1},
                                     {"PSML_RELEASE", 12, 2}};
    for (const auto& mm : kMaps) {
      p = find_token(seg, mm.tok, 0);
      if (p == npos) continue;
      const std::string fn = decl_fn_name(seg);
      if (fn.empty()) continue;
      for (const auto& a : macro_args(seg, p, mm.len)) {
        const std::string lk = model::last_ident(a);
        if (lk.empty()) continue;
        const std::string node = stem + ":" + lk;
        c.mutexes.insert(node);
        if (mm.kind == 0) c.required[stem + ":" + fn].insert(node);
        if (mm.kind == 1) c.acquire_fns[fn].insert(node);
        if (mm.kind == 2) c.release_fns[fn].insert(node);
      }
    }
  }

  // Class/struct names for the ctor/dtor exemption.
  for (const char* kw : {"class", "struct"}) {
    const std::size_t len = std::string(kw).size();
    for (p = find_token(seg, kw, 0); p != npos;
         p = find_token(seg, kw, p + len)) {
      if (p > 0) {
        const std::size_t q = skip_spaces_back(seg, p - 1);
        if (q != npos && ident_ending_at(seg, q) == "enum") continue;
      }
      const std::size_t j = skip_spaces_fwd(seg, p + len);
      const std::string name = j == npos ? "" : ident_starting_at(seg, j);
      if (!name.empty()) {
        c.classes[stem].insert(name);
        c.class_stem.emplace(name, stem);  // first definition wins
      }
    }
  }
}

// Declared-variable typing: `std::shared_ptr<Channel> inner_` or
// `net::Channel& channel_` binds the variable name to the class's defining
// stem. Runs after every class is registered (second pass over segments).
void scan_var_type(const std::string& stem, const std::string& seg,
                   Contracts& c) {
  if (seg.find('(') != npos) return;  // function decls, RAII guards
  for (const char* bad : {"class", "struct", "using", "typedef", "template",
                          "return", "throw", "case", "goto"}) {
    if (find_token(seg, bad, 0) != npos) return;
  }
  std::string cut = seg;
  const std::size_t eq = cut.find('=');
  if (eq != npos) cut = cut.substr(0, eq);
  std::string cls;
  for (std::size_t i = 0; i < cut.size();) {
    if (!ident_char(cut[i]) || (i > 0 && ident_char(cut[i - 1]))) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < cut.size() && ident_char(cut[i])) ++i;
    const std::string tok = cut.substr(b, i - b);
    if (c.class_stem.count(tok)) {
      cls = tok;
      break;
    }
  }
  if (cls.empty()) return;
  const std::string var = model::last_ident(cut);
  if (var.empty() || var == cls || model::keywords().count(var) ||
      var == "nullptr" || var == "override" || var == "final" ||
      var == "const") {
    return;
  }
  c.var_class[stem][var] = cls;
}

// Inheritance edges: `class TcpChannel final : public Channel` makes
// TcpChannel's stem a dispatch candidate for calls through a Channel*.
void scan_inheritance(const std::string& seg, Contracts& c,
                      std::map<std::string, std::set<std::string>>& derived) {
  for (const char* kw : {"class", "struct"}) {
    const std::size_t len = std::string(kw).size();
    const std::size_t p = find_token(seg, kw, 0);
    if (p == npos) continue;
    if (p > 0) {
      const std::size_t q = skip_spaces_back(seg, p - 1);
      if (q != npos && ident_ending_at(seg, q) == "enum") continue;
    }
    const std::size_t j = skip_spaces_fwd(seg, p + len);
    const std::string name = j == npos ? "" : ident_starting_at(seg, j);
    if (name.empty() || !c.class_stem.count(name)) continue;
    // A lone ':' after the class name introduces the base list ("::" is a
    // qualifier, not a base list).
    std::size_t colon = npos;
    for (std::size_t k = j + name.size(); k < seg.size(); ++k) {
      if (seg[k] == '(') break;  // ctor-init-list, not a class head
      if (seg[k] != ':') continue;
      if (k + 1 < seg.size() && seg[k + 1] == ':') {
        ++k;
        continue;
      }
      if (k > 0 && seg[k - 1] == ':') continue;
      colon = k;
      break;
    }
    if (colon == npos) continue;
    for (std::size_t k = colon + 1; k < seg.size();) {
      if (!ident_char(seg[k]) || (k > 0 && ident_char(seg[k - 1]))) {
        ++k;
        continue;
      }
      const std::size_t b = k;
      while (k < seg.size() && ident_char(seg[k])) ++k;
      const std::string base = seg.substr(b, k - b);
      if (base != name && c.class_stem.count(base)) {
        derived[base].insert(name);
      }
    }
    return;
  }
}

// Splits a stripped file into logical declaration segments (top-level ';',
// '{', '}' boundaries, preprocessor lines dropped) so contracts that wrap
// across physical lines are still seen whole.
void scan_file_contracts(const std::string& file,
                         const std::vector<std::string>& lines, Contracts& c,
                         std::vector<std::pair<std::string, std::string>>*
                             segments) {
  const std::string stem = file_stem(file);
  std::string seg;
  std::size_t seg_line = 0;
  auto flush = [&] {
    if (seg.find_first_not_of(' ') != npos) {
      handle_segment(file, stem, seg, seg_line, c);
      if (segments) segments->emplace_back(stem, seg);
    }
    seg.clear();
    seg_line = 0;
  };
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& raw = lines[ln];
    const std::size_t first = raw.find_first_not_of(" \t");
    if (first != npos && raw[first] == '#') continue;  // preprocessor
    for (char ch : raw) {
      if (ch == ';' || ch == '{' || ch == '}') {
        flush();
        continue;
      }
      if (ch == '\t') ch = ' ';
      // seg_line marks the first non-space character; line-end padding
      // spaces below must not count as content.
      if (seg_line == 0) {
        if (ch == ' ') continue;
        seg_line = ln + 1;
      }
      seg += ch;
    }
    if (seg_line != 0) seg += ' ';
  }
  flush();
}

Contracts scan_contracts(const Program& prog) {
  Contracts c;
  std::vector<std::pair<std::string, std::string>> segments;
  for (const auto& [file, lines] : prog.stripped) {
    scan_file_contracts(file, lines, c, &segments);
  }
  // Variable typing and inheritance need the full class registry, so they
  // are a second pass.
  std::map<std::string, std::set<std::string>> derived;
  for (const auto& [stem, seg] : segments) {
    scan_var_type(stem, seg, c);
    scan_inheritance(seg, c, derived);
  }
  // dispatch_stems[C] = stems of C and everything transitively derived from
  // it — the summary keys a virtual call through a C* may land on.
  for (const auto& [cls, stem] : c.class_stem) {
    std::set<std::string>& out = c.dispatch_stems[cls];
    std::vector<std::string> work = {cls};
    std::set<std::string> seen = {cls};
    while (!work.empty()) {
      const std::string cur = work.back();
      work.pop_back();
      const auto si = c.class_stem.find(cur);
      if (si != c.class_stem.end()) out.insert(si->second);
      const auto di = derived.find(cur);
      if (di == derived.end()) continue;
      for (const std::string& d : di->second) {
        if (seen.insert(d).second) work.push_back(d);
      }
    }
    (void)stem;
  }
  return c;
}

// ---- per-function lockset walk ---------------------------------------------

struct SyncSummary {
  std::set<std::string> inner;  // locks (transitively) acquired inside
  bool may_block = false;
  bool undeadlined = false;
  std::string block_what;
  std::string recv_what;
};

struct EdgeInfo {
  std::string file;
  std::size_t line = 0;
  std::string fn;
};
using Edges = std::map<std::pair<std::string, std::string>, EdgeInfo>;

bool merge_summary(SyncSummary& into, const SyncSummary& s);

struct LockVar {
  std::string var;   // RAII variable ("@name" for direct mutex.lock())
  std::string node;
  bool held = false;
  int depth = 0;     // block depth at declaration; -1 = never scope-released
};

class LocksetWalk {
 public:
  LocksetWalk(const Function& fn, const Contracts& c,
              const std::map<std::string, SyncSummary>& sums,
              std::vector<Violation>* out, Edges* edges)
      : fn_(fn), c_(c), sums_(sums), out_(out), edges_(edges) {
    stem_ = file_stem(fn.file);
    const auto it = c.required.find(stem_ + ":" + fn.name);
    if (it != c.required.end()) contract_ = it->second;
    const auto cls = c.classes.find(stem_);
    exempt_fn_ = (cls != c.classes.end() && cls->second.count(fn.name)) ||
                 (!fn.name.empty() && fn.name[0] == '~');
  }

  SyncSummary run() {
    for (const Stmt& s : fn_.stmts) {
      if (s.kind == Stmt::kBlockClose) {
        if (depth_ > 0) --depth_;
        vars_.erase(std::remove_if(vars_.begin(), vars_.end(),
                                   [&](const LockVar& v) {
                                     return v.depth > depth_;
                                   }),
                    vars_.end());
        continue;
      }
      process(s.text, s.line);
      if (s.kind == Stmt::kBlockOpen) ++depth_;
    }
    return sum_;
  }

 private:
  std::set<std::string> held_nodes() const {
    std::set<std::string> h = contract_;
    for (const LockVar& v : vars_) {
      if (v.held) h.insert(v.node);
    }
    return h;
  }

  void violate(std::size_t line, const std::string& rule,
               const std::string& msg) {
    if (out_) out_->push_back({fn_.file, line, rule, msg});
  }

  void add_edge(const std::string& a, const std::string& b, std::size_t line) {
    if (!edges_ || a == b) return;
    const auto key = std::make_pair(a, b);
    if (!edges_->count(key)) (*edges_)[key] = {fn_.file, line, fn_.name};
  }

  std::string resolve_node(const std::string& expr) const {
    std::string e = model::trim(expr);
    if (e.size() > 9 && e.compare(e.size() - 9, 9, ".native()") == 0) {
      e = e.substr(0, e.size() - 9);
    }
    while (!e.empty() && (e[0] == '*' || e[0] == '&')) e = e.substr(1);
    const std::string name = model::last_ident(e);
    return name.empty() ? "" : stem_ + ":" + name;
  }

  void record_acquire(const std::string& node, std::size_t line) {
    if (node.empty()) return;
    for (const std::string& h : held_nodes()) add_edge(h, node, line);
    sum_.inner.insert(node);
  }

  void blocking_event(std::size_t line, const std::string& what,
                      const std::string& exempt_node) {
    sum_.may_block = true;
    if (sum_.block_what.empty()) {
      std::string w = what;
      if (w.size() > 120) w = w.substr(0, 117) + "...";
      sum_.block_what = w + " at " + fn_.file + ":" + std::to_string(line);
    }
    for (const std::string& h : held_nodes()) {
      if (h == exempt_node || c_.exempt.count(h)) continue;
      violate(line, "blocking-under-lock",
              "blocking call " + what + " while holding lock '" + h +
                  "' (mark the mutex PSML_BLOCKING only if holding it "
                  "across I/O is the design)");
    }
  }

  // RAII guard declarations: MutexLock / lock_guard / unique_lock /
  // scoped_lock, with defer_lock honored.
  void scan_raii(const std::string& t, std::size_t line) {
    static const std::vector<std::string> kGuards = {
        "MutexLock", "lock_guard", "unique_lock", "scoped_lock"};
    for (const std::string& g : kGuards) {
      for (std::size_t p = find_token(t, g, 0); p != npos;
           p = find_token(t, g, p + g.size())) {
        std::size_t j = skip_spaces_fwd(t, p + g.size());
        if (j != npos && t[j] == '<') {  // template argument list
          int d = 0;
          while (j < t.size()) {
            if (t[j] == '<') ++d;
            if (t[j] == '>' && --d == 0) break;
            ++j;
          }
          j = skip_spaces_fwd(t, j + 1);
        }
        if (j == npos) continue;
        const std::string var = ident_starting_at(t, j);
        if (var.empty()) continue;
        j = skip_spaces_fwd(t, j + var.size());
        if (j == npos || (t[j] != '(' && t[j] != '{')) continue;
        const char close_ch = t[j] == '(' ? ')' : '}';
        std::size_t close = npos;
        if (t[j] == '(') {
          close = model::match_paren(t, j);
        } else {
          const std::size_t cb = t.find(close_ch, j);
          close = cb == npos ? npos : cb + 1;
        }
        if (close == npos) continue;
        const auto args = model::split_args(t.substr(j + 1, close - j - 2));
        if (args.empty() || model::trim(args[0]).empty()) continue;
        const bool deferred =
            args.size() > 1 && model::has_token(args[1], "defer_lock");
        std::size_t idx = 0;
        const std::size_t nmutex = g == "scoped_lock" ? args.size() : 1;
        for (std::size_t a = 0; a < nmutex; ++a) {
          const std::string node = resolve_node(args[a]);
          if (node.empty()) continue;
          if (!deferred) record_acquire(node, line);
          vars_.push_back({idx == 0 ? var : var + "#" + std::to_string(idx),
                           node, !deferred, depth_});
          ++idx;
        }
      }
    }
  }

  // Manual x.lock() / x.unlock() — on an RAII guard variable or directly on
  // a mutex member.
  void scan_manual(const std::string& t, std::size_t line) {
    for (const char* m : {"lock", "unlock"}) {
      const bool is_lock = std::string(m) == "lock";
      const std::size_t len = is_lock ? 4 : 6;
      for (std::size_t p = find_token(t, m, 0); p != npos;
           p = find_token(t, m, p + len)) {
        std::size_t j = skip_spaces_fwd(t, p + len);
        if (j == npos || t[j] != '(') continue;
        const std::size_t close = model::match_paren(t, j);
        if (close == npos ||
            model::trim(t.substr(j + 1, close - j - 2)) != "") {
          continue;  // only the zero-arg member form
        }
        if (p == 0) continue;
        std::size_t recv_end = npos;
        if (t[p - 1] == '.') {
          recv_end = p >= 2 ? p - 2 : npos;
        } else if (p >= 2 && t[p - 2] == '-' && t[p - 1] == '>') {
          recv_end = p >= 3 ? p - 3 : npos;
        } else {
          continue;
        }
        if (recv_end == npos) continue;
        const std::string recv = ident_ending_at(t, recv_end);
        if (recv.empty()) continue;
        bool matched = false;
        for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
          if (it->var == recv) {
            if (is_lock && !it->held) record_acquire(it->node, line);
            it->held = is_lock;
            matched = true;
            break;
          }
        }
        if (!matched) {
          const std::string node = stem_ + ":" + recv;
          // Only a *declared* mutex counts: `w.lock()` on a weak_ptr or a
          // unique_lock we never saw must not invent lock nodes.
          if (!c_.mutexes.count(node)) continue;
          if (is_lock) {
            record_acquire(node, line);
            vars_.push_back({"@" + recv, node, true, depth_});
          } else {
            for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
              if (it->node == node && it->held) {
                it->held = false;
                break;
              }
            }
          }
        }
      }
    }
  }

  // Accesses to PSML_GUARDED_BY fields of this file-stem.
  void check_guarded(const std::string& t, std::size_t line) {
    const auto gi = c_.guarded.find(stem_);
    if (gi == c_.guarded.end()) return;
    const auto held = held_nodes();
    for (const auto& [field, node] : gi->second) {
      const std::size_t p = find_token(t, field, 0);
      if (p == npos) continue;
      // std::atomic operation on a guarded field → mixed access.
      std::size_t j = skip_spaces_fwd(t, p + field.size());
      if (j != npos && t[j] == '.') {
        const std::size_t mb = skip_spaces_fwd(t, j + 1);
        const std::string m = mb == npos ? "" : ident_starting_at(t, mb);
        if (m == "load" || m == "store" || m == "exchange" ||
            m.rfind("fetch_", 0) == 0 || m.rfind("compare_exchange", 0) == 0) {
          violate(line, "atomic-mixed-access",
                  "atomic op '." + m + "' on '" + field +
                      "' which is PSML_GUARDED_BY('" + node + "')");
          continue;
        }
      }
      if (held.count(node) || exempt_fn_) continue;
      violate(line, "unguarded-shared-write",
              "access to '" + field + "' guarded by '" + node +
                  "' without the lock held");
    }
  }

  // Calls: condvar waits, blocking primitives/contracts, deadline checks,
  // PSML_REQUIRES call-site checks, and summary composition.
  void scan_calls(const std::string& t, std::size_t line) {
    static const std::set<std::string> kSkip = {
        "if",         "for",        "while",     "switch",   "return",
        "sizeof",     "catch",      "throw",     "new",      "delete",
        "alignof",    "decltype",   "noexcept",  "assert",   "static_assert",
        "MutexLock",  "lock_guard", "unique_lock", "scoped_lock",
        "lock",       "unlock",     "native",    "notify_one", "notify_all",
        "defer_lock", "operator"};
    static const std::set<std::string> kPrimitives = {
        "send",     "recv",        "recv_any", "sendmsg", "recvmsg",
        "accept",   "connect",     "poll",     "select",  "sleep_for",
        "sleep_until", "join",     "usleep",   "nanosleep"};
    static const std::set<std::string> kWaits = {"wait", "wait_for",
                                                 "wait_until"};
    for (std::size_t i = 0; i < t.size();) {
      if (!ident_char(t[i]) || (i > 0 && ident_char(t[i - 1]))) {
        ++i;
        continue;
      }
      const std::size_t b = i;
      while (i < t.size() && ident_char(t[i])) ++i;
      const std::string w = t.substr(b, i - b);
      const std::size_t j = skip_spaces_fwd(t, i);
      if (j == npos || t[j] != '(') continue;
      if (kSkip.count(w) || model::keywords().count(w)) continue;
      const std::size_t close = model::match_paren(t, j);
      const std::string args =
          close == npos ? t.substr(j + 1) : t.substr(j + 1, close - j - 2);
      bool method = false;
      bool global_qual = false;  // `::close(fd)` — a libc call, not ours
      std::string qual;          // `Device::global()` -> "Device"
      std::string recv_class;    // typed receiver: `inner_->send(...)`
      if (b > 0) {
        const std::size_t q = skip_spaces_back(t, b - 1);
        if (q != npos) {
          std::size_t rend = npos;
          if (t[q] == '.') {
            method = true;
            rend = q > 0 ? q - 1 : npos;
          } else if (q > 0 && t[q] == '>' && t[q - 1] == '-') {
            method = true;
            rend = q > 1 ? q - 2 : npos;
          } else if (t[q] == ':' && q > 0 && t[q - 1] == ':') {
            if (q < 2 || !ident_char(t[q - 2])) {
              global_qual = true;
            } else {
              qual = ident_ending_at(t, q - 2);
            }
          }
          if (method && rend != npos) {
            const std::string r = ident_ending_at(t, rend);
            const auto vm = c_.var_class.find(stem_);
            if (!r.empty() && vm != c_.var_class.end()) {
              const auto vi = vm->second.find(r);
              if (vi != vm->second.end()) recv_class = vi->second;
            }
          }
        }
      }

      // A call to a local lambda: its body is walked inline where it is
      // declared, and a same-named project function is not the callee.
      if (!method && qual.empty() && !global_qual && locals_.count(w)) {
        continue;
      }

      // Condition-variable waits: blocking, but the lock passed as the
      // first argument is sanctioned to be held across the wait.
      if (method && kWaits.count(w)) {
        std::string exempt;
        const auto as = model::split_args(args);
        if (!as.empty()) {
          const std::string r = model::root_ident(as[0]);
          for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
            if (it->var == r && it->held) {
              exempt = it->node;
              break;
            }
          }
        }
        blocking_event(line, "'" + w + "' (condition-variable wait)", exempt);
        continue;
      }

      // PSML_ACQUIRE / PSML_RELEASE contracts on the callee.
      const auto ai = c_.acquire_fns.find(w);
      if (ai != c_.acquire_fns.end()) {
        for (const std::string& n : ai->second) {
          record_acquire(n, line);
          vars_.push_back({"@" + w, n, true, -1});
        }
      }
      const auto ri = c_.release_fns.find(w);
      if (ri != c_.release_fns.end()) {
        for (const std::string& n : ri->second) {
          for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
            if (it->node == n && it->held) {
              it->held = false;
              break;
            }
          }
        }
      }

      // PSML_REQUIRES at the call site (same file-stem heuristic).
      const auto req = c_.required.find(stem_ + ":" + w);
      if (req != c_.required.end()) {
        const auto held = held_nodes();
        for (const std::string& n : req->second) {
          if (!held.count(n)) {
            violate(line, "unguarded-shared-write",
                    "call to '" + w + "()' requires '" + n +
                        "' held (PSML_REQUIRES)");
          }
        }
      }

      // Summary resolution. Name-keyed merging is conservative but collides
      // (Channel::send vs CompressedChannel::send, Trace::clear vs
      // vector::clear), so: unqualified calls prefer the same-file-stem
      // summary (overload delegation, private helpers); global-qualified
      // `::name(...)` calls are libc, never ours; STL container method
      // names are never composed.
      static const std::set<std::string> kContainerMethods = {
          "clear",   "erase",   "insert", "emplace", "emplace_back",
          "push_back", "pop_back", "push_front", "pop_front", "reserve",
          "resize",  "swap",    "reset",  "assign",  "append", "substr",
          "find",    "count",   "begin",  "end",     "at",     "front",
          "back",    "data",    "size",   "empty",   "str",    "c_str",
          "get",
          // std::atomic operations: `shut_.exchange(true)` must not compose
          // with a project function that happens to be named exchange.
          "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
          "fetch_and", "fetch_xor", "compare_exchange_weak",
          "compare_exchange_strong", "test_and_set"};
      const SyncSummary* s = nullptr;
      SyncSummary dispatch;  // merged virtual-dispatch summary (typed recv)
      if (!global_qual && qual != "std" && qual != "this_thread") {
        if (!recv_class.empty()) {
          // Typed receiver: merge the summaries of the declared class and
          // everything derived from it — virtual dispatch stays inside the
          // hierarchy, so a Channel* call can never pick up an unrelated
          // class's same-named method through the merged name key. Beats
          // the container-name suppression too (a project class may well
          // have a find()/clear()). If no candidate defines the method,
          // compose nothing rather than fall back to the name key.
          const auto ds = c_.dispatch_stems.find(recv_class);
          if (ds != c_.dispatch_stems.end()) {
            for (const std::string& st : ds->second) {
              const auto k = sums_.find(st + ":" + w);
              if (k != sums_.end()) merge_summary(dispatch, k->second);
            }
          }
          s = &dispatch;
        }
        // Untyped receiver with an STL-ish method name: never compose (a
        // vector's .clear() must not pull in Trace::clear's locks).
        const bool stl_name = method && kContainerMethods.count(w);
        if (!s && !stl_name && !qual.empty()) {
          // `Class::fn()` — resolve through the class's defining file stem,
          // which beats the merged name key (every singleton is `global()`).
          const auto cs = c_.class_stem.find(qual);
          if (cs != c_.class_stem.end()) {
            const auto k = sums_.find(cs->second + ":" + w);
            if (k != sums_.end()) s = &k->second;
          }
        }
        if (!s && !stl_name && !method && qual.empty()) {
          const auto k = sums_.find(stem_ + ":" + w);
          if (k != sums_.end()) s = &k->second;
        }
        if (!s && !stl_name) {
          const auto si = sums_.find(w);
          if (si != sums_.end()) s = &si->second;
        }
      }

      // Blocking: wire/sleep/join primitives, PSML_BLOCKING contracts, and
      // callees whose summary says they may block.
      if (kPrimitives.count(w) || c_.blocking_fns.count(w)) {
        blocking_event(line, "'" + w + "'", "");
      } else if (s && s->may_block) {
        blocking_event(line, "'" + w + "' (" + s->block_what + ")", "");
      }

      // Locks the callee acquires while our locks are held become edges.
      if (s && !s->inner.empty()) {
        for (const std::string& h : held_nodes()) {
          for (const std::string& l : s->inner) add_edge(h, l, line);
        }
        sum_.inner.insert(s->inner.begin(), s->inner.end());
      }

      // Deadline discipline on recv-family calls.
      const bool recvish = w == "recv" || w == "recv_any" || w == "recv_pair";
      bool undl = false;
      if (recvish) {
        const auto as = model::split_args(args);
        const bool empty_args = model::trim(args).empty();
        if (method && w == "recv" && !empty_args && as.size() == 1) undl = true;
        if (method && w == "recv_any" && empty_args) undl = true;
        if (model::has_token(args, "kNoDeadline")) undl = true;
        if (undl) {
          sum_.undeadlined = true;
          if (sum_.recv_what.empty()) {
            sum_.recv_what = "'" + w + "' at " + fn_.file + ":" +
                             std::to_string(line);
          }
          if (c_.nonblocking_fns.count(fn_.name)) {
            violate(line, "missing-deadline-recv",
                    "'" + w + "' without an explicit deadline in "
                    "PSML_NONBLOCKING_CTX function '" + fn_.name + "'");
          }
        }
      } else if (s && s->undeadlined) {
        sum_.undeadlined = true;
        if (sum_.recv_what.empty()) sum_.recv_what = s->recv_what;
        if (c_.nonblocking_fns.count(fn_.name)) {
          violate(line, "missing-deadline-recv",
                  "call to '" + w + "' reaches a recv without a deadline (" +
                      s->recv_what + ") in PSML_NONBLOCKING_CTX function '" +
                      fn_.name + "'");
        }
      }
    }
  }

  // `auto name = [...]` declares a local lambda; later calls to `name` in
  // this function reach it, not a project function of the same name.
  void scan_local_lambda(const std::string& t) {
    const std::size_t p = find_token(t, "auto", 0);
    if (p == npos) return;
    std::size_t j = skip_spaces_fwd(t, p + 4);
    const std::string name = j < t.size() ? ident_starting_at(t, j) : "";
    if (name.empty()) return;
    j = skip_spaces_fwd(t, j + name.size());
    if (j >= t.size() || t[j] != '=') return;
    j = skip_spaces_fwd(t, j + 1);
    if (j < t.size() && t[j] == '[') locals_.insert(name);
  }

  void process(const std::string& t, std::size_t line) {
    scan_local_lambda(t);
    scan_raii(t, line);
    scan_manual(t, line);
    scan_calls(t, line);
    check_guarded(t, line);
  }

  const Function& fn_;
  const Contracts& c_;
  const std::map<std::string, SyncSummary>& sums_;
  std::vector<Violation>* out_;
  Edges* edges_;
  std::string stem_;
  std::set<std::string> contract_;
  bool exempt_fn_ = false;
  std::vector<LockVar> vars_;
  std::set<std::string> locals_;  // local lambda names (scan_local_lambda)
  int depth_ = 0;
  SyncSummary sum_;
};

bool merge_summary(SyncSummary& into, const SyncSummary& s) {
  bool changed = false;
  for (const std::string& l : s.inner) changed |= into.inner.insert(l).second;
  if (s.may_block && !into.may_block) {
    into.may_block = true;
    into.block_what = s.block_what;
    changed = true;
  }
  if (s.undeadlined && !into.undeadlined) {
    into.undeadlined = true;
    into.recv_what = s.recv_what;
    changed = true;
  }
  return changed;
}

// ---- lock graph ------------------------------------------------------------

void find_cycles(const Edges& edges, std::vector<Violation>& out) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, info] : edges) adj[key.first].push_back(key.second);
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::set<std::string> seen;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    path.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        const auto it = std::find(path.begin(), path.end(), v);
        std::vector<std::string> cyc(it, path.end());
        const auto mn = std::min_element(cyc.begin(), cyc.end());
        std::rotate(cyc.begin(), mn, cyc.end());
        if (!seen.insert(join(cyc, "|")).second) continue;
        std::string msg = "lock-order inversion: " + join(cyc, " -> ") +
                          " -> " + cyc[0] + ";";
        const EdgeInfo* first = nullptr;
        for (std::size_t i = 0; i < cyc.size(); ++i) {
          const auto ei =
              edges.find({cyc[i], cyc[(i + 1) % cyc.size()]});
          if (ei == edges.end()) continue;
          if (!first) first = &ei->second;
          msg += " " + cyc[i] + "->" + cyc[(i + 1) % cyc.size()] +
                 " acquired at " + ei->second.file + ":" +
                 std::to_string(ei->second.line) + " in " + ei->second.fn +
                 "()";
        }
        if (first) {
          out.push_back({first->file, first->line, "lock-order-inversion",
                         msg});
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, vs] : adj) {
    (void)vs;
    if (color[u] == 0) dfs(u);
  }
}

void write_dot(const std::string& path, const Contracts& c,
               const Edges& edges) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "psml-sync: cannot write DOT file %s\n",
                 path.c_str());
    return;
  }
  f << "// Whole-program lock acquisition graph (psml-sync --dot).\n"
    << "// Dashed nodes are PSML_BLOCKING mutexes (sanctioned to be held\n"
    << "// across blocking I/O); edge labels are the witness sites.\n"
    << "digraph psml_locks {\n  rankdir=LR;\n  node [shape=box];\n";
  std::set<std::string> nodes = c.mutexes;
  for (const auto& [key, info] : edges) {
    (void)info;
    nodes.insert(key.first);
    nodes.insert(key.second);
  }
  for (const std::string& n : nodes) {
    f << "  \"" << n << "\"";
    if (c.exempt.count(n)) f << " [style=dashed]";
    f << ";\n";
  }
  for (const auto& [key, info] : edges) {
    f << "  \"" << key.first << "\" -> \"" << key.second << "\" [label=\""
      << info.file << ":" << info.line << "\"];\n";
  }
  f << "}\n";
}

}  // namespace psml::lint::sync

// ---- main ------------------------------------------------------------------

namespace {

const std::vector<psml::lint::RuleInfo> kRules = {
    {"unguarded-shared-write",
     "PSML_GUARDED_BY field touched without its mutex held, or a "
     "PSML_REQUIRES callee invoked without the required lock"},
    {"lock-order-inversion",
     "cycle in the whole-program lock acquisition graph"},
    {"blocking-under-lock",
     "blocking call made while holding a mutex not marked PSML_BLOCKING"},
    {"missing-deadline-recv",
     "recv without an explicit deadline reachable from a "
     "PSML_NONBLOCKING_CTX function"},
    {"atomic-mixed-access",
     "field accessed both via std::atomic operations and under a mutex "
     "guard"},
};

void usage() {
  std::fprintf(
      stderr,
      "usage: psml-sync [--allowlist FILE] [--sarif FILE] [--dot FILE] "
      "DIR-OR-FILE...\n\nrules:\n");
  for (const auto& r : kRules) {
    std::fprintf(stderr, "  %-24s %s\n", r.id.c_str(),
                 r.short_description.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psml::lint;
  std::vector<std::string> roots;
  std::filesystem::path allowlist_path;
  std::filesystem::path sarif_path;
  std::string dot_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "psml-sync: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    usage();
    return 2;
  }

  bool allow_ok = true;
  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty()) {
    allow = read_allowlist(allowlist_path, "psml-sync", allow_ok);
  }

  auto files = collect_inputs(roots, "psml-sync");
  if (!files) return 2;
  // The annotation vocabulary itself is not an analysis subject: its
  // lock()/unlock() members would pollute the name-keyed summaries.
  files->erase(std::remove_if(files->begin(), files->end(),
                              [](const std::filesystem::path& p) {
                                return path_ends_with(p.generic_string(),
                                                      "sync_annot.hpp");
                              }),
               files->end());

  auto prog = model::load_program(*files, "psml-sync");
  if (!prog) return 2;

  const sync::Contracts contracts = sync::scan_contracts(*prog);

  // Summaries to a fixpoint. Each round resolves call sites against a
  // FROZEN snapshot of the previous round and rebuilds the map fresh: with
  // in-place grow-only merging, a call whose precise stem key does not exist
  // yet (file walk order) would fall back to the merged name key and the
  // stale composition could never be retracted. Rebuilding is not monotone,
  // so the loop is bounded; hitting the bound is an error, because findings
  // and the --dot graph from unconverged summaries would be silently
  // incomplete.
  constexpr int kMaxSummaryRounds = 256;
  std::map<std::string, sync::SyncSummary> sums;
  int rounds = 0;
  for (bool changed = true; changed;) {
    if (rounds == kMaxSummaryRounds) {
      std::fprintf(stderr,
                   "psml-sync: call summaries did not converge within %d "
                   "rounds; no findings or lock graph reported\n",
                   kMaxSummaryRounds);
      return 2;
    }
    ++rounds;
    std::map<std::string, sync::SyncSummary> next;
    for (const auto& fn : prog->functions) {
      const sync::SyncSummary s =
          sync::LocksetWalk(fn, contracts, sums, nullptr, nullptr).run();
      // Both a stem-qualified key (preferred by unqualified call sites) and
      // the merged name key (cross-class method calls on untyped receivers).
      sync::merge_summary(next[sync::file_stem(fn.file) + ":" + fn.name], s);
      sync::merge_summary(next[fn.name], s);
    }
    changed = next.size() != sums.size();
    if (!changed) {
      for (const auto& [k, v] : next) {
        const auto it = sums.find(k);
        if (it == sums.end() || it->second.inner != v.inner ||
            it->second.may_block != v.may_block ||
            it->second.undeadlined != v.undeadlined) {
          changed = true;
          break;
        }
      }
    }
    sums = std::move(next);
  }
  std::fprintf(stderr, "psml-sync: call summaries converged in %d rounds\n",
               rounds);

  // PSML_SYNC_DEBUG=1: dump the converged summaries (maintenance aid for
  // chasing name-collision pollution in the lock graph).
  if (std::getenv("PSML_SYNC_DEBUG") != nullptr) {
    for (const auto& [name, s] : sums) {
      if (s.inner.empty() && !s.may_block) continue;
      std::string line = "# " + name + ":";
      for (const auto& l : s.inner) line += " " + l;
      if (s.may_block) line += " [blocks: " + s.block_what + "]";
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  // Final pass with the converged summaries: violations + the lock graph.
  std::vector<Violation> violations = contracts.decl_violations;
  sync::Edges edges;
  for (const auto& fn : prog->functions) {
    sync::LocksetWalk(fn, contracts, sums, &violations, &edges).run();
  }
  sync::find_cycles(edges, violations);

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  violations.erase(std::unique(violations.begin(), violations.end(),
                               [](const Violation& a, const Violation& b) {
                                 return std::tie(a.file, a.line, a.rule) ==
                                        std::tie(b.file, b.line, b.rule);
                               }),
                   violations.end());

  if (!dot_path.empty()) sync::write_dot(dot_path, contracts, edges);

  ReportOptions ropts;
  ropts.tool = "psml-sync";
  ropts.allowlist_path = allowlist_path;
  ropts.sarif_path = sarif_path;
  return report_and_finish(ropts, kRules, violations, allow, allow_ok,
                           files->size());
}
