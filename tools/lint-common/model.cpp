#include "model.hpp"

#include <algorithm>
#include <cstdio>

namespace fs = std::filesystem;

namespace psml::lint::model {

// ---- token tables ----------------------------------------------------------

const std::set<std::string>& keywords() {
  static const std::set<std::string> k{
      "if",     "for",   "while",  "switch", "catch",  "return",
      "else",   "do",    "sizeof", "new",    "delete", "case",
      "goto",   "throw", "co_await"};
  return k;
}

namespace {

const std::set<std::string>& qualifier_tokens() {
  static const std::set<std::string> q{"inline",   "static",   "constexpr",
                                       "friend",   "virtual",  "explicit",
                                       "const",    "typename", "extern",
                                       "noexcept", "consteval"};
  return q;
}

// Tokens dropped when normalizing a parameter declarator to its core type.
const std::set<std::string>& type_noise_tokens() {
  static const std::set<std::string> q{
      "const",    "volatile", "typename",    "struct",     "class",
      "mutable",  "register", "PSML_SECRET", "PSML_PUBLIC"};
  return q;
}

}  // namespace

// Methods whose result is public metadata even on a secret object.
const std::set<std::string>& metadata_methods() {
  static const std::set<std::string> m{
      "rows",  "cols",     "size",  "bytes",  "empty",      "same_shape",
      "count", "capacity", "valid", "nnz",    "length",     "stride",
      "shape", "dim",      "depth", "stats",  "total_bytes",
      "retain", "recycle"};  // TripletStore mode queries: public config
  return m;
}

// Triplet-store accessors whose result is secret share material.
const std::set<std::string>& accessor_methods() {
  static const std::set<std::string> a{
      "pop_matmul", "pop_elementwise", "pop_activation", "triplets",
      "matmuls",    "elementwises",    "activations"};
  return a;
}

// Functions whose calls are blanked before taint evaluation: their result is
// public by protocol definition.
const std::set<std::string>& declassifier_fns() {
  static const std::set<std::string> d{"declassify", "reconstruct_float",
                                       "reconstruct_ring"};
  return d;
}

Model seeded_model() {
  Model model;
  model.secret_types = {"SharePair",        "TripletShare",
                        "ActivationShare",  "LayerShare",
                        "RingTripletShare", "TripletStore"};
  model.secret_fns = {"share_float", "share_ring", "random_seed"};
  model.taintout_fns = {
      "fill_uniform",     "fill_normal",         "fill_bernoulli",
      "fill_uniform_u64", "fill_uniform_par",    "fill_normal_par",
      "fill_uniform_u64_par", "fill_uniform_locked", "philox_fill_uniform",
      "philox_fill_uniform_par", "philox_fill_u64"};
  return model;
}

// ---- token helpers ---------------------------------------------------------

bool has_token(const std::string& s, const std::string& tok) {
  std::size_t pos = 0;
  while ((pos = s.find(tok, pos)) != std::string::npos) {
    const std::size_t after = pos + tok.size();
    if ((pos == 0 || !ident_char(s[pos - 1])) &&
        (after >= s.size() || !ident_char(s[after]))) {
      return true;
    }
    pos = after;
  }
  return false;
}

std::size_t match_paren(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::vector<std::string> split_args(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::string root_ident(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && !ident_char(s[i])) ++i;
  std::string name = ident_starting_at(s, i);
  // Skip a leading namespace qualification.
  std::size_t j = i + name.size();
  while (j + 1 < s.size() && s[j] == ':' && s[j + 1] == ':') {
    j += 2;
    name = ident_starting_at(s, j);
    j += name.size();
  }
  return name;
}

std::string last_ident(const std::string& s) {
  std::size_t i = s.size();
  for (;;) {
    const std::size_t e = s.find_last_not_of(" \t", i == 0 ? 0 : i - 1);
    if (e == std::string::npos) return "";
    if (s[e] == ']') {
      // skip the bracket group
      int depth = 0;
      std::size_t j = e;
      for (;; --j) {
        if (s[j] == ']') ++depth;
        if (s[j] == '[' && --depth == 0) break;
        if (j == 0) return "";
      }
      i = j;
      continue;
    }
    if (!ident_char(s[e])) return "";
    return ident_ending_at(s, e);
  }
}

std::string core_type(const std::string& decl,
                      const std::string& declared_name) {
  std::vector<std::string> toks;
  std::size_t i = 0;
  while (i < decl.size()) {
    if (!ident_char(decl[i]) || std::isdigit(static_cast<unsigned char>(
                                    decl[i]))) {
      ++i;
      continue;
    }
    const std::string t = ident_starting_at(decl, i);
    i += t.size();
    if (!type_noise_tokens().count(t)) toks.push_back(t);
  }
  if (!declared_name.empty() && toks.size() > 1 &&
      toks.back() == declared_name) {
    toks.pop_back();
  }
  std::string out;
  for (const std::string& t : toks) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::string signature_key(const Function& fn) {
  std::string key = fn.name + "/";
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    if (i) key += ',';
    key += fn.params[i].core;
  }
  return key;
}

// ---- Summary / Model -------------------------------------------------------

void Summary::merge_from(const Summary& o) {
  returns_secret |= o.returns_secret;
  sink_params |= o.sink_params;
  for (const auto& [idx, info] : o.sink_info) sink_info.emplace(idx, info);
  ct_params |= o.ct_params;
  for (const auto& [idx, info] : o.ct_info) ct_info.emplace(idx, info);
}

std::optional<Summary> Model::lookup(
    const std::string& name, std::size_t arity,
    const std::vector<std::string>& arg_cores) const {
  const auto it = overloads.find(name + "/" + std::to_string(arity));
  if (it == overloads.end()) return std::nullopt;

  // Candidate keys whose parameter cores are compatible with the (possibly
  // unknown) argument cores. Cores compare by their last token so namespace
  // qualification at one site but not the other ("mpc TripletShare" vs
  // "TripletShare") still matches.
  const auto last_tok = [](const std::string& c) {
    const std::size_t sp = c.rfind(' ');
    return sp == std::string::npos ? c : c.substr(sp + 1);
  };
  std::vector<const Summary*> compatible;
  for (const std::string& key : it->second) {
    const auto sit = summaries.find(key);
    if (sit == summaries.end()) continue;
    const auto cores = split_args(key.substr(name.size() + 1));
    bool ok = true;
    for (std::size_t i = 0; i < arity && i < arg_cores.size(); ++i) {
      const std::string pc = i < cores.size() ? cores[i] : "";
      if (!arg_cores[i].empty() && !pc.empty() &&
          last_tok(arg_cores[i]) != last_tok(pc)) {
        ok = false;
        break;
      }
    }
    if (ok) compatible.push_back(&sit->second);
  }
  // Every candidate positively mismatched a known argument type: the call
  // binds to something this model cannot see (e.g. an overload with
  // defaulted parameters has a different declared arity). Treat as unknown
  // rather than smearing the wrong overload's summary over the call.
  if (compatible.empty()) return std::nullopt;
  Summary merged;
  for (const Summary* s : compatible) merged.merge_from(*s);
  return merged;
}

// ---- phase 1: global annotation / declaration scan -------------------------

void scan_declarations(const std::string& path,
                       const std::vector<std::string>& clean, Model& model) {
  // The annotation header itself defines the macros; skip it.
  if (path_ends_with(path, "common/taint.hpp")) return;

  for (std::size_t li = 0; li < clean.size(); ++li) {
    // Join a short window so a signature split across lines still shows its
    // name and opening paren.
    std::string w = clean[li];
    for (std::size_t k = 1; k <= 2 && li + k < clean.size(); ++k) {
      w += ' ';
      w += clean[li + k];
    }

    std::size_t pos = 0;
    while ((pos = w.find("PSML_SECRET", pos)) != std::string::npos) {
      const std::size_t after = pos + 11;
      if ((pos > 0 && ident_char(w[pos - 1])) ||
          (after < w.size() && ident_char(w[after]))) {
        pos = after;
        continue;
      }
      // `struct PSML_SECRET Name` / `class PSML_SECRET Name`
      const std::size_t before = skip_spaces_back(w, pos == 0 ? 0 : pos - 1);
      const std::string prev =
          before == std::string::npos ? "" : ident_ending_at(w, before);
      std::size_t i = skip_spaces_fwd(w, after);
      std::string tok = ident_starting_at(w, i);
      if (prev == "struct" || prev == "class") {
        if (!tok.empty()) model.secret_types.insert(tok);
        pos = after;
        continue;
      }
      // `PSML_SECRET struct Name` (alternate order)
      if (tok == "struct" || tok == "class") {
        i = skip_spaces_fwd(w, i + tok.size());
        tok = ident_starting_at(w, i);
        if (!tok.empty()) model.secret_types.insert(tok);
        pos = after;
        continue;
      }
      // Function annotation: first meaningful token decides the mode (void ->
      // out-parameter convention), the identifier before '(' is the name.
      bool is_void = false;
      std::size_t j = i;
      while (true) {
        const std::string q = ident_starting_at(w, j);
        if (q.empty()) break;
        if (qualifier_tokens().count(q)) {
          j = skip_spaces_fwd(w, j + q.size());
          continue;
        }
        is_void = (q == "void");
        break;
      }
      const std::size_t open = w.find('(', i);
      if (open != std::string::npos) {
        const std::size_t e = skip_spaces_back(w, open == 0 ? 0 : open - 1);
        const std::string name =
            e == std::string::npos ? "" : ident_ending_at(w, e);
        if (!name.empty() && !keywords().count(name)) {
          (is_void ? model.taintout_fns : model.secret_fns).insert(name);
        }
      }
      pos = after;
    }
  }
}

void scan_secret_returns(const std::vector<std::string>& clean, Model& model) {
  for (const std::string& line : clean) {
    std::size_t earliest = std::string::npos;
    for (const std::string& t : model.secret_types) {
      std::size_t p = 0;
      while ((p = line.find(t, p)) != std::string::npos) {
        const std::size_t after = p + t.size();
        if ((p == 0 || !ident_char(line[p - 1])) &&
            (after >= line.size() || !ident_char(line[after]))) {
          earliest = std::min(earliest, p);
          break;
        }
        p = after;
      }
    }
    if (earliest == std::string::npos) continue;
    std::size_t open = line.find('(', earliest);
    while (open != std::string::npos) {
      const std::size_t e = skip_spaces_back(line, open == 0 ? 0 : open - 1);
      if (e != std::string::npos && ident_char(line[e])) {
        const std::string name = ident_ending_at(line, e);
        // Only names with the secret type strictly before them (return type
        // position), never keywords.
        if (!name.empty() && !keywords().count(name) &&
            name != "move" && name != "forward" &&
            e + 1 > earliest + name.size() &&
            !model.secret_types.count(name)) {
          model.secret_fns.insert(name);
        }
      }
      open = line.find('(', open + 1);
    }
  }
}

// ---- phase 2: function extraction ------------------------------------------

namespace {

bool parse_header(std::string buf, const std::string& file, std::size_t line,
                  Function& fn, const Model& model) {
  // Cut a constructor initializer list: first top-level ':' not part of '::'.
  int depth = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const char c = buf[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c == ':' && depth == 0) {
      const bool dbl = (i + 1 < buf.size() && buf[i + 1] == ':') ||
                       (i > 0 && buf[i - 1] == ':');
      if (!dbl) {
        buf = buf.substr(0, i);
        break;
      }
      if (i + 1 < buf.size() && buf[i + 1] == ':') ++i;
    }
  }

  std::size_t close = buf.rfind(')');
  std::string name;
  std::size_t open = std::string::npos;
  while (close != std::string::npos) {
    int d = 1;
    open = std::string::npos;
    for (std::size_t i = close; i-- > 0;) {
      if (buf[i] == ')') ++d;
      if (buf[i] == '(' && --d == 0) {
        open = i;
        break;
      }
    }
    if (open == std::string::npos) return false;
    const std::size_t e = skip_spaces_back(buf, open == 0 ? 0 : open - 1);
    name = e == std::string::npos ? "" : ident_ending_at(buf, e);
    // Skip trailing specifier groups and retry with an earlier ')'.
    // PSML_* covers the concurrency-contract annotations (PSML_REQUIRES,
    // PSML_ACQUIRE, ...) that trail definitions in annotated TUs; without
    // this they would parse as a function named after the macro.
    if (name == "noexcept" || name == "decltype" || name == "throw" ||
        name == "alignas" || name.rfind("PSML_", 0) == 0) {
      close = open == 0 ? std::string::npos : buf.rfind(')', open);
      continue;
    }
    break;
  }
  if (close == std::string::npos || open == std::string::npos) return false;
  if (name.empty() || keywords().count(name)) return false;

  const std::string head = buf.substr(0, open - name.size() >= buf.size()
                                             ? 0
                                             : open >= name.size()
                                                   ? open - name.size()
                                                   : 0);
  // `auto f = ...(` style is an assignment, not a definition.
  int hd = 0;
  for (char c : head) {
    if (c == '(' || c == '[' || c == '<') ++hd;
    if (c == ')' || c == ']' || c == '>') --hd;
    if (c == '=' && hd == 0) return false;
  }

  fn.name = name;
  fn.file = file;
  fn.line = line;
  const std::string params = buf.substr(open + 1, close - open - 1);
  for (std::string p : split_args(params)) {
    const std::size_t eq = p.find('=');
    if (eq != std::string::npos) p = p.substr(0, eq);
    p = trim(p);
    if (p.empty() || p == "void") continue;
    Param prm;
    prm.name = last_ident(p);
    prm.type = p;
    prm.core = core_type(p, prm.name);
    prm.pinned = has_token(p, "PSML_PUBLIC");
    prm.secret = has_token(p, "PSML_SECRET");
    if (!prm.secret) {
      for (const std::string& t : model.secret_types) {
        if (has_token(p, t)) {
          prm.secret = true;
          break;
        }
      }
    }
    fn.params.push_back(std::move(prm));
  }
  return true;
}

}  // namespace

void extract_functions(const std::string& path,
                       const std::vector<std::string>& clean,
                       const Model& model, std::vector<Function>& out) {
  std::string buf;
  std::size_t buf_line = 0;
  int paren = 0;
  int brace = 0;
  long fn_index = -1;
  int fn_close = 0;
  bool pp_cont = false;

  auto flush = [&](std::vector<Function>& fns, Stmt::Kind kind) {
    const std::string text = trim(buf);
    buf.clear();
    paren = 0;
    if (fn_index < 0) return;
    if (text.empty() && kind == Stmt::kNormal) return;
    fns[static_cast<std::size_t>(fn_index)].stmts.push_back(
        Stmt{kind, text, buf_line});
  };

  for (std::size_t li = 0; li < clean.size(); ++li) {
    const std::string& line = clean[li];
    const std::size_t first = line.find_first_not_of(" \t");
    if (pp_cont || (first != std::string::npos && line[first] == '#')) {
      pp_cont = !line.empty() && line.back() == '\\';
      continue;
    }
    for (char c : line) {
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        if (paren > 0) --paren;
      } else if (c == ';' && paren == 0) {
        flush(out, Stmt::kNormal);
        continue;
      } else if (c == '{') {
        if (fn_index >= 0) {
          flush(out, Stmt::kBlockOpen);
        } else {
          Function fn;
          if (parse_header(trim(buf), path, buf_line, fn, model)) {
            out.push_back(std::move(fn));
            fn_index = static_cast<long>(out.size()) - 1;
            fn_close = brace;
          }
          buf.clear();
          paren = 0;
        }
        ++brace;
        continue;
      } else if (c == '}') {
        if (brace > 0) --brace;
        if (fn_index >= 0) {
          if (brace == fn_close) {
            flush(out, Stmt::kNormal);
            fn_index = -1;
          } else {
            flush(out, Stmt::kBlockClose);
          }
        } else {
          buf.clear();
          paren = 0;
        }
        continue;
      } else if (c == ':' && fn_index < 0 && paren == 0) {
        // Access-specifier labels never end in ';', so without this the
        // label would prefix the next header ("public: void f()") and the
        // first method after it would silently fail parse_header.
        const std::string t = trim(buf);
        if (t == "public" || t == "protected" || t == "private") {
          buf.clear();
          continue;
        }
      }
      if (buf.empty() && c != ' ' && c != '\t') buf_line = li + 1;
      if (!(buf.empty() && (c == ' ' || c == '\t'))) buf += c;
    }
    if (!buf.empty()) buf += ' ';
  }
}

std::optional<Program> load_program(const std::vector<fs::path>& files,
                                    const char* tool) {
  Program prog;
  prog.model = seeded_model();
  for (const fs::path& f : files) {
    auto lines = read_lines(f);
    if (!lines) {
      std::fprintf(stderr, "%s: cannot read %s\n", tool, f.string().c_str());
      return std::nullopt;
    }
    prog.stripped.emplace_back(f.generic_string(), strip_source(*lines));
  }
  for (const auto& [path, clean] : prog.stripped) {
    scan_declarations(path, clean, prog.model);
  }
  for (const auto& [path, clean] : prog.stripped) {
    scan_secret_returns(clean, prog.model);
  }
  for (const auto& [path, clean] : prog.stripped) {
    extract_functions(path, clean, prog.model, prog.functions);
  }
  for (const Function& fn : prog.functions) {
    auto& keys = prog.model.overloads[fn.name + "/" +
                                      std::to_string(fn.params.size())];
    const std::string key = signature_key(fn);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return prog;
}

// ---- per-function dataflow engine ------------------------------------------

FlowAnalysis::FlowAnalysis(const Function& fn, Model& model)
    : fn_(fn), model_(model) {}

Summary FlowAnalysis::run() {
  for (std::size_t i = 0; i < fn_.params.size(); ++i) {
    const Param& p = fn_.params[i];
    if (p.name.empty()) continue;
    var_type_[p.name] = p.type;
    if (p.pinned) {
      pinned_.insert(p.name);
      continue;
    }
    std::uint64_t t = 0;
    if (i < static_cast<std::size_t>(kMaxParams)) t |= 1ull << i;
    if (p.secret) t |= kSecret;
    env_[p.name] = t;
  }
  for (const Stmt& s : fn_.stmts) {
    if (s.kind == Stmt::kBlockOpen) {
      process(s);
      block_path_.push_back(next_block_id_++);
      on_block_open(s);
      continue;
    }
    if (s.kind == Stmt::kBlockClose) {
      if (!block_path_.empty()) block_path_.pop_back();
      on_block_close();
      continue;
    }
    process(s);
  }
  after_stmts();
  return summary_;
}

std::string FlowAnalysis::where(std::size_t line) const {
  return fn_.file + ":" + std::to_string(line);
}

std::string FlowAnalysis::blank_declassifiers(std::string s) const {
  for (const std::string& d : declassifier_fns()) {
    std::size_t pos = 0;
    while ((pos = s.find(d, pos)) != std::string::npos) {
      const std::size_t after = pos + d.size();
      if ((pos > 0 && ident_char(s[pos - 1])) ||
          (after < s.size() && ident_char(s[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = skip_spaces_fwd(s, after);
      if (open >= s.size() || s[open] != '(') {
        pos = after;
        continue;
      }
      const std::size_t end = match_paren(s, open);
      if (end == std::string::npos) break;
      for (std::size_t i = pos; i < end; ++i) s[i] = ' ';
      pos = end;
    }
  }
  return s;
}

std::string FlowAnalysis::expr_core(const std::string& expr) const {
  const std::string t = trim(expr);
  for (char c : t) {
    if (!ident_char(c)) return "";
  }
  const auto it = var_type_.find(t);
  if (it == var_type_.end()) return "";
  // Parameter entries hold the full declarator ("Channel& ch"); pass the
  // variable name so it is dropped from the core.
  const std::string core = core_type(it->second, t);
  return core == "auto" ? "" : core;
}

std::vector<std::string> FlowAnalysis::arg_cores(
    const std::string& args_text) const {
  std::vector<std::string> out;
  for (const std::string& a : split_args(args_text)) {
    out.push_back(expr_core(a));
  }
  return out;
}

std::optional<Summary> FlowAnalysis::call_summary(
    const std::string& name, const std::string& args_text) const {
  return model_.lookup(name, split_args(args_text).size(),
                       arg_cores(args_text));
}

std::uint64_t FlowAnalysis::chain_taint(const std::string& s,
                                        std::size_t ident_begin,
                                        const std::string& root,
                                        std::size_t* next) {
  std::size_t i = ident_begin + root.size();
  std::uint64_t t = 0;
  const bool is_call_head =
      skip_spaces_fwd(s, i) < s.size() && s[skip_spaces_fwd(s, i)] == '(';
  if (is_call_head) {
    i = skip_spaces_fwd(s, i);
    const std::size_t end = match_paren(s, i);
    const std::string args_text =
        end == std::string::npos ? "" : s.substr(i + 1, end - i - 2);
    // std::move / std::forward are transparent: their taint is exactly the
    // argument's. They must never pick up secret_fns/summary entries (a
    // brace-init like `TripletShare{std::move(x), ...}` would otherwise
    // poison `move` as a secret-returning function for the whole tree).
    if (root == "move" || root == "forward") {
      *next = end == std::string::npos ? s.size() : end;
      return expr_taint(args_text, 1);
    }
    if (model_.secret_fns.count(root) || model_.secret_types.count(root)) {
      t |= kSecret;
    }
    const auto sum = call_summary(root, args_text);
    if (sum && sum->returns_secret) t |= kSecret;
    i = end == std::string::npos ? s.size() : end;
  } else {
    if (!pinned_.count(root)) {
      const auto it = env_.find(root);
      if (it != env_.end()) t |= it->second;
      if (model_.secret_types.count(root)) t |= kSecret;
    }
  }
  // Walk `.member` / `->member` / method-call links.
  for (;;) {
    std::size_t j = skip_spaces_fwd(s, i);
    if (j < s.size() && s[j] == '.') {
      j += 1;
    } else if (j + 1 < s.size() && s[j] == '-' && s[j + 1] == '>') {
      j += 2;
    } else {
      break;
    }
    j = skip_spaces_fwd(s, j);
    const std::string m = ident_starting_at(s, j);
    if (m.empty()) break;
    std::size_t k = skip_spaces_fwd(s, j + m.size());
    if (k < s.size() && s[k] == '(') {
      if (metadata_methods().count(m)) {
        t = 0;  // shapes / counts are public
      } else if (accessor_methods().count(m) ||
                 model_.secret_fns.count(m)) {
        t |= kSecret;
      }
      const std::size_t end = match_paren(s, k);
      i = end == std::string::npos ? s.size() : end;
    } else {
      i = j + m.size();
    }
  }
  *next = i;
  return t;
}

std::uint64_t FlowAnalysis::expr_taint(const std::string& raw, int depth) {
  if (depth > 6) return 0;
  std::string s = blank_declassifiers(raw);

  // ring_sub(x, mask): a secret subtrahend blinds the result.
  std::size_t pos = 0;
  while ((pos = s.find("ring_sub", pos)) != std::string::npos) {
    const std::size_t after = pos + 8;
    if ((pos > 0 && ident_char(s[pos - 1])) ||
        (after < s.size() && ident_char(s[after]))) {
      pos = after;
      continue;
    }
    const std::size_t open = skip_spaces_fwd(s, after);
    if (open >= s.size() || s[open] != '(') {
      pos = after;
      continue;
    }
    const std::size_t end = match_paren(s, open);
    if (end == std::string::npos) break;
    const auto args = split_args(s.substr(open + 1, end - open - 2));
    if (args.size() >= 2 && (expr_taint(args[1], depth + 1) & kSecret)) {
      for (std::size_t i = pos; i < end; ++i) s[i] = ' ';
    }
    pos = end;
  }

  std::uint64_t t = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    if (!ident_char(s[i]) || (s[i] >= '0' && s[i] <= '9')) {
      ++i;
      continue;
    }
    const std::string name = ident_starting_at(s, i);
    const std::size_t prev =
        i == 0 ? std::string::npos : skip_spaces_back(s, i - 1);
    const bool member_link =
        prev != std::string::npos && (s[prev] == '.' || s[prev] == '>');
    const bool ns_link = prev != std::string::npos && s[prev] == ':';
    if (member_link || keywords().count(name)) {
      i += name.size();  // members handled by their chain root
      continue;
    }
    if (ns_link) {
      // Qualified name: only meaningful if it heads a call chain.
      std::size_t j = skip_spaces_fwd(s, i + name.size());
      if (j >= s.size() || s[j] != '(') {
        i += name.size();
        continue;
      }
    }
    std::size_t next = i + name.size();
    t |= chain_taint(s, i, name, &next);
    i = std::max(next, i + name.size());
  }
  return t;
}

std::string FlowAnalysis::secret_witness(const std::string& raw) {
  std::string s = blank_declassifiers(raw);
  std::size_t i = 0;
  while (i < s.size()) {
    if (!ident_char(s[i]) || (s[i] >= '0' && s[i] <= '9')) {
      ++i;
      continue;
    }
    const std::string name = ident_starting_at(s, i);
    const std::size_t prev =
        i == 0 ? std::string::npos : skip_spaces_back(s, i - 1);
    const bool member_link =
        prev != std::string::npos && (s[prev] == '.' || s[prev] == '>');
    if (member_link || keywords().count(name)) {
      i += name.size();
      continue;
    }
    std::size_t next = i + name.size();
    if (chain_taint(s, i, name, &next) & kSecret) return name;
    i = std::max(next, i + name.size());
  }
  return "value";
}

std::string FlowAnalysis::triplet_member(const std::string& text) const {
  std::size_t i = 0;
  while (i < text.size()) {
    if (!ident_char(text[i]) || (text[i] >= '0' && text[i] <= '9')) {
      ++i;
      continue;
    }
    const std::string root = ident_starting_at(text, i);
    std::size_t j = skip_spaces_fwd(text, i + root.size());
    if (j < text.size() && text[j] == '.') {
      j = skip_spaces_fwd(text, j + 1);
      const std::string m = ident_starting_at(text, j);
      // Beaver triplet members, and the layer material's correlated
      // members (mpc::LayerShare): each masks or completes one product.
      if ((m == "u" || m == "v" || m == "z" || m == "v2" || m == "z_dw" ||
           m == "z_dx") &&
          (j + m.size() >= text.size() ||
           !ident_char(text[j + m.size()]))) {
        const auto vt = var_type_.find(root);
        const bool triplet_typed =
            vt != var_type_.end() && vt->second.find("Triplet") !=
                                         std::string::npos;
        const auto et = env_.find(root);
        const bool secret = et != env_.end() && (et->second & kSecret);
        if (triplet_typed || secret ||
            root.find("triplet") != std::string::npos) {
          return root + "." + m;
        }
      }
    }
    i += root.size();
  }
  return "";
}

// ---- statement dispatch ----------------------------------------------------

std::size_t FlowAnalysis::top_level_assign(const std::string& t) {
  int depth = 0;
  int angle = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == '<') ++angle;
    if (c == '>') angle = std::max(0, angle - 1);
    if (c == '=' && depth == 0 && angle == 0) {
      const char prev = i > 0 ? t[i - 1] : '\0';
      const char next = i + 1 < t.size() ? t[i + 1] : '\0';
      if (next == '=' || prev == '=' || prev == '!' || prev == '<' ||
          prev == '>') {
        if (next == '=') ++i;
        continue;
      }
      return i;
    }
  }
  return std::string::npos;
}

bool FlowAnalysis::is_compound(const std::string& t, std::size_t eq) {
  const char prev = eq > 0 ? t[eq - 1] : '\0';
  return prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
         prev == '%' || prev == '|' || prev == '&' || prev == '^';
}

std::vector<std::string> FlowAnalysis::binding_names(const std::string& lhs) {
  std::vector<std::string> out;
  const std::size_t ob = lhs.find('[');
  const std::size_t cb = lhs.rfind(']');
  if (ob != std::string::npos && cb != std::string::npos && cb > ob &&
      lhs.find("auto") != std::string::npos) {
    for (const std::string& part :
         split_args(lhs.substr(ob + 1, cb - ob - 1))) {
      const std::string n = trim(part);
      if (!n.empty()) out.push_back(n);
    }
    return out;
  }
  const std::string n = last_ident(lhs);
  if (!n.empty()) out.push_back(n);
  return out;
}

void FlowAnalysis::process(const Stmt& s) {
  const std::string& t = s.text;
  if (t.empty()) return;

  on_stmt(s);

  // return <expr>
  if (t.rfind("return", 0) == 0 &&
      (t.size() == 6 || !ident_char(t[6]))) {
    if ((expr_taint(t.substr(6)) | implicit_taint()) & kSecret) {
      summary_.returns_secret = true;
    }
    return;
  }

  // Range-for binding: for (auto& x : range)
  if (t.rfind("for", 0) == 0) {
    const std::size_t open = t.find('(');
    if (open != std::string::npos) {
      const std::size_t end = match_paren(t, open);
      const std::string inner =
          t.substr(open + 1, (end == std::string::npos ? t.size() : end - 1) -
                                 open - 1);
      int d = 0;
      for (std::size_t i = 0; i < inner.size(); ++i) {
        const char c = inner[i];
        if (c == '(' || c == '[' || c == '<') ++d;
        if (c == ')' || c == ']' || c == '>') --d;
        if (c == ':' && d == 0 &&
            (i + 1 >= inner.size() || inner[i + 1] != ':') &&
            (i == 0 || inner[i - 1] != ':')) {
          const std::uint64_t rt = expr_taint(inner.substr(i + 1));
          for (const std::string& n :
               binding_names(inner.substr(0, i))) {
            if (!n.empty() && !pinned_.count(n)) {
              env_[n] |= rt | implicit_taint();
            }
          }
          break;
        }
      }
    }
    return;
  }

  // rng-style out-parameter fills: fill_*(dst, ...) taints dst.
  for (const std::string& f : model_.taintout_fns) {
    std::size_t pos = 0;
    while ((pos = t.find(f, pos)) != std::string::npos) {
      const std::size_t after = pos + f.size();
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
        if (!args.empty()) {
          const std::string dst = root_ident(args[0]);
          if (!dst.empty() && !pinned_.count(dst)) {
            env_[dst] |= kSecret | implicit_taint();
          }
        }
      }
      pos = after;
    }
  }

  // tensor-style out-parameter ops (out = last argument). sub/sub_par with
  // a secret subtrahend is the masking declassifier.
  static const std::set<std::string> mask_ops{"sub", "sub_par"};
  static const std::set<std::string> or_ops{
      "add",       "add_par",      "hadamard",      "hadamard_par",
      "scale",     "scale_par",    "axpy",          "axpy_par",
      "gemm_naive", "gemm_blocked", "gemm_parallel"};
  std::size_t i = 0;
  while (i < t.size()) {
    if (!ident_char(t[i]) || (t[i] >= '0' && t[i] <= '9')) {
      ++i;
      continue;
    }
    const std::string name = ident_starting_at(t, i);
    const std::size_t open = skip_spaces_fwd(t, i + name.size());
    const bool is_mask = mask_ops.count(name) != 0;
    if ((is_mask || or_ops.count(name)) && open < t.size() &&
        t[open] == '(') {
      const std::size_t end = match_paren(t, open);
      const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
      const auto args = split_args(t.substr(open + 1, stop - open - 1));
      if (args.size() >= 2) {
        const std::string out_root = root_ident(args.back());
        const std::string out_last = last_ident(args.back());
        std::uint64_t rt = 0;
        bool masked = false;
        if (is_mask && args.size() >= 3) {
          const std::uint64_t sub_t = expr_taint(args[1]);
          if (sub_t & kSecret) {
            masked = true;
            const std::string member = triplet_member(args[1]);
            on_mask(out_root, s.line, !member.empty());
            on_consume(member, out_root, s.line);
          } else {
            rt = expr_taint(args[0]) | sub_t;
          }
        } else {
          for (std::size_t ai = 0; ai + 1 < args.size(); ++ai) {
            rt |= expr_taint(args[ai]);
            on_consume(triplet_member(args[ai]), out_root, s.line);
          }
        }
        if (!out_root.empty() && !pinned_.count(out_root)) {
          const bool member_out = out_root != out_last;
          if (masked && !member_out) {
            env_[out_root] = implicit_taint();
          } else if (name == "axpy" || name == "axpy_par" || member_out) {
            env_[out_root] |= rt | implicit_taint();
          } else {
            env_[out_root] = rt | implicit_taint();
          }
        }
        i = stop;
        continue;
      }
    }
    i += name.size();
  }

  // PSML_PUBLIC pins a variable clean for the rest of the function.
  if (has_token(t, "PSML_PUBLIC")) {
    const std::size_t eq = top_level_assign(t);
    const std::string lhs = eq == std::string::npos ? t : t.substr(0, eq);
    const std::string n = last_ident(lhs);
    if (!n.empty()) {
      pinned_.insert(n);
      env_.erase(n);
    }
    return;
  }

  const std::size_t eq = top_level_assign(t);
  if (eq != std::string::npos) {
    handle_assignment(s, t.substr(0, eq), t.substr(eq + 1),
                      eq > 0 && is_compound(t, eq));
    return;
  }
  handle_declaration_or_call(s);
}

void FlowAnalysis::handle_assignment(const Stmt& s, const std::string& lhs,
                                     const std::string& rhs, bool compound) {
  std::uint64_t rt = expr_taint(rhs) | implicit_taint();
  if (has_token(lhs, "PSML_SECRET")) rt |= kSecret;
  for (const std::string& st : model_.secret_types) {
    if (has_token(lhs, st)) {
      rt |= kSecret;
      break;
    }
  }

  const std::vector<std::string> names = binding_names(lhs);
  const std::string lhs_last = names.size() == 1 ? names[0] : "";
  const std::string lhs_root = root_ident(lhs);

  // Record a declared type when the lhs is a declaration.
  if (!lhs_last.empty()) {
    const std::size_t at = lhs.rfind(lhs_last);
    const std::string type_text = trim(lhs.substr(0, at));
    if (!type_text.empty() && type_text.find('.') == std::string::npos) {
      var_type_[lhs_last] = type_text;
    }
  }

  on_consume(triplet_member(rhs),
             lhs_last.empty() ? lhs_root : lhs_last, s.line);

  // ring_sub masking in the rhs establishes a protocol mask event.
  if (rhs.find("ring_sub") != std::string::npos) {
    const std::size_t open = rhs.find('(', rhs.find("ring_sub"));
    if (open != std::string::npos) {
      const std::size_t end = match_paren(rhs, open);
      if (end != std::string::npos) {
        const auto args = split_args(rhs.substr(open + 1, end - open - 2));
        if (args.size() >= 2 && (expr_taint(args[1]) & kSecret)) {
          const std::string member = triplet_member(args[1]);
          on_mask(lhs_last.empty() ? lhs_root : lhs_last, s.line,
                  !member.empty());
        }
      }
    }
  }

  if (names.size() > 1) {
    for (const std::string& n : names) {
      if (!pinned_.count(n)) env_[n] = rt;
    }
    return;
  }
  if (lhs_last.empty()) return;
  // A '.' or '->' in the lhs is a member write (`p.s1 = ...`): weak update
  // on the owning object. (A differing root/last ident alone is NOT enough
  // — in `float y = ...` the root is the declared type.)
  if (lhs.find('.') != std::string::npos ||
      lhs.find("->") != std::string::npos) {
    if (!lhs_root.empty() && !pinned_.count(lhs_root)) {
      env_[lhs_root] |= rt;
    }
    return;
  }
  if (pinned_.count(lhs_last)) return;
  if (compound) {
    env_[lhs_last] |= rt;
  } else {
    env_[lhs_last] = rt;
  }
}

void FlowAnalysis::handle_declaration_or_call(const Stmt& s) {
  const std::string& t = s.text;
  const std::size_t open = t.find('(');
  if (open != std::string::npos) {
    const std::size_t e = skip_spaces_back(t, open == 0 ? 0 : open - 1);
    if (e == std::string::npos || !ident_char(t[e])) return;
    const std::string name = ident_ending_at(t, e);
    if (name.empty() || keywords().count(name)) return;
    const std::size_t before_name =
        e + 1 >= name.size() ? e + 1 - name.size() : 0;
    const std::size_t p =
        before_name == 0 ? std::string::npos
                         : skip_spaces_back(t, before_name - 1);
    const bool qualified = p != std::string::npos && t[p] == ':';
    const bool preceded_by_type =
        p != std::string::npos && !qualified &&
        (ident_char(t[p]) || t[p] == '>' || t[p] == '&' || t[p] == '*');
    if (!preceded_by_type) return;  // plain call; on_stmt already ran
    // Constructor-style declaration: Type name(args).
    const std::size_t end = match_paren(t, open);
    const std::size_t stop = end == std::string::npos ? t.size() : end - 1;
    std::uint64_t rt = implicit_taint();
    for (const std::string& a :
         split_args(t.substr(open + 1, stop - open - 1))) {
      rt |= expr_taint(a);
    }
    const std::string type_text = t.substr(0, before_name);
    for (const std::string& st : model_.secret_types) {
      if (has_token(type_text, st)) {
        rt |= kSecret;
        break;
      }
    }
    var_type_[name] = trim(type_text);
    if (!pinned_.count(name)) env_[name] = rt;
    return;
  }
  // Plain declaration: `Type a, b;` — possibly comma-chained.
  const auto parts = split_args(t);
  std::string first_type;
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const std::string part = trim(parts[pi]);
    const std::string n = last_ident(part);
    if (n.empty()) continue;
    std::string type_text;
    if (pi == 0) {
      const std::size_t at = part.rfind(n);
      type_text = trim(part.substr(0, at));
      first_type = type_text;
    } else {
      type_text = first_type;
    }
    if (type_text.empty()) continue;  // bare expression statement
    std::uint64_t rt = 0;
    for (const std::string& st : model_.secret_types) {
      if (has_token(type_text, st) ||
          (pi == 0 && has_token(part, "PSML_SECRET"))) {
        rt |= kSecret;
        break;
      }
    }
    var_type_[n] = type_text;
    if (!pinned_.count(n)) env_[n] = rt;
  }
}

// ---- fixpoint --------------------------------------------------------------

void solve_summaries(Program& prog,
                     Summary (*analyze)(const Function&, Model&)) {
  for (int iter = 0; iter < 12; ++iter) {
    const auto before = prog.model.summaries;
    for (const Function& fn : prog.functions) {
      const Summary s = analyze(fn, prog.model);
      prog.model.summaries[signature_key(fn)].merge_from(s);
    }
    if (prog.model.summaries == before) break;
  }
}

}  // namespace psml::lint::model
