// esrp_lint — the project-specific determinism & concurrency checker.
//
// Generic tools prove lock discipline (clang -Wthread-safety) and catch bug
// patterns (clang-tidy); this tool enforces the contracts only this codebase
// knows about — the bitwise-determinism rules of docs/parallelism.md and the
// annotated-primitive discipline of common/thread_annotations.hpp:
//
//   fp-accumulate       no raw floating-point accumulation loops and no
//                       std::accumulate/std::reduce outside the blessed
//                       kernel layers (common/, parallel/, sparse/,
//                       precond/). Global FP reductions must flow through
//                       parallel_reduce's fixed-grain chunking or they stop
//                       being bitwise reproducible across thread counts.
//   unordered-container no std::unordered_{map,set,...} anywhere: iteration
//                       order is implementation-defined, which is ordering
//                       nondeterminism waiting to be summed over.
//   raw-rng             no rand()/srand()/std::random_device/time()/clock()
//                       outside common/rng.hpp — every random draw must be
//                       a seeded, platform-invariant esrp::Rng.
//   raw-thread          no naked std::thread/std::jthread/.detach() outside
//                       src/parallel — concurrency goes through the
//                       ThreadPool (or a blessed session worker).
//   atomic-fp           no std::atomic<double/float/real_t>: concurrent FP
//                       accumulation into an atomic is both slow and
//                       ordering-nondeterministic.
//   raw-mutex           no std::mutex/std::condition_variable/lock_guard/...
//                       outside common/thread_annotations.hpp — only the
//                       annotated esrp::Mutex/MutexLock/CondVar wrappers are
//                       visible to clang's thread safety analysis.
//
// Blessing an exception: append `// esrp-lint: allow(<rule>)` to the line
// (or the line directly above) with a comment saying why. Every finding
// prints as `path:line: [rule] message`; exit status is non-zero iff an
// unblessed finding exists.
//
// Usage:
//   esrp_lint [--root DIR] [--expect RULE]... PATH...
//
// PATHs are files or directories (recursed for .hpp/.h/.cpp/.cc), resolved
// against --root (default: cwd). With --expect, the tool instead *requires*
// at least one finding of each named rule and exits zero when all tripped —
// this is how the must-fail fixtures under tests/analysis/fixtures/ pin
// that each rule actually bites (registered as CTest tests).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Line {
  std::string code;    // source text with comments and literals blanked
  std::string comment; // comment text of this line (for allow markers)
};

struct Finding {
  std::string file; // path relative to the scan root
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Strip comments, string literals, and char literals, keeping line
/// structure. Literal/comment bodies are replaced by spaces so column-free
/// regexes cannot match inside them; comment text is preserved separately
/// per line so blessing markers stay visible. Raw strings are handled as
/// plain strings, which is exact as long as the body contains no '"' — true
/// for every raw string in this repo (they are all regex patterns).
std::vector<Line> lex(const std::string& text) {
  std::vector<Line> lines(1);
  enum class State { code, line_comment, block_comment, string_lit, char_lit };
  State st = State::code;
  bool escaped = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (st == State::line_comment) st = State::code;
      // Unterminated string/char literals do not survive a newline either.
      if (st == State::string_lit || st == State::char_lit) st = State::code;
      escaped = false;
      lines.emplace_back();
      continue;
    }
    switch (st) {
      case State::code:
        if (c == '/' && next == '/') {
          st = State::line_comment;
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::block_comment;
          ++i;
        } else if (c == '"') {
          st = State::string_lit;
          lines.back().code += ' ';
        } else if (c == '\'') {
          st = State::char_lit;
          lines.back().code += ' ';
        } else {
          lines.back().code += c;
        }
        break;
      case State::line_comment:
        lines.back().comment += c;
        break;
      case State::block_comment:
        if (c == '*' && next == '/') {
          st = State::code;
          ++i;
        } else {
          lines.back().comment += c;
        }
        break;
      case State::string_lit:
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          st = State::code;
        }
        lines.back().code += ' ';
        break;
      case State::char_lit:
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '\'') {
          st = State::code;
        }
        lines.back().code += ' ';
        break;
    }
  }
  return lines;
}

/// Rules blessed for line N by a marker on line N or N-1 (1-based index
/// into `allows`, which holds the parsed marker of each line).
bool is_allowed(const std::vector<std::set<std::string>>& allows,
                std::size_t line, const std::string& rule) {
  const auto check = [&](std::size_t l) {
    return l >= 1 && l <= allows.size() &&
           (allows[l - 1].count(rule) != 0 || allows[l - 1].count("*") != 0);
  };
  return check(line) || check(line - 1);
}

bool path_starts_with(const std::string& rel, const char* prefix) {
  return rel.rfind(prefix, 0) == 0;
}

/// The simple regex-per-line rules. The fp-accumulate loop detector is
/// stateful and lives in scan_file below.
struct TokenRule {
  const char* id;
  std::regex pattern;
  const char* message;
  /// Returns true when `rel` (root-relative path, '/'-separated) is exempt.
  bool (*exempt)(const std::string& rel);
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"fp-accumulate",
                 std::regex(R"(std::(accumulate|reduce|transform_reduce)\b)"),
                 "accumulate/reduce bypasses the fixed-grain parallel_reduce "
                 "determinism contract (use common/fused or "
                 "parallel/parallel_reduce)",
                 [](const std::string& rel) {
                   return path_starts_with(rel, "src/common/") ||
                          path_starts_with(rel, "src/parallel/");
                 }});
    r.push_back({"unordered-container",
                 std::regex(R"((std::unordered_(map|set|multimap|multiset)\b|#\s*include\s*<unordered_(map|set)>))"),
                 "unordered containers have implementation-defined iteration "
                 "order (ordering nondeterminism); use std::map/std::set or "
                 "a sorted vector",
                 [](const std::string&) { return false; }});
    r.push_back({"raw-rng",
                 std::regex(R"(\b(rand|srand)\s*\(|std::random_device\b|\btime\s*\(|\bclock\s*\()"),
                 "unseeded / platform-dependent randomness; draw from a "
                 "seeded esrp::Rng (common/rng.hpp) instead",
                 [](const std::string& rel) {
                   return rel == "src/common/rng.hpp";
                 }});
    r.push_back({"raw-thread",
                 std::regex(R"(std::thread\b|std::jthread\b|\.detach\s*\()"),
                 "naked threads outside src/parallel; run work on the "
                 "ThreadPool (parallel/thread_pool.hpp)",
                 [](const std::string& rel) {
                   return path_starts_with(rel, "src/parallel/");
                 }});
    r.push_back({"atomic-fp",
                 std::regex(R"(std::atomic\s*<\s*(float|double|long\s+double|real_t)\b)"),
                 "atomic floating-point accumulators are "
                 "ordering-nondeterministic; reduce through parallel_reduce "
                 "and fixed chunking",
                 [](const std::string&) { return false; }});
    r.push_back({"raw-mutex",
                 std::regex(R"(std::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b)"),
                 "raw standard-library synchronization is invisible to "
                 "clang's thread safety analysis; use esrp::Mutex/MutexLock/"
                 "CondVar (common/thread_annotations.hpp)",
                 [](const std::string& rel) {
                   return rel == "src/common/thread_annotations.hpp";
                 }});
    return r;
  }();
  return rules;
}

/// Dirs whose local serial loops are the blessed kernel layer for the
/// fp-accumulate *loop* detector (per-row / per-element sums that feed
/// per-index outputs, plus the reduction kernels themselves). This covers
/// the SIMD lane kernels (src/common/simd.hpp — Vec4 accumulators combined
/// in the fixed (l0+l1)+(l2+l3) lane order).
bool fp_loop_exempt_dir(const std::string& rel) {
  return path_starts_with(rel, "src/common/") ||
         path_starts_with(rel, "src/parallel/") ||
         path_starts_with(rel, "src/sparse/") ||
         path_starts_with(rel, "src/precond/");
}

void scan_file(const fs::path& root, const fs::path& file,
               std::vector<Finding>& findings) {
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open()) {
    findings.push_back({file.generic_string(), 0, "io", "cannot open file"});
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::vector<Line> lines = lex(buf.str());

  std::string rel = fs::relative(file, root).generic_string();
  // Paths outside the root (e.g. absolute fixtures) keep their own name.
  if (rel.rfind("..", 0) == 0) rel = file.generic_string();

  // Blessing markers per line.
  static const std::regex allow_re(R"(esrp-lint:\s*allow\(([^)]*)\))");
  std::vector<std::set<std::string>> allows(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i].comment, m, allow_re)) {
      std::istringstream is(m[1].str());
      std::string rule;
      while (std::getline(is, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                   rule.end());
        if (!rule.empty()) allows[i].insert(rule);
      }
    }
  }

  const auto report = [&](std::size_t line_no, const char* rule,
                          const std::string& message) {
    if (!is_allowed(allows, line_no, rule)) {
      findings.push_back({rel, line_no, rule, message});
    }
  };

  // Token rules.
  for (const TokenRule& rule : token_rules()) {
    if (rule.exempt(rel)) continue;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i].code, rule.pattern)) {
        report(i + 1, rule.id, rule.message);
      }
    }
  }

  // fp-accumulate loop detector: a scalar double/real_t declared `= 0`
  // followed (within a window) by a loop that `+=`/`-=`s into it is the
  // canonical raw reduction. Chunk bodies of parallel_reduce are the
  // sanctioned home of exactly this shape, so a `parallel_reduce` token
  // shortly before the declaration exempts the site.
  if (!fp_loop_exempt_dir(rel)) {
    static const std::regex decl_head_re(
        R"(^\s*(const\s+)?(double|float|real_t)\s)");
    static const std::regex decl_ident_re(
        R"((\w+)\s*(=\s*0(\.0*)?f?|\{\s*0(\.0*)?f?\s*\})\s*[;,)])");
    static const std::regex loop_re(R"(\b(for|while)\s*\()");
    static const std::regex reduce_re(R"(\bparallel_reduce\s*\()");
    constexpr std::size_t kWindow = 40;   // decl ... += distance, in lines
    constexpr std::size_t kContext = 10;  // parallel_reduce lookbehind

    struct Decl {
      std::size_t line;
      std::regex accum_re;
    };
    std::map<std::string, Decl> decls; // ident -> declaration site
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      if (std::regex_search(code, decl_head_re)) {
        // Blessing the declaration blesses the whole accumulation, so a
        // single marker covers every += the variable gathers later.
        if (!is_allowed(allows, i + 1, "fp-accumulate")) {
          auto begin = std::sregex_iterator(code.begin(), code.end(),
                                            decl_ident_re);
          for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string ident = (*it)[1].str();
            decls.insert_or_assign(
                ident,
                Decl{i, std::regex("(^|[^\\w.>])" + ident + R"(\s*[+-]=)")});
          }
        }
        continue; // the declaration line itself never accumulates
      }
      for (auto it = decls.begin(); it != decls.end();) {
        const Decl& d = it->second;
        if (i - d.line > kWindow) {
          it = decls.erase(it);
          continue;
        }
        bool matched = false;
        if (std::regex_search(code, d.accum_re)) {
          // Require a loop header strictly between decl and accumulation.
          bool loop_between = false;
          for (std::size_t l = d.line + 1; l <= i && !loop_between; ++l) {
            loop_between = std::regex_search(lines[l].code, loop_re);
          }
          bool reduce_context = false;
          const std::size_t lo = d.line >= kContext ? d.line - kContext : 0;
          for (std::size_t l = lo; l <= d.line && !reduce_context; ++l) {
            reduce_context = std::regex_search(lines[l].code, reduce_re);
          }
          if (loop_between && !reduce_context) {
            report(i + 1, "fp-accumulate",
                   "raw floating-point accumulation loop over '" + it->first +
                       "'; route the reduction through "
                       "parallel/parallel_reduce (fixed-grain, bitwise "
                       "reproducible) or a common/fused kernel");
            matched = true;
          }
        }
        it = matched ? decls.erase(it) : std::next(it);
      }
    }
  }
}

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

void usage() {
  std::cerr << "usage: esrp_lint [--root DIR] [--expect RULE]... PATH...\n"
               "       esrp_lint --list-rules\n";
}

} // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> expects;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      expects.emplace_back(argv[++i]);
    } else if (arg == "--list-rules") {
      for (const TokenRule& r : token_rules()) std::cout << r.id << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "esrp_lint: unknown option " << arg << '\n';
      usage();
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& input : inputs) {
    const fs::path p = input.is_absolute() ? input : root / input;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && has_source_extension(entry.path()))
          files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "esrp_lint: no such file or directory: " << p << '\n';
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const fs::path& f : files) scan_file(root, f, findings);

  for (const Finding& f : findings) {
    std::cout << f.file << ':' << f.line << ": [" << f.rule << "] "
              << f.message << '\n';
  }

  if (!expects.empty()) {
    // Fixture mode: every expected rule must have tripped at least once.
    bool ok = true;
    for (const std::string& rule : expects) {
      const bool hit =
          std::any_of(findings.begin(), findings.end(),
                      [&](const Finding& f) { return f.rule == rule; });
      if (!hit) {
        std::cerr << "esrp_lint: expected a [" << rule
                  << "] finding but none tripped\n";
        ok = false;
      }
    }
    std::cout << (ok ? "esrp_lint: all expected rules tripped\n"
                     : "esrp_lint: FIXTURE FAILURE\n");
    return ok ? 0 : 1;
  }

  if (!findings.empty()) {
    std::cout << "esrp_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "esrp_lint: clean (" << files.size() << " files)\n";
  return 0;
}
