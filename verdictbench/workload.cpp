#include "workload.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace verdictbench {

namespace {

namespace fs = std::filesystem;

/// splitmix64: a fixed, portable generator, so one seed gives the same
/// inputs on every standard library.
std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(splitmix64(&state_) % n);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::size_t> shuffledIndices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool identChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Literals longer than this are left alone: appending digits to them
/// could exceed what a double tells apart.
constexpr std::size_t kMaxLiteralDigits = 8;

/// Float literals of the form digits.digits with an optional f/F suffix
/// that sit inside a function body: a brace block opened at file scope
/// right after a ')'. Comments, strings, character constants and
/// preprocessor lines are skipped.
std::vector<std::pair<std::size_t, std::string>> scanLiterals(
    const std::string& t) {
  std::vector<std::pair<std::size_t, std::string>> out;
  int depth = 0;
  bool in_function = false;
  char last_significant = '\n';
  bool line_start = true;
  std::size_t i = 0;
  while (i < t.size()) {
    const char c = t[i];
    if (c == '/' && i + 1 < t.size() && t[i + 1] == '*') {
      const std::size_t end = t.find("*/", i + 2);
      i = end == std::string::npos ? t.size() : end + 2;
      continue;
    }
    if (c == '/' && i + 1 < t.size() && t[i + 1] == '/') {
      i = t.find('\n', i);
      if (i == std::string::npos) i = t.size();
      continue;
    }
    if (c == '#' && line_start) {
      while (i < t.size() && !(t[i] == '\n' && t[i - 1] != '\\')) ++i;
      continue;
    }
    if (c == '\n') {
      line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    line_start = false;
    if (c == '"' || c == '\'') {
      ++i;
      while (i < t.size() && t[i] != c) i += t[i] == '\\' ? 2 : 1;
      ++i;
      last_significant = c;
      continue;
    }
    if (c == '{') {
      if (depth == 0) in_function = last_significant == ')';
      ++depth;
    } else if (c == '}') {
      if (depth > 0) --depth;
      if (depth == 0) in_function = false;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 &&
               (i == 0 || (!identChar(t[i - 1]) && t[i - 1] != '.'))) {
      std::size_t j = i;
      while (j < t.size() && std::isdigit(static_cast<unsigned char>(t[j]))) ++j;
      const std::size_t int_end = j;
      if (j + 1 < t.size() && t[j] == '.' &&
          std::isdigit(static_cast<unsigned char>(t[j + 1])) != 0) {
        ++j;
        while (j < t.size() && std::isdigit(static_cast<unsigned char>(t[j]))) ++j;
        const std::size_t digits = j - i - 1;
        if (j < t.size() && (t[j] == 'f' || t[j] == 'F')) ++j;
        const bool clean = j >= t.size() || (!identChar(t[j]) && t[j] != '.');
        if (in_function && depth > 0 && clean && digits <= kMaxLiteralDigits) {
          out.emplace_back(i, t.substr(i, j - i));
        }
      } else {
        j = int_end;
      }
      while (j < t.size() && (identChar(t[j]) || t[j] == '.')) ++j;
      i = j;
      last_significant = '0';
      continue;
    }
    last_significant = c;
    ++i;
  }
  return out;
}

/// Splits "12.5f" into "12.5" and "f".
std::pair<std::string, std::string> splitSuffix(const std::string& literal) {
  const char back = literal.back();
  if (back == 'f' || back == 'F') {
    return {literal.substr(0, literal.size() - 1), std::string(1, back)};
  }
  return {literal, ""};
}

/// Rewrites every literal scanLiterals finds to a seeded nearby value:
/// "0.5f" becomes "0.5 00 dd f" (two seeded digits after two zeros).
std::string perturbLiterals(const std::string& text, Rng& rng) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  std::size_t at = 0;
  for (const auto& [offset, literal] : scanLiterals(text)) {
    out.append(text, at, offset - at);
    const auto [number, suffix] = splitSuffix(literal);
    out += number + "00" + std::to_string(10 + rng.below(90)) + suffix;
    at = offset + literal.size();
  }
  out.append(text, at, std::string::npos);
  return out;
}

// -- Synthetic programs --------------------------------------------------
//
// Each generator writes the same program as its namesake in
// bench/synthetic.h (byte for byte when `order` is the identity), with
// the function definitions emitted in `order`.

std::string shmPrelude(int regions) {
  std::ostringstream out;
  out << "typedef struct Cell { float value; int flag; } Cell;\n";
  for (int i = 0; i < regions; ++i) out << "Cell *r" << i << ";\n";
  out << "extern void *shmat(int id, void *a, int f);\n"
         "extern int shmget(int k, int s, int f);\n"
         "extern void sink(float v);\n"
         "/*** SafeFlow Annotation shminit ***/\n"
         "void initShm(void)\n{\n"
         "    char *cursor;\n"
         "    cursor = (char *) shmat(shmget(1, "
      << regions << " * sizeof(Cell), 0), 0, 0);\n";
  for (int i = 0; i < regions; ++i) {
    out << "    r" << i << " = (Cell *) cursor;\n"
        << "    cursor = cursor + sizeof(Cell);\n";
  }
  for (int i = 0; i < regions; ++i) {
    out << "    /*** SafeFlow Annotation assume(shmvar(r" << i
        << ", sizeof(Cell))) ***/\n";
  }
  for (int i = 0; i < regions; ++i) {
    out << "    /*** SafeFlow Annotation assume(noncore(r" << i << ")) ***/\n";
  }
  out << "}\n";
  return out.str();
}

std::string mainCalling(const char* callee, int functions, int modulus,
                        const char* first_arg, bool assert_total) {
  std::ostringstream out;
  out << "int main(void)\n{\n    float total;\n    initShm();\n"
      << "    total = 0.0f;\n";
  for (int f = 0; f < functions; ++f) {
    out << "    total = total + " << callee << f << "(" << first_arg
        << (f % modulus + 1) << ");\n";
  }
  if (assert_total) {
    out << "    /*** SafeFlow Annotation assert(safe(total)); ***/\n";
  }
  out << "    sink(total);\n    return 0;\n}\n";
  return out.str();
}

/// bench::scalingProgram: wide and shallow, 15-line numeric functions.
std::string scalingProgram(int functions,
                           const std::vector<std::size_t>& order) {
  std::ostringstream out;
  out << shmPrelude(2);
  for (const std::size_t idx : order) {
    const int i = static_cast<int>(idx);
    out << "float compute" << i << "(float x, int n)\n{\n"
        << "    float acc;\n    int i;\n    acc = x;\n"
        << "    for (i = 0; i < n; i++) {\n"
        << "        if (acc > 100.0f) {\n            acc = acc * 0.5f;\n"
        << "        } else {\n            acc = acc * 1.5f + " << (i % 7)
        << ".0f;\n        }\n    }\n"
        << "    return acc;\n}\n";
  }
  out << mainCalling("compute", functions, 13, "1.0f, ", true);
  return out.str();
}

/// bench::accumulatorCycleProgram: each loop rotates a value through
/// `cycle` accumulators, so the dense taint fixpoint needs O(cycle)
/// passes per function.
std::string accumulatorCycleProgram(int functions, int cycle,
                                    const std::vector<std::size_t>& order) {
  std::ostringstream out;
  out << shmPrelude(6);
  for (const std::size_t idx : order) {
    const int f = static_cast<int>(idx);
    out << "float compute" << f << "(float x, int n)\n{\n    ";
    for (int k = 0; k < cycle; ++k) out << "float a" << k << "; ";
    out << "\n    int i;\n    ";
    for (int k = 0; k < cycle; ++k) out << "a" << k << " = x; ";
    out << "\n    for (i = 0; i < n; i++) {\n";
    for (int k = cycle - 1; k >= 1; --k) {
      out << "        a" << k << " = a" << (k - 1) << " * 0.99f;\n";
    }
    out << "        a0 = a" << (cycle - 1) << " + r" << (f % 6)
        << "->value;\n    }\n"
        << "    sink(a0);\n    return a" << (cycle / 2) << ";\n}\n";
  }
  out << mainCalling("compute", functions, 13, "1.0f, ", true);
  return out.str();
}

/// bench::pointerChurnProgram: pointer-swap loops (copy cycles for the
/// points-to solver to collapse), field arithmetic, and a shared
/// `depth`-deep pointer-identity call chain.
std::string pointerChurnProgram(int functions, int depth,
                                const std::vector<std::size_t>& order) {
  std::ostringstream out;
  out << shmPrelude(2);
  out << "typedef struct Rec { int tag; float val; } Rec;\n";
  out << "Rec *hop" << depth << "(Rec *p)\n{\n    return p;\n}\n";
  for (int d = depth - 1; d >= 1; --d) {
    out << "Rec *hop" << d << "(Rec *p)\n{\n    return hop" << (d + 1)
        << "(p);\n}\n";
  }
  for (const std::size_t idx : order) {
    out << "float churn" << idx << "(int n)\n{\n"
        << "    Rec a;\n    Rec b;\n    Rec *p;\n    Rec *q;\n"
        << "    Rec *t;\n    float *vp;\n    int i;\n"
        << "    a.tag = n;\n    a.val = 1.0f;\n"
        << "    b.tag = n + 1;\n    b.val = 2.0f;\n"
        << "    p = &a;\n    q = &b;\n"
        << "    for (i = 0; i < n; i++) {\n"
        << "        t = p;\n        p = q;\n        q = t;\n    }\n"
        << "    p = hop1(p);\n"
        << "    vp = (float *) (&p->tag + 1);\n"
        << "    return *vp + q->val;\n}\n";
  }
  out << mainCalling("churn", functions, 9, "", false);
  return out.str();
}

Program syntheticProgram(const std::string& name, std::string text,
                         Verdict expected) {
  Program p;
  p.name = name;
  p.files = {"inputs/" + name + ".c"};
  p.texts = {std::move(text)};
  p.whole_file = p.files[0];
  p.expected = expected;
  return p;
}

// -- Table 1 corpus ------------------------------------------------------

struct CorpusEntry {
  const char* name;
  std::vector<const char*> core;
  Verdict table1;  // warnings, error dependencies, false positives, 0
};

/// Core files as the corpus manifest lists them, and the paper's Table 1
/// row for each system (warnings / error dependencies / false positives,
/// which are the control-only entries; no restriction violations).
const std::vector<CorpusEntry>& corpusEntries() {
  static const std::vector<CorpusEntry> entries = {
      {"ip",
       {"comm.c", "safety.c", "filter.c", "telemetry.c", "selftest.c",
        "decision.c", "main.c"},
       {7, 1, 2, 0}},
      {"generic_simplex",
       {"comm.c", "config.c", "safety.c", "profile.c", "watchdog.c",
        "estimator.c", "monitors.c", "main.c"},
       {7, 2, 6, 0}},
      {"double_ip",
       {"comm.c", "safety.c", "estimator.c", "trajectory.c", "decision.c",
        "modes.c", "main.c"},
       {8, 2, 2, 0}},
  };
  return entries;
}

Workload table1Workload(Rng& rng, const std::string& corpus_dir) {
  Workload w;
  w.name = "table1";
  w.kill_critical = true;
  for (const CorpusEntry& entry : corpusEntries()) {
    const std::string src = corpus_dir + "/" + entry.name;
    const std::string dst = std::string("inputs/") + entry.name;
    Program p;
    p.name = entry.name;
    p.expected = entry.table1;
    p.include_dirs = {dst + "/common"};
    for (const std::size_t i : shuffledIndices(entry.core.size(), rng)) {
      p.files.push_back(dst + "/core/" + entry.core[i]);
      p.texts.push_back(perturbLiterals(slurp(src + "/core/" + entry.core[i]), rng));
    }
    p.whole_file = dst + "/whole/" + entry.name + ".c";
    // Headers are copied as they are; they hold no function bodies.
    std::vector<fs::path> headers;
    for (const auto& e : fs::directory_iterator(src + "/common")) {
      headers.push_back(e.path());
    }
    std::sort(headers.begin(), headers.end());
    for (const fs::path& h : headers) {
      p.headers.emplace_back(dst + "/common/" + h.filename().string(),
                             slurp(h.string()));
    }
    w.programs.push_back(std::move(p));
  }
  return w;
}

std::string fileText(const Workload& w, std::size_t program, std::size_t file,
                     const Edit* edit) {
  const std::string& base = w.programs[program].texts[file];
  if (edit == nullptr) return base;
  const EditSite& s = w.sites[edit->site];
  if (s.program != program || s.file != file) return base;
  return base.substr(0, s.offset) + editedLiteral(s.literal, edit->serial) +
         base.substr(s.offset + s.literal.size());
}

void writeProgram(const Workload& w, std::size_t program, const Edit* edit) {
  const Program& p = w.programs[program];
  for (std::size_t f = 0; f < p.files.size(); ++f) {
    spit(p.files[f], fileText(w, program, f, edit));
  }
  if (p.whole_file != p.files[0]) {
    std::string whole;
    for (std::size_t f = 0; f < p.files.size(); ++f) {
      whole += fileText(w, program, f, edit);
    }
    spit(p.whole_file, whole);
  }
}

}  // namespace

std::string Verdict::describe() const {
  return std::to_string(warnings) + " warnings, " +
         std::to_string(data_errors) + " data errors, " +
         std::to_string(control_only) + " control-only, " +
         std::to_string(restriction_violations) + " restriction violations";
}

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      const std::string& corpus_dir) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0x1234567ull);
  Workload w;
  if (name == "table1") {
    w = table1Workload(rng, corpus_dir);
  } else if (name == "scaling") {
    // 2,008 functions' worth of IR from 2,000 compute bodies; no body
    // reads a region, so nothing is reported.
    w.name = name;
    w.programs.push_back(syntheticProgram(
        name, perturbLiterals(scalingProgram(2000, shuffledIndices(2000, rng)), rng),
        {0, 0, 0, 0}));
  } else if (name == "taint_cycle") {
    // Each of the 12 bodies reads one of 6 non-core regions without a
    // monitor (one warning per function); the asserted total depends on
    // all six regions through the returned accumulators (one data error
    // per region read). 12 bodies keep taint at ~87% of the run while an
    // operation stays short enough for many samples per run.
    w.name = name;
    w.programs.push_back(syntheticProgram(
        name,
        perturbLiterals(accumulatorCycleProgram(12, 96, shuffledIndices(12, rng)), rng),
        {12, 6, 0, 0}));
  } else if (name == "pointer_churn") {
    // No body touches shared memory and nothing is asserted. Points-to
    // grows superlinearly: 200 bodies keep it the dominant phase (~64%)
    // at under half the 300-body program's time.
    w.name = name;
    w.programs.push_back(syntheticProgram(
        name,
        perturbLiterals(pointerChurnProgram(200, 32, shuffledIndices(200, rng)), rng),
        {0, 0, 0, 0}));
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  for (std::size_t p = 0; p < w.programs.size(); ++p) {
    const Program& prog = w.programs[p];
    for (std::size_t f = 0; f < prog.texts.size(); ++f) {
      for (auto& [offset, literal] : scanLiterals(prog.texts[f])) {
        w.sites.push_back({p, f, offset, std::move(literal)});
      }
    }
  }
  if (w.sites.empty()) throw std::runtime_error("workload has no edit sites");
  return w;
}

EditSequence::EditSequence(std::uint64_t seed, std::size_t sites)
    : state_(seed ^ 0x5eedull), sites_(sites) {}

Edit EditSequence::next() {
  return {static_cast<std::size_t>(splitmix64(&state_) % sites_), ++serial_};
}

std::string editedLiteral(const std::string& literal, std::uint64_t serial) {
  const auto [number, suffix] = splitSuffix(literal);
  std::string digits = std::to_string(serial % 100000);
  digits.insert(0, 5 - digits.size(), '0');
  return number + digits + suffix;
}

void writeInputs(const Workload& w, const Edit* edit) {
  for (std::size_t p = 0; p < w.programs.size(); ++p) {
    for (const auto& [path, text] : w.programs[p].headers) spit(path, text);
    writeProgram(w, p, edit);
  }
}

void rewriteInputs(const Workload& w, const Edit* from, const Edit* to) {
  std::vector<std::size_t> touched;
  if (from != nullptr) touched.push_back(w.sites[from->site].program);
  if (to != nullptr) touched.push_back(w.sites[to->site].program);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::size_t p : touched) {
    // A program untouched by `to` returns to its unedited text.
    const bool edited = to != nullptr && w.sites[to->site].program == p;
    writeProgram(w, p, edited ? to : nullptr);
  }
}

}  // namespace verdictbench
