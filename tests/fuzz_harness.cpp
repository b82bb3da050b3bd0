// Deterministic fuzz / fault-injection harness for the SafeFlow pipeline.
//
// Mutates real corpus sources with a seeded LCG (no wall-clock randomness
// anywhere, so a failing iteration reproduces from its seed alone) at two
// granularities:
//
//   byte level   flip / insert / delete / duplicate / truncate raw bytes;
//   token level  splice punctuation, keywords, and annotation fragments at
//                whitespace boundaries — the mutations that exercise the
//                parser's panic-mode recovery rather than just the lexer.
//
// A third mutator changes only the bodies of SafeFlow Annotation comments,
// which the C parser lexes and parses where they stand.
//
// Every mutant runs through the full driver (front end through taint
// analysis) under a step budget, either as a file of its own or as a
// header that two files include, and the harness asserts the three
// robustness guarantees of DESIGN.md: no crash, no hang (the budget bounds
// every fixpoint), and well-formed diagnostics; and that SSA construction
// leaves every function well formed (ir::verifySsa).
//
// A second fuzzer in this file aims the same LCG at the safeflowd NDJSON
// protocol: random bytes, structurally-plausible-but-wrong documents,
// oversized lines, and mid-request disconnects against a live daemon,
// asserting it answers structurally (or drops the dead connection) and
// never dies.
//
// Tunables (environment, read once):
//   SAFEFLOW_FUZZ_ITERS  iterations (default 200; CI smoke runs 1000)
//   SAFEFLOW_FUZZ_SEED   LCG seed (default 20060625)
//   SAFEFLOW_FUZZ_DUMP   path; each mutant is written there before the
//                        pipeline runs, so after a crash the file holds
//                        the faulting input (triage aid)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "daemon_test_util.h"
#include "ir/ir.h"
#include "ir/ssa.h"
#include "safeflow/driver.h"
#include "support/json.h"

namespace {

using namespace safeflow;

// Classic 64-bit LCG (Knuth MMIX constants); top bits are well mixed.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ull) {}

  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 16;
  }
  /// Uniform-ish value in [0, n).
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Corpus sources used as mutation seeds: the running example plus the
/// larger interlocking-plant files (annotations, shm regions, loops).
std::vector<std::string> seedSources() {
  const std::string root = std::string(SAFEFLOW_CORPUS_DIR) + "/";
  std::vector<std::string> out;
  for (const char* rel : {
           "running_example/core.c",
           "ip/core/decision.c",
           "ip/core/filter.c",
           "double_ip/core/trajectory.c",
       }) {
    std::string text = readFile(root + rel);
    if (!text.empty()) out.push_back(std::move(text));
  }
  // The harness must work even if the corpus moves; fall back to a small
  // builtin program rather than silently fuzzing nothing.
  if (out.empty()) {
    out.push_back(
        "typedef struct S { int a; int b; } S;\n"
        "S* st;\n"
        "extern void* shmat(int shmid, void* addr, int flags);\n"
        "/*** SafeFlow Annotation shminit ***/\n"
        "void init_comm(void) {\n"
        "  st = (S*)shmat(0, 0, 0);\n"
        "  /*** SafeFlow Annotation assume(shmvar(st, sizeof(S))) ***/\n"
        "  /*** SafeFlow Annotation assume(noncore(st)) ***/\n"
        "}\n"
        "int get(S* p)\n"
        "/*** SafeFlow Annotation assume(core(p, 0, sizeof(S))) ***/\n"
        "{ return p->a; }\n"
        "int main(void) { int v; init_comm(); v = get(st);\n"
        "  /*** SafeFlow Annotation assert(safe(v)); ***/ return v; }\n");
  }
  return out;
}

// Token-level splice fragments: the punctuation and keywords most likely
// to unbalance the parser, plus annotation openers/closers to stress the
// parser's annotation path.
constexpr const char* kFragments[] = {
    ";",      "}",       "{",      "(",       ")",          "[",
    "]",      ",",       "*",      "=",       "==",         "->",
    "if",     "else",    "while",  "for",     "return",     "struct",
    "int",    "char",    "static", "typedef", "enum",       "switch",
    "case",   "default", "break",  "/***",    "***/",       "/*",
    "/*** SafeFlow Annotation assert(safe(x)); ***/",
    "/*** SafeFlow Annotation assume(shmvar(",
    "#define X", "#include \"missing.h\"",    "0x7fffffff", "'\\0'",
};

void mutateBytes(std::string& text, Lcg& rng) {
  if (text.empty()) {
    text.push_back(static_cast<char>('!' + rng.below(90)));
    return;
  }
  switch (rng.below(5)) {
    case 0:  // flip one byte to a printable character
      text[rng.below(text.size())] =
          static_cast<char>(' ' + rng.below(95));
      break;
    case 1:  // insert a random byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(text.size() + 1)),
                  static_cast<char>(' ' + rng.below(95)));
      break;
    case 2:  // delete one byte
      text.erase(text.begin() +
                 static_cast<std::ptrdiff_t>(rng.below(text.size())));
      break;
    case 3: {  // duplicate a short span
      const std::size_t at = rng.below(text.size());
      const std::size_t len =
          std::min(text.size() - at, 1 + rng.below(16));
      text.insert(at, text.substr(at, len));
      break;
    }
    default:  // truncate the tail
      text.resize(rng.below(text.size() + 1));
      break;
  }
}

void mutateTokens(std::string& text, Lcg& rng) {
  const std::size_t n_frag = sizeof(kFragments) / sizeof(kFragments[0]);
  switch (rng.below(3)) {
    case 0: {  // splice a fragment at a whitespace boundary
      std::size_t at = rng.below(text.size() + 1);
      while (at < text.size() && text[at] != ' ' && text[at] != '\n') ++at;
      text.insert(at, std::string(" ") +
                          kFragments[rng.below(n_frag)] + " ");
      break;
    }
    case 1: {  // delete from a random position to the end of the line
      if (text.empty()) break;
      const std::size_t at = rng.below(text.size());
      const std::size_t eol = text.find('\n', at);
      text.erase(at, eol == std::string::npos ? std::string::npos
                                              : eol - at);
      break;
    }
    default: {  // swap two half-line chunks (reorders declarations)
      if (text.size() < 8) break;
      const std::size_t a = rng.below(text.size() / 2);
      const std::size_t b =
          text.size() / 2 + rng.below(text.size() / 2 - 4);
      const std::size_t len = 1 + rng.below(40);
      const std::string chunk_a = text.substr(a, len);
      const std::string chunk_b = text.substr(b, len);
      text.replace(b, chunk_b.size(), chunk_a);
      text.replace(a, chunk_a.size(), chunk_b);
      break;
    }
  }
}

/// One mutant: a seed source under 1-4 seeded mutations. With
/// SAFEFLOW_FUZZ_DUMP set, it is written there before the pipeline runs.
std::string mutant(const std::vector<std::string>& seeds, Lcg& rng,
                   std::uint64_t iter) {
  std::string text = seeds[rng.below(seeds.size())];
  const std::size_t n_mut = 1 + rng.below(4);
  for (std::size_t m = 0; m < n_mut; ++m) {
    if (rng.below(2) == 0) {
      mutateBytes(text, rng);
    } else {
      mutateTokens(text, rng);
    }
  }

  if (const char* dump = std::getenv("SAFEFLOW_FUZZ_DUMP");
      dump != nullptr && *dump != '\0') {
    std::ofstream out(dump, std::ios::binary | std::ios::trunc);
    out << "/* fuzz iteration " << iter << " */\n" << text;
  }
  return text;
}

SafeFlowOptions fuzzOptions() {
  SafeFlowOptions options;
  // The step budget bounds every fixpoint, so a mutant that tickles a
  // quadratic corner degrades instead of hanging the harness. Deliberately
  // no time budget: wall-clock would make iterations nondeterministic.
  options.budget.phase_steps = 200000;
  return options;
}

/// A seed source with the body of one of its SafeFlow Annotation comments
/// under 1-4 seeded mutations; the comment still ends where it did.
std::string annotationMutant(const std::vector<std::string>& seeds, Lcg& rng) {
  constexpr std::string_view kMarker = "SafeFlow Annotation";
  std::string text = seeds[rng.below(seeds.size())];
  // [begin, end) of each body: after the marker, before the closing stars.
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t at = text.find(kMarker); at != std::string::npos;
       at = text.find(kMarker, at + 1)) {
    const std::size_t begin = at + kMarker.size();
    std::size_t end = text.find("*/", begin);
    if (end == std::string::npos) break;
    while (end > begin && text[end - 1] == '*') --end;
    bodies.emplace_back(begin, end);
  }
  if (bodies.empty()) return text;
  const auto [begin, end] = bodies[rng.below(bodies.size())];
  std::string body = text.substr(begin, end - begin);
  const std::size_t n_mut = 1 + rng.below(4);
  for (std::size_t m = 0; m < n_mut; ++m) {
    if (rng.below(2) == 0) {
      mutateBytes(body, rng);
    } else {
      mutateTokens(body, rng);
    }
  }
  for (std::size_t at = body.find("*/"); at != std::string::npos;
       at = body.find("*/", at)) {
    body[at + 1] = ' ';
  }
  return text.replace(begin, end - begin, body);
}

/// Analyzes what `driver` holds and checks the robustness invariants.
void analyzeAndCheck(SafeFlowDriver& driver, std::uint64_t iter) {
  const auto& report = driver.analyze();

  // Diagnostics must be well-formed: a category and a message, never an
  // empty shell (an empty message usually means a half-constructed
  // diagnostic escaped an error path).
  for (const auto& d : driver.diagnostics().diagnostics()) {
    EXPECT_FALSE(d.category.empty()) << "iteration " << iter;
    EXPECT_FALSE(d.message.empty()) << "iteration " << iter;
  }
  // The report must be renderable whatever the mutant did.
  const std::string rendered = report.render(driver.sources());
  EXPECT_FALSE(rendered.empty()) << "iteration " << iter;
  (void)report.renderJson(driver.sources(), driver.stats().renderJson());
  // Whatever lowering recovered from, SSA construction leaves every
  // function well formed: no dangling operand anywhere, and every
  // reachable use dominated by its definition.
  for (const auto& fn : driver.module()->functions()) {
    EXPECT_EQ(ir::verifySsa(*fn), "")
        << "iteration " << iter << ", function " << fn->name();
  }
}

/// One fuzz iteration: mutate, analyze under budget, check invariants.
void runOne(const std::vector<std::string>& seeds, Lcg& rng,
            std::uint64_t iter) {
  std::string text = mutant(seeds, rng, iter);
  SafeFlowDriver driver(fuzzOptions());
  driver.addSource("fuzz_" + std::to_string(iter) + ".c", std::move(text));
  analyzeAndCheck(driver, iter);
}

TEST(FuzzHarness, MutatedCorpusSourcesNeverCrashOrHang) {
  const std::uint64_t iters = envU64("SAFEFLOW_FUZZ_ITERS", 200);
  const std::uint64_t seed = envU64("SAFEFLOW_FUZZ_SEED", 20060625);
  const std::vector<std::string> seeds = seedSources();
  ASSERT_FALSE(seeds.empty());

  Lcg rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(i) + " (seed " +
                 std::to_string(seed) + ")");
    runOne(seeds, rng, i);
  }
}

TEST(FuzzHarness, MutatedAnnotationBodiesNeverCrashOrHang) {
  const std::uint64_t iters = envU64("SAFEFLOW_FUZZ_ITERS", 200);
  const std::uint64_t seed = envU64("SAFEFLOW_FUZZ_SEED", 20060625);
  const std::vector<std::string> seeds = seedSources();
  ASSERT_FALSE(seeds.empty());

  Lcg rng(seed ^ 0xa1107a7e);
  for (std::uint64_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("annotation fuzz iteration " + std::to_string(i) +
                 " (seed " + std::to_string(seed) + ")");
    SafeFlowDriver driver(fuzzOptions());
    driver.addSource("annotation_fuzz_" + std::to_string(i) + ".c",
                     annotationMutant(seeds, rng));
    analyzeAndCheck(driver, i);
  }
}

// Mutants as a header that two files include: the second include
// replays the header's cached tokens and lexer diagnostics under
// that file's own macro state, and the corpus headers the mutant itself
// includes resolve through -I after failing beside it.
TEST(FuzzHarness, MutatedHeadersIncludedTwiceNeverCrashOrHang) {
  const std::uint64_t iters = envU64("SAFEFLOW_FUZZ_ITERS", 200);
  const std::uint64_t seed = envU64("SAFEFLOW_FUZZ_SEED", 20060625);
  const std::vector<std::string> seeds = seedSources();
  ASSERT_FALSE(seeds.empty());

  const std::string dir = ::testing::TempDir() + "sf_fuzz_headers_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string first = dir + "/first.c";
  const std::string second = dir + "/second.c";
  std::ofstream(first) << "#include \"fuzz.h\"\nint fuzz_first;\n";
  std::ofstream(second)
      << "#define FUZZ_SECOND 1\n#include \"fuzz.h\"\nint fuzz_second;\n";

  const std::string corpus = SAFEFLOW_CORPUS_DIR;
  Lcg rng(seed ^ 0x4eade75);
  for (std::uint64_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("header fuzz iteration " + std::to_string(i) + " (seed " +
                 std::to_string(seed) + ")");
    std::ofstream(dir + "/fuzz.h", std::ios::binary | std::ios::trunc)
        << mutant(seeds, rng, i);
    SafeFlowOptions options = fuzzOptions();
    options.include_dirs = {corpus + "/ip/common",
                            corpus + "/double_ip/common"};
    SafeFlowDriver driver(options);
    driver.addFile(first);
    driver.addFile(second);
    analyzeAndCheck(driver, i);
  }
  std::filesystem::remove_all(dir);
}

/// One random protocol line: either pure noise or a mutation of a valid
/// request (member dropped / retyped / renamed, value replaced), which
/// probes much deeper into the daemon's validation ladder than noise.
std::string fuzzRequestLine(Lcg& rng) {
  static const char* const kTemplates[] = {
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [\"a.c\"], "
      "\"flags\": []}",
      "{\"safeflowd\": 1, \"op\": \"status\"}",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [\"a.c\"], "
      "\"flags\": [\"-I\", \"dir\"], \"json\": true, \"deadline_ms\": 50}",
  };
  static const char* const kSplices[] = {
      "\"op\"",       "\"files\"",  "\"flags\"",     "\"safeflowd\"",
      "null",         "-1",         "1e999",         "[[[[",
      "\"analyze\"",  "{}",         "[]",            "\"\\u0000\"",
      "999999999999", "true",       ", \"op\": 3",   "\\",
  };
  std::string line = kTemplates[rng.below(3)];
  const std::size_t mutations = 1 + rng.below(4);
  for (std::size_t m = 0; m < mutations; ++m) {
    switch (rng.below(4)) {
      case 0:  // overwrite a byte
        if (!line.empty()) {
          line[rng.below(line.size())] =
              static_cast<char>(' ' + rng.below(95));
        }
        break;
      case 1:  // splice a JSON-ish fragment
        line.insert(rng.below(line.size() + 1),
                    kSplices[rng.below(sizeof(kSplices) /
                                       sizeof(kSplices[0]))]);
        break;
      case 2:  // truncate
        line.resize(rng.below(line.size() + 1));
        break;
      default:  // duplicate the whole line (two documents on one line)
        line += line;
        break;
    }
  }
  return line;
}

TEST(FuzzHarness, DaemonProtocolSurvivesRandomAndHostileRequests) {
  const std::uint64_t iters =
      std::min<std::uint64_t>(envU64("SAFEFLOW_FUZZ_ITERS", 200), 400);
  const std::uint64_t seed = envU64("SAFEFLOW_FUZZ_SEED", 20060625);

  const std::string socket = ::testing::TempDir() + "sfd_fuzz_" +
                             std::to_string(::getpid()) + ".sock";
  const pid_t pid = daemon_test::spawnDaemon(
      {"--socket", socket, "--no-cache", "--log-level", "error"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(daemon_test::waitForSocket(socket));

  Lcg rng(seed ^ 0xdaeb0f);
  for (std::uint64_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("protocol fuzz iteration " + std::to_string(i));
    std::string line = fuzzRequestLine(rng);
    const std::size_t shape = rng.below(4);
    if (shape == 3) {
      // Mid-request disconnect: send without the newline and hang up.
      const int fd = safeflow::support::connectUnixSocket(socket);
      ASSERT_GE(fd, 0) << "daemon stopped accepting";
      safeflow::support::writeAll(fd, line);
      ::close(fd);
      continue;
    }
    if (shape == 2) line += std::string(1 + rng.below(4096), 'x');
    line += '\n';
    safeflow::support::LineIo io = safeflow::support::LineIo::kError;
    const std::string response =
        daemon_test::rawRequest(socket, line, 30.0, &io);
    // Every answered line must be a structured protocol response; a
    // dropped connection (daemon treated us as a dead peer) is also
    // acceptable — a dead daemon is not, and shows up as connect
    // failures on the next iteration.
    if (io == safeflow::support::LineIo::kOk) {
      support::json::Value doc;
      std::string error;
      ASSERT_TRUE(support::json::parse(response, &doc, &error))
          << "unstructured response: " << response;
      EXPECT_EQ(doc.memberUint("safeflowd"), 1u);
    }
  }

  // The daemon survived the whole session and still serves cleanly.
  const std::string status = daemon_test::rawRequest(
      socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  support::json::Value doc;
  std::string error;
  ASSERT_TRUE(support::json::parse(status, &doc, &error));
  EXPECT_EQ(doc.memberString("status"), "ok");

  ::kill(pid, SIGTERM);
  const int exit_status = daemon_test::waitForExit(pid);
  ASSERT_NE(exit_status, -1);
  EXPECT_TRUE(WIFEXITED(exit_status));
  EXPECT_EQ(WEXITSTATUS(exit_status), 0);
}

// The same engine over pathological hand-written shapes — deep nesting
// and long operator chains — which mutation rarely produces but recursion
// bugs love.
TEST(FuzzHarness, DeeplyNestedInputsRespectRecoveryLimits) {
  for (const std::size_t depth : {64u, 512u}) {
    std::string open, close;
    for (std::size_t i = 0; i < depth; ++i) {
      open += "{ if (1) ";
      close += "}";
    }
    SafeFlowOptions options;
    options.budget.phase_steps = 200000;
    SafeFlowDriver driver(options);
    driver.addSource("nest.c",
                     "int main(void) " + open + "{ return 0; }" + close);
    driver.analyze();
    SUCCEED();
  }

  // Far past the parser's nesting cap, in code and in an annotation's
  // size: one error, and no stack overflow in the parser or after it.
  constexpr std::size_t kDeep = 100000;
  const std::string parens =
      std::string(kDeep, '(') + "1" + std::string(kDeep, ')');
  const struct {
    const char* name;
    std::string source;
    const char* category;
  } cases[] = {
      {"parens", "int f(void) { return " + parens + "; }\n", "parse"},
      {"braces",
       "int f(void) " + std::string(kDeep, '{') + "return 0;" +
           std::string(kDeep, '}') + "\n",
       "parse"},
      {"annotation",
       "void f(int *p)\n/*** SafeFlow Annotation assume(shmvar(p, " + parens +
           ")) ***/\n{ }\n",
       "annotation"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    SafeFlowOptions options;
    options.budget.phase_steps = 200000;
    SafeFlowDriver driver(options);
    EXPECT_FALSE(driver.addSource(std::string(c.name) + ".c", c.source));
    driver.analyze();
    EXPECT_EQ(driver.diagnostics().errorCount(), 1u);
    EXPECT_EQ(driver.diagnostics().countCategoryPrefix(c.category), 1u);
  }
}

}  // namespace
