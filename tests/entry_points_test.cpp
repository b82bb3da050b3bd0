// Every entry point prints the report of the same whole-program analysis.
//
// Differential: each corpus system runs through the default in-process
// CLI path, --isolate, safeflowd via --connect, --connect with no daemon
// listening (local fallback), and --cache-dir cold then warm. Every text
// report must be byte-identical to the in-process one, and every --json
// report too once its "stats" member (timings, counters) is dropped. The
// Table 1 systems must also give the paper's counts.
//
// Metamorphic: the findings of a multi-file system must not change when
// its files are concatenated into one or passed in reverse order, or
// when a file of functions nothing calls is added, in process or
// isolated. Counts and finding sets are compared with locations ignored
// (concatenation moves every line).
//
// Goldens: the in-process text report of every system under each taint
// configuration (summaries, call strings, no control dependences) must
// match tests/report_goldens/ byte for byte. They pin what the analysis
// finds and how it renders, so a change to how a fixpoint is solved has
// to leave every byte in place; regenerate a golden only for an intended
// change in findings or rendering.
//
// All spawn the real `safeflow` binary; the differential also spawns
// `safeflowd`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "bench/synthetic.h"
#include "daemon_test_util.h"
#include "support/json.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;
using namespace daemon_test;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

struct System {
  const char* name;
  bool table1;  // run with --kill-critical -I <sys>/common
  /// Table 1 counts: warnings / error dependencies / control-only.
  int warnings, errors, control_only;
};

const System kSystems[] = {
    {"running_example", false, 0, 0, 0},
    {"ip", true, 7, 1, 2},
    {"generic_simplex", true, 7, 2, 6},
    {"double_ip", true, 8, 2, 2},
    {"rangelab", false, 0, 0, 0},
    {"pointerlab", false, 0, 0, 0},
};

/// Test names and failure messages show the system by name.
void PrintTo(const System& sys, std::ostream* os) { *os << sys.name; }

std::string systemName(const testing::TestParamInfo<System>& info) {
  return info.param.name;
}

/// The system's core files in directory order.
std::vector<std::string> coreFiles(const System& sys) {
  const std::string name = sys.name;
  if (name == "running_example") {
    return {kCorpus + "/running_example/core.c"};
  }
  const std::string dir = kCorpus + "/" + name + "/core";
  std::vector<std::string> files;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string leaf = e->d_name;
      if (leaf.size() > 2 && leaf.substr(leaf.size() - 2) == ".c") {
        files.push_back(dir + "/" + leaf);
      }
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> analysisFlags(const System& sys) {
  if (!sys.table1) return {};
  return {"--kill-critical", "-I", kCorpus + "/" + sys.name + "/common"};
}

std::string freshTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/sf_entry_" + tag + "_" +
                          std::to_string(::getpid());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                            .c_str()),
            0);
  return dir;
}

support::SubprocessResult runSafeflow(const std::vector<std::string>& args) {
  std::vector<std::string> argv = {SAFEFLOW_EXE};
  argv.insert(argv.end(), args.begin(), args.end());
  support::SubprocessOptions opts;
  opts.timeout_seconds = 120.0;
  return support::runSubprocess(argv, opts);
}

/// A --json report up to its "stats" member, the one part that carries
/// timings and path-specific counters.
std::string withoutStats(const std::string& json) {
  return json.substr(0, json.find(",\n  \"stats\": "));
}

class EntryPoints : public testing::TestWithParam<System> {};

TEST_P(EntryPoints, EveryPathPrintsTheInProcessReport) {
  const System& sys = GetParam();
  const std::vector<std::string> files = coreFiles(sys);
  ASSERT_FALSE(files.empty());
  const std::string dir = freshTempDir(sys.name);
  const std::string socket = dir + "/sfd.sock";
  const pid_t daemon =
      spawnDaemon({"--socket", socket, "--cache-dir", dir + "/daemon-cache",
                   "--jobs", "2", "--worker-exe", SAFEFLOW_EXE});
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(waitForSocket(socket));

  struct Path {
    std::string name;
    std::vector<std::string> flags;
  };
  const std::vector<Path> paths = {
      {"--isolate", {"--isolate"}},
      {"safeflowd", {"--connect", socket}},
      {"no daemon", {"--connect", dir + "/nobody.sock"}},
      {"cache cold", {"--cache-dir", dir + "/cache"}},
      {"cache warm", {"--cache-dir", dir + "/cache"}},
  };
  for (const bool json : {false, true}) {
    std::vector<std::string> base = analysisFlags(sys);
    if (json) base.emplace_back("--json");
    const auto run = [&](const std::vector<std::string>& extra) {
      std::vector<std::string> args = base;
      args.insert(args.end(), extra.begin(), extra.end());
      args.insert(args.end(), files.begin(), files.end());
      return runSafeflow(args);
    };
    const support::SubprocessResult ref = run({});
    ASSERT_TRUE(ref.exitedWith(0) || ref.exitedWith(1)) << ref.err_text;
    for (const Path& path : paths) {
      SCOPED_TRACE(path.name + (json ? " --json" : ""));
      const support::SubprocessResult got = run(path.flags);
      ASSERT_EQ(got.status, support::SubprocessResult::Status::kExited);
      EXPECT_EQ(got.exit_code, ref.exit_code) << got.err_text;
      if (json) {
        EXPECT_EQ(withoutStats(got.out_text), withoutStats(ref.out_text));
      } else {
        EXPECT_EQ(got.out_text, ref.out_text);
      }
    }
    if (sys.table1 && !json) {
      std::ostringstream want;
      want << "safeflow: " << sys.warnings << " warning(s), " << sys.errors
           << " error dependency(ies), " << sys.control_only
           << " control-only (review manually)";
      EXPECT_NE(ref.out_text.find(want.str()), std::string::npos)
          << ref.out_text;
    }
  }
  killDaemon(daemon);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

INSTANTIATE_TEST_SUITE_P(Corpus, EntryPoints, testing::ValuesIn(kSystems),
                         systemName);

/// A run's findings with locations dropped, sorted, plus the three
/// counts the summary line prints.
std::vector<std::string> findings(const std::string& json_report) {
  support::json::Value doc;
  std::string err;
  EXPECT_TRUE(support::json::parse(json_report, &doc, &err)) << err;
  std::vector<std::string> out = {
      "data_errors " + std::to_string(doc.memberUint("data_errors")),
      "control_only " + std::to_string(doc.memberUint("control_only"))};
  if (const support::json::Value* ws = doc.find("warnings")) {
    for (const support::json::Value& w : ws->array) {
      std::string f = "warning " + w.memberString("function") + " " +
                      w.memberString("region");
      if (const support::json::Value* bytes = w.find("bytes")) {
        for (const support::json::Value& b : bytes->array) {
          f += " " + std::to_string(b.uintOr(0));
        }
      }
      out.push_back(f);
    }
  }
  if (const support::json::Value* es = doc.find("errors")) {
    for (const support::json::Value& e : es->array) {
      std::string f = "error " + e.memberString("kind") + " " +
                      e.memberString("function") + " " +
                      e.memberString("critical");
      if (const support::json::Value* regions = e.find("regions")) {
        for (const support::json::Value& r : regions->array) {
          f += " " + r.stringOr({});
        }
      }
      out.push_back(f);
    }
  }
  if (const support::json::Value* vs = doc.find("restriction_violations")) {
    for (const support::json::Value& v : vs->array) {
      out.push_back("violation " + v.memberString("rule") + " " +
                    v.memberString("message"));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class Metamorphic : public testing::TestWithParam<System> {};

TEST_P(Metamorphic, ConcatenatedAndReversedInputsKeepTheFindings) {
  const System& sys = GetParam();
  const std::vector<std::string> files = coreFiles(sys);
  ASSERT_GT(files.size(), 1u);
  const std::string dir = freshTempDir(std::string("mm_") + sys.name);

  // One file holding every core file in order. Its relative includes
  // ("../common/x.h") resolve through -I <sys>/core.
  const std::string joined = dir + "/" + sys.name + ".c";
  {
    std::ofstream out(joined, std::ios::trunc);
    for (const std::string& f : files) {
      std::ifstream in(f);
      out << in.rdbuf() << "\n";
    }
  }
  std::vector<std::string> reversed(files.rbegin(), files.rend());
  // Plus one file of dead code: a static helper and the exported function
  // that calls it, with no shared memory and no annotations.
  std::vector<std::string> with_dead = files;
  with_dead.push_back(dir + "/dead.c");
  {
    std::ofstream out(with_dead.back(), std::ios::trunc);
    out << "static int deadHelper(int x)\n{\n    return x * 2 + 1;\n}\n"
        << "int deadCaller(int y)\n{\n    return deadHelper(y) - 3;\n}\n";
  }
  std::vector<std::string> joined_flags = {
      "-I", kCorpus + "/" + sys.name + "/core"};

  struct Shape {
    std::string name;
    std::vector<std::string> extra_flags;
    std::vector<std::string> inputs;
  };
  const std::vector<Shape> shapes = {
      {"files", {}, files},
      {"concatenated", joined_flags, {joined}},
      {"reversed", {}, reversed},
      {"dead_functions", {}, with_dead},
  };
  std::vector<std::string> reference;
  for (const Shape& shape : shapes) {
    for (const bool isolate : {false, true}) {
      SCOPED_TRACE(shape.name + (isolate ? " --isolate" : " in-process"));
      std::vector<std::string> args = analysisFlags(sys);
      args.emplace_back("--json");
      if (isolate) args.emplace_back("--isolate");
      args.insert(args.end(), shape.extra_flags.begin(),
                  shape.extra_flags.end());
      args.insert(args.end(), shape.inputs.begin(), shape.inputs.end());
      const support::SubprocessResult got = runSafeflow(args);
      ASSERT_TRUE(got.exitedWith(0) || got.exitedWith(1)) << got.err_text;
      const std::vector<std::string> found = findings(got.out_text);
      if (reference.empty()) {
        reference = found;
      } else {
        EXPECT_EQ(found, reference);
      }
    }
  }
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Metamorphic,
    testing::Values(kSystems[1], kSystems[2], kSystems[3], kSystems[4],
                    kSystems[5]),
    systemName);

struct Config {
  const char* name;
  const char* flag;  // empty for the default engine
};

const Config kConfigs[] = {
    {"summaries", ""},
    {"call_strings", "--mode=call-strings"},
    {"no_control_deps", "--no-control-deps"},
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Replaces the absolute corpus prefix with the repo-relative one the
/// goldens use (they are rendered from the repo root).
std::string normalizePaths(std::string text) {
  std::size_t pos = 0;
  while ((pos = text.find(kCorpus, pos)) != std::string::npos) {
    text.replace(pos, kCorpus.size(), "corpus");
    pos += 6;
  }
  return text;
}

class ReportGolden
    : public testing::TestWithParam<std::tuple<System, Config>> {};

TEST_P(ReportGolden, MatchesCheckedInRender) {
  const auto& [sys, config] = GetParam();
  std::vector<std::string> args = analysisFlags(sys);
  if (*config.flag != '\0') args.emplace_back(config.flag);
  const std::vector<std::string> files = coreFiles(sys);
  ASSERT_FALSE(files.empty());
  args.insert(args.end(), files.begin(), files.end());
  const support::SubprocessResult got = runSafeflow(args);
  ASSERT_TRUE(got.exitedWith(0) || got.exitedWith(1)) << got.err_text;
  const std::string golden = std::string(SAFEFLOW_GOLDENS_DIR) + "/" +
                             sys.name + "." + config.name + ".txt";
  EXPECT_EQ(normalizePaths(got.out_text), readFile(golden)) << golden;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ReportGolden,
    testing::Combine(testing::ValuesIn(kSystems),
                     testing::ValuesIn(kConfigs)),
    [](const testing::TestParamInfo<std::tuple<System, Config>>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::get<1>(info.param).name;
    });

// Two monitors reach the critical sink through a 5,000-deep helper chain.
// Both engines solve it on the function worklist, where nothing recurses
// along the chain and no depth is capped: each finds both flows, in
// process and in an isolated worker.
TEST(DeepChain, BothEnginesReportBothFlowsInProcessAndIsolated) {
  const std::string file = freshTempDir("deep_chain") + "/fan.c";
  std::ofstream(file) << bench::monitorFanProgram(2, 5000);
  for (const char* mode : {"--mode=summaries", "--mode=call-strings"}) {
    for (const char* path : {"", "--isolate"}) {
      std::vector<std::string> args = {mode};
      if (*path != '\0') args.emplace_back(path);
      args.push_back(file);
      const support::SubprocessResult got = runSafeflow(args);
      EXPECT_TRUE(got.exitedWith(1)) << mode << " " << path << got.err_text;
      EXPECT_NE(got.out_text.find("2 error dependency(ies)"),
                std::string::npos)
          << mode << " " << path << got.out_text;
    }
  }
}

// f asserts an unmonitored value safe, and f and g call each other while
// main calls neither: no root reaches the cycle. Summaries solve it under
// its local assumptions; call strings must seed it the same way instead
// of never solving it.
TEST(UnreachedCycle, BothEnginesReportItsErrorInProcessAndIsolated) {
  const std::string file = freshTempDir("unreached_cycle") + "/cycle.c";
  std::ofstream(file) << R"(
typedef struct NC { int value; } NC;
NC *nc;
extern void *shmat(int shmid, void *addr, int flags);

/*** SafeFlow Annotation shminit ***/
void initNc(void)
{
  nc = (NC *) shmat(0, 0, 0);
  /*** SafeFlow Annotation assume(shmvar(nc, sizeof(NC))) ***/
  /*** SafeFlow Annotation assume(noncore(nc)) ***/
}

int g(int n);

int f(int n)
{
  int v;
  v = nc->value;
  /*** SafeFlow Annotation assert(safe(v)); ***/
  return g(n - 1) + v;
}

int g(int n)
{
  if (n > 0) {
    return f(n);
  }
  return 0;
}

int main(void)
{
  initNc();
  return 0;
}
)";
  for (const char* mode : {"--mode=summaries", "--mode=call-strings"}) {
    for (const char* path : {"", "--isolate"}) {
      std::vector<std::string> args = {mode};
      if (*path != '\0') args.emplace_back(path);
      args.push_back(file);
      const support::SubprocessResult got = runSafeflow(args);
      EXPECT_TRUE(got.exitedWith(1)) << mode << " " << path << got.err_text;
      EXPECT_NE(got.out_text.find("1 error dependency(ies)"),
                std::string::npos)
          << mode << " " << path << got.out_text;
    }
  }
}

}  // namespace
