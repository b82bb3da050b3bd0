// The AST and the IR live in arenas (DESIGN.md §22): destroying either
// frees a few chunks, never one node at a time; the AST is freed once it
// is lowered; and no report depends on where an arena placed a node.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfront/frontend.h"
#include "ir/ir.h"
#include "ir/lowering.h"
#include "ir/printer.h"
#include "ir/ssa.h"
#include "safeflow/driver.h"
#include "safeflow/run_output.h"
#include "support/subprocess.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace safeflow {
namespace {

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

// A node freed through its parent's destructor made the teardown recurse
// once per operator of a left-deep expression: this one overflowed the
// stack when the Frontend was destroyed, after a clean parse. Its two
// million tokens take about 220 MB (430 MB and 5 s under ASan).
TEST(Arena, FrontendFreesAMillionTermSumWithoutRecursing) {
  constexpr int kTerms = 1'000'000;
  std::string source = "int f(void) { return 1";
  source.reserve(source.size() + 2 * kTerms + 8);
  for (int i = 1; i < kTerms; ++i) source += "+1";
  source += "; }\n";
  {
    cfront::Frontend fe;
    ASSERT_TRUE(fe.parseBuffer("sum.c", std::move(source)));
    ASSERT_EQ(fe.unit().functions().size(), 1u);
    EXPECT_TRUE(fe.unit().functions()[0]->isDefined());
  }
  SUCCEED() << "the Frontend was destroyed";
}

TEST(Arena, ReleaseUnitEmptiesTheUnitAndALaterParseWorks) {
  cfront::Frontend fe;
  ASSERT_TRUE(fe.parseBuffer("a.c", "int g; int f(void) { return g; }\n"));
  ASSERT_EQ(fe.unit().functions().size(), 1u);
  ASSERT_EQ(fe.unit().globals().size(), 1u);

  fe.releaseUnit();
  EXPECT_TRUE(fe.unit().functions().empty());
  EXPECT_TRUE(fe.unit().globals().empty());
  EXPECT_TRUE(fe.unit().typedefs().empty());

  // The new unit sees none of the old declarations, and lowers alone.
  ASSERT_TRUE(fe.parseBuffer(
      "b.c", "typedef int word; word h(word x) { return x + 1; }\n"));
  ASSERT_EQ(fe.unit().functions().size(), 1u);
  EXPECT_EQ(fe.unit().functions()[0]->name(), "h");
  EXPECT_EQ(fe.unit().findGlobal("g"), nullptr);
  ir::Module module(fe.types());
  ASSERT_TRUE(ir::Lowering(fe.unit(), module, fe.diagnostics()).run());
  fe.releaseUnit();
  ir::promoteModuleToSsa(module);
  ASSERT_EQ(module.functions().size(), 1u);
  EXPECT_EQ(ir::verifySsa(*module.functions()[0]), "");
  EXPECT_NE(ir::print(module).find("define int @h(int %x)"),
            std::string::npos);
}

std::vector<std::string> coreFiles(const std::string& system) {
  std::vector<std::string> files;
  const std::string dir = kCorpus + "/" + system + "/core";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string leaf = e->d_name;
      if (leaf.size() > 2 && leaf.ends_with(".c")) {
        files.push_back(dir + "/" + leaf);
      }
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A --json report up to its "stats" member, which carries timings.
std::string withoutStats(const std::string& json) {
  return json.substr(0, json.find(",\n  \"stats\": "));
}

/// What one render of a Table 1 system prints: exit code, stdout, and
/// the --dot file when `dot` is set.
struct Printed {
  int exit_code = -1;
  std::string out;
  std::string dot;
};

RenderOptions renderFor(bool json, const std::string& dot_path) {
  RenderOptions render;
  render.json = json;
  render.dot_path = dot_path;
  return render;
}

Printed alone(const std::string& system, bool json,
              const std::string& dot_path) {
  std::vector<std::string> argv = {SAFEFLOW_EXE, "--kill-critical", "-I",
                                   kCorpus + "/" + system + "/common"};
  for (const std::string& arg : renderFor(json, dot_path).args()) {
    argv.push_back(arg);
  }
  for (const std::string& f : coreFiles(system)) argv.push_back(f);
  support::SubprocessOptions opts;
  opts.timeout_seconds = 120.0;
  const support::SubprocessResult r = support::runSubprocess(argv, opts);
  Printed p{r.exit_code, json ? withoutStats(r.out_text) : r.out_text,
            {}};
  if (!dot_path.empty()) p.dot = readFile(dot_path);
  return p;
}

// Arena chunks are not handed out at rising addresses, and a second run
// in one process gets chunks the first one's heap use has shaped: a
// container ordered by node address that fed a report would show here.
TEST(Arena, SecondDriverInOneProcessPrintsWhatItPrintsAlone) {
  const std::string dir =
      ::testing::TempDir() + "/sf_arena_" + std::to_string(::getpid());
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  for (const bool json : {false, true}) {
    for (const bool dot : {false, true}) {
      if (json && dot) continue;
      // ip's driver stays alive while double_ip's runs.
      std::vector<std::unique_ptr<SafeFlowDriver>> drivers;
      for (const std::string system : {"ip", "double_ip"}) {
        SCOPED_TRACE(system + (json ? " --json" : "") + (dot ? " --dot" : ""));
        // One path for both runs: the report names it.
        const std::string dot_path = dot ? dir + "/" + system + ".dot" : "";
        SafeFlowOptions options;
        options.include_dirs.push_back(kCorpus + "/" + system + "/common");
        options.taint.implicit_critical_calls.emplace_back("kill", 0u);
        drivers.push_back(std::make_unique<SafeFlowDriver>(options));
        const RunOutput run = analyzeAndRender(
            *drivers.back(), coreFiles(system), renderFor(json, dot_path));
        const std::string graph = dot ? readFile(dot_path) : "";
        const Printed expected = alone(system, json, dot_path);
        EXPECT_EQ(run.exit_code, expected.exit_code);
        EXPECT_EQ(json ? withoutStats(run.stdout_text) : run.stdout_text,
                  expected.out);
        if (dot) {
          EXPECT_FALSE(expected.dot.empty());
          EXPECT_EQ(graph, expected.dot);
        }
      }
    }
  }
  std::system(("rm -rf '" + dir + "'").c_str());
}

#if defined(__SANITIZE_ADDRESS__)
// Arena memory is never freed, so an instruction SSA erases would look
// live to ASan: erase() poisons it instead, and a dangling operand is
// still reported. Compiled only under AddressSanitizer.
TEST(Arena, SsaPoisonsTheLoadsItErases) {
  cfront::Frontend fe;
  ASSERT_TRUE(fe.parseBuffer(
      "p.c", "int f(int x) { int y = x + 1; return y; }\n"));
  ir::Module module(fe.types());
  ASSERT_TRUE(ir::Lowering(fe.unit(), module, fe.diagnostics()).run());
  const ir::Instruction* load = nullptr;
  for (const ir::BasicBlock* bb : module.findFunction("f")->blocks()) {
    for (const ir::Instruction* inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kLoad) load = inst;
    }
  }
  ASSERT_NE(load, nullptr);
  EXPECT_FALSE(__asan_address_is_poisoned(load));
  ASSERT_GT(ir::promoteModuleToSsa(module).loads_removed, 0u);
  EXPECT_TRUE(__asan_address_is_poisoned(load));
}
#endif

}  // namespace
}  // namespace safeflow
