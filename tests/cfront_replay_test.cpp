// The frontend reads and lexes each header once per run and replays its
// raw tokens at every #include (HeaderCache). These tests pin that C
// semantics survive the replay (per-file macro state, include guards,
// #pragma once, diagnostics inside headers, function bodies in headers)
// and that nothing the frontend counts moved. They also pin how includes
// end: a directive on a file's last line, the nesting cap that stops an
// unguarded include cycle, and lexer and preprocessor errors failing
// their file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/synthetic.h"
#include "cfront/frontend.h"
#include "cfront/preprocessor.h"
#include "safeflow/driver.h"
#include "safeflow/run_output.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

namespace {

using namespace safeflow;
namespace fs = std::filesystem;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

/// A fresh directory for one test's files, removed afterwards.
class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("sf_replay_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `text` to `rel` under the test directory; returns its path.
  std::string write(const std::string& rel, const std::string& text) {
    const fs::path path = dir_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary) << text;
    return path.string();
  }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

/// Preprocesses in-memory translation units that share one SourceManager
/// and one HeaderCache, as a Frontend's files do. Returns each file's
/// token spellings joined by spaces.
std::vector<std::string> preprocessAll(
    const std::string& dir, const std::vector<std::string>& sources,
    support::SourceManager& sm, support::DiagnosticEngine& diags) {
  cfront::HeaderCache headers(sm);
  std::vector<std::string> spellings;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const support::FileId id = sm.addBuffer(
        dir + "/tu" + std::to_string(i) + ".c", sources[i]);
    cfront::Preprocessor pp(sm, diags, {}, &headers);
    std::string out;
    for (const cfront::Token& t : pp.run(id)) {
      if (t.text.empty()) continue;
      if (!out.empty()) out += ' ';
      out += t.text;
    }
    spellings.push_back(out);
  }
  return spellings;
}

std::vector<std::string> coreFiles(const std::string& system) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(kCorpus + "/" + system +
                                                  "/core")) {
    if (entry.path().extension() == ".c") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// A file of 15 bytes or fewer keeps its text inside the std::string
// object. When such a file's #include registered another file, the
// SourceManager used to move its files, and the including file's lexer
// read freed memory (AddressSanitizer: heap-use-after-free).
TEST_F(ReplayTest, TinyFileIncludingAnotherParsesCleanly) {
  write("a", "int");
  const std::string tu = write("tu.c", "#include \"a\"\nx;");
  ASSERT_EQ(fs::file_size(tu), 15u);
  cfront::Frontend fe;
  EXPECT_TRUE(fe.parseFile(tu)) << fe.diagnostics().render(fe.sources());
  EXPECT_EQ(fe.diagnostics().errorCount(), 0u)
      << fe.diagnostics().render(fe.sources());
  EXPECT_NE(fe.unit().findGlobal("x"), nullptr);
}

// The driver releases the cache before analyzing; a parse after that
// reads the header again, under a new FileId.
TEST_F(ReplayTest, ParsingAfterReleaseReadsHeadersAgain) {
  write("shared.h", "int shared;\n");
  const std::string t1 = write("t1.c", "#include \"shared.h\"\nint t1;\n");
  const std::string t2 = write("t2.c", "#include \"shared.h\"\nint t2;\n");
  cfront::Frontend fe;
  EXPECT_TRUE(fe.parseFile(t1));
  fe.releaseHeaders();
  EXPECT_TRUE(fe.parseFile(t2));
  EXPECT_EQ(fe.diagnostics().errorCount(), 0u)
      << fe.diagnostics().render(fe.sources());
  EXPECT_NE(fe.unit().findGlobal("t2"), nullptr);
  EXPECT_EQ(fe.sources().fileCount(), 4u);
}

TEST_F(ReplayTest, MacroStateIsPerTranslationUnit) {
  write("mode.h",
        "#ifdef MODE_A\n"
        "int mode_a;\n"
        "#else\n"
        "int mode_b;\n"
        "#endif\n"
        "int MODE_VALUE;\n");
  support::SourceManager sm;
  support::DiagnosticEngine diags;
  const std::vector<std::string> spellings = preprocessAll(
      dir(),
      {"#define MODE_A\n#define MODE_VALUE one\n#include \"mode.h\"\nint x;\n",
       "#define MODE_VALUE two\n#include \"mode.h\"\nint x;\n",
       "#define MODE_A\n#include \"mode.h\"\nint x;\n"},
      sm, diags);
  EXPECT_EQ(diags.errorCount(), 0u) << diags.render(sm);
  ASSERT_EQ(spellings.size(), 3u);
  EXPECT_EQ(spellings[0], "int mode_a int one int x");
  EXPECT_EQ(spellings[1], "int mode_b int two int x");
  EXPECT_EQ(spellings[2], "int mode_a int MODE_VALUE int x");
  // Three translation units and one header, read once.
  EXPECT_EQ(sm.fileCount(), 4u);
}

TEST_F(ReplayTest, GuardsHoldAcrossTranslationUnits) {
  write("guarded.h",
        "#ifndef GUARDED_H\n#define GUARDED_H\nint guarded;\n#endif\n");
  write("once.h", "#pragma once\nint once;\n");
  const std::string twice =
      "#include \"guarded.h\"\n#include \"once.h\"\n"
      "#include \"guarded.h\"\n#include \"once.h\"\nint first;\n";
  const std::string single =
      "#include \"once.h\"\n#include \"guarded.h\"\nint second;\n";
  support::SourceManager sm;
  support::DiagnosticEngine diags;
  const std::vector<std::string> spellings =
      preprocessAll(dir(), {twice, single, twice}, sm, diags);
  EXPECT_EQ(diags.errorCount(), 0u) << diags.render(sm);
  ASSERT_EQ(spellings.size(), 3u);
  EXPECT_EQ(spellings[0], "int guarded int once int first");
  EXPECT_EQ(spellings[1], "int once int guarded int second");
  EXPECT_EQ(spellings[2], "int guarded int once int first");
}

// A header's lexer diagnostics are emitted again at every include, in the
// order lexing it would emit them: the unterminated comment is found
// while reading the rest of the #include line, before that include fails.
TEST_F(ReplayTest, HeaderLexerDiagnosticsRepeatAtEveryInclude) {
  write("bad.h",
        "int bad_a;\nint @ bad_b;\n#include \"missing.h\"\n/* unterminated");
  const std::string t1 = write("t1.c", "#include \"bad.h\"\nint t1;\n");
  const std::string t2 = write("t2.c", "#include \"bad.h\"\nint t2;\n");
  cfront::Frontend fe;
  fe.parseFile(t1);
  fe.parseFile(t2);
  const std::string bad = dir() + "/bad.h";
  EXPECT_EQ(fe.diagnostics().errorCount(), 6u);
  EXPECT_EQ(fe.diagnostics().render(fe.sources()),
            bad + ":2:5: error [lex] unexpected character '@'\n" +
            bad + ":2:5: error [lex] unexpected character '@'\n" +
            bad + ":3:10: error [preprocess] cannot open include file "
                  "\"missing.h\"\n" +
            bad + ":3:10: error [preprocess] cannot open include file "
                  "\"missing.h\"\n" +
            bad + ":4:1: error [lex] unterminated block comment\n" +
            bad + ":4:1: error [lex] unterminated block comment\n" +
            "6 diagnostic(s): lex=4 preprocess=2\n");
  std::vector<std::string> order;
  for (const support::Diagnostic& d : fe.diagnostics().diagnostics()) {
    order.push_back(d.message);
  }
  const std::vector<std::string> per_include = {
      "unexpected character '@'", "unterminated block comment",
      "cannot open include file \"missing.h\""};
  std::vector<std::string> expected = per_include;
  expected.insert(expected.end(), per_include.begin(), per_include.end());
  EXPECT_EQ(order, expected);
}

// SourceLocation orders by FileId, and a header now has one FileId per
// run, lower than the ids of later translation units. A function defined
// in a header and called from two files must still report as before.
TEST_F(ReplayTest, FunctionBodyInHeaderReportsAlikeInEitherFileOrder) {
  write("common/shm.h",
        "#ifndef SHM_H\n#define SHM_H\n"
        "typedef struct SHM { float control; float position; float angle; "
        "int seq; } SHMData;\n"
        "extern SHMData *feedback;\n"
        "extern SHMData *noncoreCtrl;\n"
        "static float readNoncore(void) { return noncoreCtrl->control; }\n"
        "#endif\n");
  const std::string a = write(
      "a.c",
      "#include \"shm.h\"\n"
      "SHMData *feedback;\n"
      "SHMData *noncoreCtrl;\n"
      "extern void *shmat(int shmid, void *addr, int flags);\n"
      "extern int shmget(int key, int size, int flags);\n"
      "extern float stepB(void);\n"
      "/*** SafeFlow Annotation shminit ***/\n"
      "void initComm(void)\n"
      "{\n"
      "  void *shmStart;\n"
      "  shmStart = shmat(shmget(42, 2 * sizeof(SHMData), 0), 0, 0);\n"
      "  feedback = (SHMData *) shmStart;\n"
      "  noncoreCtrl = feedback + 1;\n"
      "  /*** SafeFlow Annotation assume(shmvar(feedback, sizeof(SHMData))) "
      "***/\n"
      "  /*** SafeFlow Annotation assume(shmvar(noncoreCtrl, "
      "sizeof(SHMData))) ***/\n"
      "  /*** SafeFlow Annotation assume(noncore(feedback)) ***/\n"
      "  /*** SafeFlow Annotation assume(noncore(noncoreCtrl)) ***/\n"
      "}\n"
      "int main(void)\n"
      "{\n"
      "  float v;\n"
      "  initComm();\n"
      "  v = readNoncore();\n"
      "  /*** SafeFlow Annotation assert(safe(v)); ***/\n"
      "  return (int)(v + stepB());\n"
      "}\n");
  const std::string b = write("b.c",
                              "#include \"shm.h\"\n"
                              "float stepB(void)\n"
                              "{\n"
                              "  float w = readNoncore();\n"
                              "  /*** SafeFlow Annotation assert(safe(w)); "
                              "***/\n"
                              "  return w;\n"
                              "}\n");
  const std::string header = dir() + "/common/shm.h";
  const std::string expected =
      "== SafeFlow report ==\n"
      "warnings (unmonitored non-core accesses): 1\n"
      "  [warning] " + header + ":6:52 in readNoncore: unmonitored read of "
      "non-core region 'noncoreCtrl' bytes [0, 4)\n"
      "error dependencies: 2 (2 data, 0 control-only; control-only entries "
      "require manual review)\n"
      "  [error/data] " + b + ":5:3 in stepB: critical value 'w' depends on "
      "non-core region(s): noncoreCtrl\n"
      "      via unmonitored load at " + header + ":6:52\n"
      "  [error/data] " + a + ":24:3 in main: critical value 'v' depends on "
      "non-core region(s): noncoreCtrl\n"
      "      via unmonitored load at " + header + ":6:52\n"
      "restriction violations: 0\n"
      "  [runtime-check] InitCheck: region extents were derived statically "
      "and proven non-overlapping (no run-time check needed)\n";
  for (const auto& order : {std::vector<std::string>{a, b},
                            std::vector<std::string>{b, a}}) {
    SafeFlowOptions options;
    options.include_dirs.push_back(dir() + "/common");
    SafeFlowDriver driver(options);
    for (const std::string& file : order) {
      EXPECT_TRUE(driver.addFile(file))
          << driver.diagnostics().render(driver.sources());
    }
    EXPECT_EQ(driver.analyze().render(driver.sources()), expected)
        << "first file: " << order.front();
  }
}

// Reading past a file's last line pops its frame. The file's directory
// must be taken first, or the include resolves from the includer's
// directory (for a root file, from the -I directories only).
TEST_F(ReplayTest, IncludeOnTheLastLineResolvesBesideItsFile) {
  write("sub/mode.h", "#ifdef MODE_A\nint mode_a;\n#endif\n");
  for (const char* newline : {"\n", ""}) {
    const std::string last = write(
        "sub/last.c", std::string("#define MODE_A\n#include \"mode.h\"") +
                          newline);
    cfront::Frontend fe;
    EXPECT_TRUE(fe.parseFile(last)) << fe.diagnostics().render(fe.sources());
    EXPECT_EQ(fe.diagnostics().errorCount(), 0u)
        << fe.diagnostics().render(fe.sources());
    EXPECT_NE(fe.unit().findGlobal("mode_a"), nullptr)
        << "newline: " << (*newline != '\0');
  }
}

TEST_F(ReplayTest, PragmaOnceOnTheLastLineMarksItsFile) {
  write("once.h", "int once;\n#pragma once\n");
  support::SourceManager sm;
  support::DiagnosticEngine diags;
  const std::vector<std::string> spellings = preprocessAll(
      dir(), {"#include \"once.h\"\n#include \"once.h\"\nint x;\n"}, sm,
      diags);
  EXPECT_EQ(diags.errorCount(), 0u) << diags.render(sm);
  ASSERT_EQ(spellings.size(), 1u);
  EXPECT_EQ(spellings[0], "int once int x");
}

// Without guards x.h and y.h include each other forever; the nesting cap
// turns that into one error instead of a frontend that never returns.
// With declarations after each include the frame stack grows; with the
// include on each header's last line it does not, and only the recorded
// depth ends the cycle.
TEST_F(ReplayTest, UnguardedIncludeCycleStopsAtTheDepthCap) {
  for (const char* after_include : {"int v;\n", ""}) {
    write("x.h", std::string("#include \"y.h\"\n") + after_include);
    write("y.h", std::string("#include \"x.h\"\n") + after_include);
    const std::string a =
        write("a.c", "#include \"x.h\"\nint core_main(void);\n");
    cfront::Frontend fe;
    EXPECT_FALSE(fe.parseFile(a));
    ASSERT_EQ(fe.diagnostics().errorCount(), 1u)
        << fe.diagnostics().render(fe.sources());
    const support::Diagnostic& d = fe.diagnostics().diagnostics()[0];
    EXPECT_EQ(d.category, "preprocess");
    EXPECT_EQ(d.message, "#include nested more than 200 deep");
  }
}

TEST_F(ReplayTest, IncludesNestTwoHundredDeep) {
  ASSERT_EQ(cfront::kMaxIncludeDepth, 200u);
  // d1.h includes d2.h, ..., d200.h includes d201.h, each on its last
  // line.
  for (int i = 1; i <= 201; ++i) {
    write("d" + std::to_string(i) + ".h",
          i == 201 ? std::string("int deepest;\n")
                   : "#include \"d" + std::to_string(i + 1) + ".h\"\n");
  }
  const std::string at_cap = write("at_cap.c", "#include \"d2.h\"\n");
  const std::string past_cap = write("past_cap.c", "#include \"d1.h\"\n");
  cfront::Frontend fe;
  EXPECT_TRUE(fe.parseFile(at_cap)) << fe.diagnostics().render(fe.sources());
  EXPECT_NE(fe.unit().findGlobal("deepest"), nullptr);
  EXPECT_FALSE(fe.parseFile(past_cap));
  EXPECT_EQ(fe.diagnostics().errorCount(), 1u)
      << fe.diagnostics().render(fe.sources());
}

// A file the lexer or the preprocessor rejects is not parsed cleanly: it
// fails like a parse error, its diagnostic is printed, and the report
// lists it as partial instead of certifying it.
TEST_F(ReplayTest, LexAndPreprocessErrorsFailTheFile) {
  const std::string good = write("good.c", "int good(void) { return 0; }\n");
  const std::pair<const char*, const char*> inputs[] = {
      {"int bad_a;\n@\nint bad_b;\n", "[lex] unexpected character '@'"},
      {"int bad_a;\n/* unterminated", "[lex] unterminated block comment"},
      {"#include \"missing.h\"\nint bad_a;\n",
       "[preprocess] cannot open include file \"missing.h\""},
  };
  for (const auto& [text, diagnostic] : inputs) {
    const std::string bad = write("bad.c", text);
    cfront::Frontend fe;
    EXPECT_FALSE(fe.parseFile(bad)) << diagnostic;
    EXPECT_NE(fe.diagnostics().render(fe.sources()).find(diagnostic),
              std::string::npos)
        << diagnostic;

    SafeFlowDriver driver;
    const RunOutput run = analyzeAndRender(driver, {bad, good}, {});
    EXPECT_EQ(run.exit_code, 2) << diagnostic;
    EXPECT_NE(run.stderr_text.find(diagnostic), std::string::npos)
        << run.stderr_text;
    EXPECT_NE(run.stdout_text.find("[partial] '" + bad + "'"),
              std::string::npos)
        << run.stdout_text;
  }
}

TEST(HeaderReplay, EachHeaderIsOneFilePerRun) {
  cfront::Frontend fe({kCorpus + "/ip/common"});
  const std::vector<std::string> files = coreFiles("ip");
  ASSERT_EQ(files.size(), 7u);
  for (const std::string& file : files) {
    EXPECT_TRUE(fe.parseFile(file)) << fe.diagnostics().render(fe.sources());
  }
  // 7 translation units plus ipc_types.h and sys.h.
  EXPECT_EQ(fe.sources().fileCount(), 9u);
}

/// frontend.tokens and frontend.files after analyzing the program.
std::pair<std::uint64_t, std::uint64_t> frontendCounters(
    SafeFlowDriver& driver) {
  driver.analyze();
  EXPECT_FALSE(driver.hasFrontendErrors())
      << driver.diagnostics().render(driver.sources());
  const std::map<std::string, std::uint64_t> counters(
      driver.stats().counters.begin(), driver.stats().counters.end());
  const auto get = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  return {get("frontend.tokens"), get("frontend.files")};
}

TEST(HeaderReplay, CorpusFrontendCountersDoNotMove) {
  struct Expected {
    const char* system;
    bool table1;  // analyzed with -I <system>/common, as Table 1 is
    std::uint64_t tokens, files;
  };
  const Expected systems[] = {
      {"running_example", false, 330, 1}, {"ip", true, 5017, 7},
      {"generic_simplex", true, 4448, 8}, {"double_ip", true, 4985, 7},
      {"rangelab", false, 717, 3},        {"pointerlab", false, 1085, 5},
  };
  for (const Expected& e : systems) {
    SafeFlowOptions options;
    if (e.table1) {
      options.include_dirs.push_back(kCorpus + "/" + e.system + "/common");
    }
    SafeFlowDriver driver(options);
    const std::string system = e.system;
    const std::vector<std::string> files =
        system == "running_example"
            ? std::vector<std::string>{kCorpus + "/running_example/core.c"}
            : coreFiles(system);
    for (const std::string& file : files) driver.addFile(file);
    EXPECT_EQ(frontendCounters(driver),
              std::make_pair(e.tokens, e.files))
        << e.system;
  }
}

TEST(HeaderReplay, WorkloadFrontendCountersDoNotMove) {
  struct Expected {
    const char* name;
    std::string source;
    std::uint64_t tokens;
  };
  const Expected programs[] = {
      {"scalingProgram(2000)", bench::scalingProgram(2000), 150164},
      {"accumulatorCycleProgram(12, 96)",
       bench::accumulatorCycleProgram(12, 96), 15832},
      {"pointerChurnProgram(200, 32)", bench::pointerChurnProgram(200, 32),
       27685},
  };
  for (const Expected& e : programs) {
    SafeFlowDriver driver;
    driver.addSource("workload.c", e.source);
    EXPECT_EQ(frontendCounters(driver),
              std::make_pair(e.tokens, std::uint64_t{1}))
        << e.name;
  }
}

}  // namespace
