// Tests for the public SafeFlowDriver API: statistics, multi-file
// analysis, include directories, predefines, idempotence, and error
// paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "safeflow/driver.h"

namespace {

using namespace safeflow;

std::string tempDir() { return ::testing::TempDir(); }

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

TEST(Driver, MissingFileReportsAndReturnsFalse) {
  SafeFlowDriver driver;
  EXPECT_FALSE(driver.addFile("/definitely/not/here.c"));
  EXPECT_TRUE(driver.hasFrontendErrors());
}

TEST(Driver, ParseErrorSurfacesThroughDiagnostics) {
  SafeFlowDriver driver;
  EXPECT_FALSE(driver.addSource("bad.c", "int main( { return 0; }"));
  EXPECT_TRUE(driver.hasFrontendErrors());
  EXPECT_GT(driver.diagnostics().errorCount(), 0u);
}

TEST(Driver, AnalyzeIsIdempotent) {
  SafeFlowDriver driver;
  driver.addSource("a.c", "int main(void) { return 0; }");
  const auto& first = driver.analyze();
  const auto* first_addr = &first;
  const auto& second = driver.analyze();
  EXPECT_EQ(first_addr, &second);
}

TEST(Driver, StatsCountEverything) {
  SafeFlowDriver driver;
  driver.addSource("a.c", R"(
typedef struct C { float v; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
float mon(void)
/*** SafeFlow Annotation assume(core(cell, 0, sizeof(C))) ***/
{
    return cell->v;
}
int main(void) { init(); mon(); return 0; }
)");
  driver.analyze();
  const auto& s = driver.stats();
  EXPECT_EQ(s.files, 1u);
  EXPECT_EQ(s.shm_regions, 1u);
  EXPECT_EQ(s.noncore_regions, 1u);
  EXPECT_EQ(s.init_functions, 1u);
  EXPECT_EQ(s.monitor_functions, 1u);
  EXPECT_EQ(s.annotation_count, 4u);
  EXPECT_EQ(s.annotation_lines, 4u);
  EXPECT_GT(s.loc.code_lines, 10u);
  EXPECT_GE(s.analysis_seconds, 0.0);
}

TEST(Driver, MultiFileGlobalsResolveAcrossFiles) {
  SafeFlowDriver driver;
  driver.addSource("decls.c", R"(
typedef struct C { float v; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
)");
  driver.addSource("use.c", R"(
typedef struct C { float v; } C;
extern C *cell;
extern void init(void);
extern void sink(float v);
int main(void)
{
    float out;
    init();
    out = cell->v;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  const auto& report = driver.analyze();
  EXPECT_FALSE(driver.hasFrontendErrors())
      << driver.diagnostics().render(driver.sources());
  ASSERT_EQ(report.errors.size(), 1u)
      << report.render(driver.sources());
}

TEST(Driver, IncludeDirectoriesWork) {
  const std::string dir = tempDir() + "/sf_driver_inc";
  std::remove((dir + "/shared.h").c_str());
#ifdef _WIN32
#else
  (void)system(("mkdir -p " + dir).c_str());
#endif
  writeFile(dir + "/shared.h", "typedef struct S { int a; } S;\n");
  const std::string main_c = tempDir() + "/sf_driver_main.c";
  writeFile(main_c,
            "#include \"shared.h\"\nint size(void) { return sizeof(S); }\n");

  SafeFlowOptions options;
  options.include_dirs.push_back(dir);
  SafeFlowDriver driver(options);
  EXPECT_TRUE(driver.addFile(main_c))
      << driver.diagnostics().render(driver.sources());
}

TEST(Driver, PredefinesReachTheSource) {
  SafeFlowOptions options;
  options.defines.emplace_back("RING", "16");
  SafeFlowDriver driver(options);
  EXPECT_TRUE(driver.addSource("a.c", "int buffer[RING];"));
}

TEST(Driver, ReportMirroredIntoDiagnostics) {
  SafeFlowDriver driver;
  driver.addSource("a.c", R"(
typedef struct C { float v; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
extern void sink(float v);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
int main(void)
{
    float out;
    init();
    out = cell->v;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  driver.analyze();
  EXPECT_GE(driver.diagnostics().countCategoryPrefix("safeflow.warning"),
            1u);
  EXPECT_GE(driver.diagnostics().countCategoryPrefix("safeflow.error"), 1u);
}

TEST(Driver, JsonReportIsWellFormedEnough) {
  SafeFlowDriver driver;
  driver.addSource("a.c", R"(
typedef struct C { float v; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
extern void sink(float v);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
int main(void)
{
    float out;
    init();
    out = cell->v;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  const auto& report = driver.analyze();
  const std::string json = report.renderJson(driver.sources());
  // Structural smoke checks: balanced braces/brackets, expected keys.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"warnings\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"data\""), std::string::npos);
  EXPECT_NE(json.find("\"data_errors\": 1"), std::string::npos);
}

TEST(Driver, NoRegionsMeansNoFindings) {
  SafeFlowDriver driver;
  driver.addSource("plain.c", R"(
int add(int a, int b) { return a + b; }
int main(void) { return add(1, 2); }
)");
  const auto& report = driver.analyze();
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.required_runtime_checks.empty());
}

TEST(Driver, LocCountsIpCoreFiles) {
  const std::string corpus = SAFEFLOW_CORPUS_DIR;
  SafeFlowOptions options;
  options.include_dirs.push_back(corpus + "/ip/common");
  SafeFlowDriver driver(options);
  for (const char* file : {"comm.c", "decision.c", "filter.c", "main.c",
                           "safety.c", "selftest.c", "telemetry.c"}) {
    EXPECT_TRUE(driver.addFile(corpus + "/ip/core/" + file)) << file;
  }
  const auto& loc = driver.stats().loc;
  EXPECT_EQ(loc.total_lines, 836u);
  EXPECT_EQ(loc.code_lines, 628u);
  EXPECT_EQ(loc.comment_lines, 112u);
  EXPECT_EQ(loc.blank_lines, 96u);
}

// Anonymous structs are numbered per run: a second analysis in the same
// process names them as the first did.
TEST(Driver, AnonymousStructNamesRepeatAcrossRuns) {
  const char* src = R"(
typedef struct { int a; int b; } Pair;
typedef struct { float x; } Other;

Pair *shared;

extern void *shmat(int shmid, void *addr, int flags);
extern int shmget(int key, int size, int flags);

/*** SafeFlow Annotation shminit ***/
void initComm(void)
{
  shared = (Pair *) shmat(shmget(42, sizeof(Pair), 0), 0, 0);
  /*** SafeFlow Annotation assume(shmvar(shared, sizeof(Pair))) ***/
  /*** SafeFlow Annotation assume(noncore(shared)) ***/
}

float peek(void) { Other *o = (Other *)shared; return o->x; }
int main(void) { initComm(); peek(); return 0; }
)";
  std::vector<std::string> renders;
  for (int run = 0; run < 2; ++run) {
    SafeFlowDriver driver;
    driver.addSource("anon.c", src);
    renders.push_back(driver.analyze().render(driver.sources()));
  }
  EXPECT_NE(renders[0].find("cast to incompatible type struct <anon1>*"),
            std::string::npos)
      << renders[0];
  EXPECT_EQ(renders[0], renders[1]);
}

}  // namespace
