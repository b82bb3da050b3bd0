// Tests for SafeFlow annotations (paper §3.1, §3.2.1) as the C parser
// reads them: grammar coverage, offsets and sizes as C constant
// expressions, names bound by C scope, and malformed inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include <unistd.h>

#include "cfront/frontend.h"
#include "safeflow/run_output.h"

namespace {

using namespace safeflow;
using Kind = cfront::Annotation::Kind;

class AnnotationTest : public ::testing::Test {
 protected:
  AnnotationTest() {
    // Register a struct and a typedef so sizeof(...) resolves.
    fe_.parseBuffer("types.c",
                    "typedef struct SHM { float control; float position; "
                    "float angle; int seq; } SHMData;\n"
                    "struct Pair { double a; double b; };\n");
  }

  /// The entry annotation `text` of a fresh function defined after
  /// `prefix`, or nullopt when the parser rejected it.
  std::optional<cfront::Annotation> parse(const std::string& text,
                                          const std::string& prefix = "") {
    const std::string name = "f" + std::to_string(functions_++);
    fe_.parseBuffer(name + ".c", prefix + "void " + name +
                                     "(void)\n/*** SafeFlow Annotation " +
                                     text + " ***/\n{ }\n");
    const cfront::FunctionDecl* f = fe_.unit().findFunction(name);
    if (f == nullptr || f->entryAnnotations().empty()) return std::nullopt;
    return f->entryAnnotations().front();
  }

  cfront::Frontend fe_;
  int functions_ = 0;
};

TEST_F(AnnotationTest, ShmInit) {
  const auto a = parse("shminit");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Kind::kShmInit);
}

TEST_F(AnnotationTest, AssumeCoreBasic) {
  const auto a = parse("assume(core(ptr, 0, 16))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Kind::kAssumeCore);
  EXPECT_EQ(a->name, "ptr");
  EXPECT_EQ(a->offset, 0);
  EXPECT_EQ(a->size, 16);
}

TEST_F(AnnotationTest, AssumeCoreWithSizeofTypedef) {
  const auto a = parse("assume(core(nc, 0, sizeof(SHMData)))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 16);  // 3 floats + int
}

TEST_F(AnnotationTest, AssumeCoreWithSizeofStructTag) {
  const auto a = parse("assume(core(p, 0, sizeof(struct Pair)))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 16);
}

TEST_F(AnnotationTest, SizeofArithmetic) {
  const auto a = parse("assume(shmvar(ring, 8 * sizeof(SHMData)))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Kind::kShmVar);
  EXPECT_EQ(a->size, 8 * 16);
}

TEST_F(AnnotationTest, SizeofSumAndDifference) {
  const auto a = parse("assume(shmvar(p, sizeof(SHMData) + 4 - 2))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 18);
}

TEST_F(AnnotationTest, ParenthesizedExpression) {
  const auto a = parse("assume(shmvar(p, 2 * (sizeof(SHMData) + 8)))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 48);
}

TEST_F(AnnotationTest, SizeofBuiltins) {
  EXPECT_EQ(parse("assume(shmvar(p, sizeof(int)))")->size, 4);
  EXPECT_EQ(parse("assume(shmvar(p, sizeof(double)))")->size, 8);
  EXPECT_EQ(parse("assume(shmvar(p, sizeof(char)))")->size, 1);
}

TEST_F(AnnotationTest, SizeofPointer) {
  const auto a = parse("assume(shmvar(p, sizeof(SHMData *)))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 8);
}

TEST_F(AnnotationTest, NonCore) {
  const auto a = parse("assume(noncore(feedback))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Kind::kNonCore);
  EXPECT_EQ(a->name, "feedback");
}

TEST_F(AnnotationTest, AssertSafe) {
  const auto a = parse("assert(safe(output));");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Kind::kAssertSafe);
  EXPECT_EQ(a->name, "output");
}

TEST_F(AnnotationTest, AssertSafeWithoutSemicolon) {
  const auto a = parse("assert(safe(pid))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->name, "pid");
}

TEST_F(AnnotationTest, WhitespaceTolerant) {
  const auto a = parse("  assume ( core ( nc , 4 , 12 ) )  ");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->offset, 4);
  EXPECT_EQ(a->size, 12);
}

TEST_F(AnnotationTest, DivisionInConstExpr) {
  const auto a = parse("assume(shmvar(p, sizeof(SHMData) / 2))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 8);
}

// -- C constant expressions -------------------------------------------------

TEST_F(AnnotationTest, HexLiteralOffset) {
  const auto a = parse("assume(core(nc, 0x0, 4))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->offset, 0);
  EXPECT_EQ(a->size, 4);
}

TEST_F(AnnotationTest, SizeofMultiWordTypeNames) {
  EXPECT_EQ(parse("assume(shmvar(p, sizeof(unsigned int)))")->size, 4);
  EXPECT_EQ(parse("assume(shmvar(p, sizeof(long long)))")->size, 8);
}

TEST_F(AnnotationTest, SizeofArrayTypeName) {
  const auto a = parse("assume(shmvar(p, sizeof(float[1])))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 4);
}

TEST_F(AnnotationTest, EnumConstantSize) {
  const auto a = parse("assume(shmvar(ring, kSlots * sizeof(SHMData)))",
                       "enum { kSlots = 3 };\n");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size, 3 * 16);
}

TEST_F(AnnotationTest, RemainderFollowsCPrecedence) {
  const auto a = parse("assume(core(nc, 8 % 5 + 1, 4))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->offset, 4);
}

// -- names bound by C scope ------------------------------------------------

// An entry annotation written before the signature sees the parameters,
// which shadow the globals.
TEST_F(AnnotationTest, EntryAnnotationBeforeSignatureBindsTheParameter) {
  ASSERT_TRUE(fe_.parseBuffer(
      "shadow.c",
      "SHMData *cmd;\n"
      "/*** SafeFlow Annotation assume(core(cmd, 0, sizeof(SHMData))) ***/\n"
      "float decide(SHMData *cmd) { return cmd->control; }\n"
      "/*** SafeFlow Annotation assume(noncore(cmd)) ***/\n"
      "void other(void) { }\n"));
  const cfront::FunctionDecl* decide = fe_.unit().findFunction("decide");
  ASSERT_NE(decide, nullptr);
  ASSERT_EQ(decide->entryAnnotations().size(), 1u);
  EXPECT_EQ(decide->entryAnnotations()[0].decl, decide->params()[0]);
  const cfront::FunctionDecl* other = fe_.unit().findFunction("other");
  ASSERT_EQ(other->entryAnnotations().size(), 1u);
  EXPECT_EQ(other->entryAnnotations()[0].decl, fe_.unit().findGlobal("cmd"));
}

TEST_F(AnnotationTest, UndeclaredNameParsesUnbound) {
  const auto a = parse("assert(safe(nowhere))");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->decl, nullptr);
  EXPECT_FALSE(fe_.diagnostics().hasErrors());
}

// -- malformed inputs -------------------------------------------------------

TEST_F(AnnotationTest, UnknownHeadRejected) {
  EXPECT_FALSE(parse("expect(core(p, 0, 4))").has_value());
}

TEST_F(AnnotationTest, UnknownPredicateRejected) {
  EXPECT_FALSE(parse("assume(trusted(p))").has_value());
}

TEST_F(AnnotationTest, MissingArgumentsRejected) {
  EXPECT_FALSE(parse("assume(core(p))").has_value());
  EXPECT_FALSE(parse("assume(core(p, 0))").has_value());
  EXPECT_FALSE(parse("assume(shmvar(p))").has_value());
}

TEST_F(AnnotationTest, NonConstantSizeRejected) {
  EXPECT_FALSE(parse("assume(core(p, 0, n))").has_value());
  EXPECT_FALSE(
      parse("assume(core(p, 0, n))", "int n;\n").has_value());
}

TEST_F(AnnotationTest, UnknownTypeInSizeofRejected) {
  EXPECT_FALSE(parse("assume(shmvar(p, sizeof(Mystery)))").has_value());
  EXPECT_FALSE(
      parse("assume(shmvar(p, sizeof(struct Mystery)))").has_value());
}

TEST_F(AnnotationTest, UnbalancedParensRejected) {
  EXPECT_FALSE(parse("assume(core(p, 0, 4)").has_value());
  EXPECT_FALSE(parse("assert(safe(x)").has_value());
}

TEST_F(AnnotationTest, AssertOnlySupportsSafe) {
  EXPECT_FALSE(parse("assert(unsafe(x))").has_value());
}

TEST_F(AnnotationTest, TrailingTokensRejected) {
  EXPECT_FALSE(parse("assert(safe(x)); extra").has_value());
}

TEST_F(AnnotationTest, MacrosInAnnotationsStayUnexpanded) {
  EXPECT_FALSE(
      parse("assume(shmvar(p, SLOTS))", "#define SLOTS 4\n").has_value());
}

TEST_F(AnnotationTest, CallInARejectedBodyDeclaresNothing) {
  // Classic C would declare `extern int foo()` here; an annotation body
  // must leave the file's declarations as it found them.
  EXPECT_FALSE(parse("assume(core(p, 0, foo(1)))").has_value());
  EXPECT_EQ(fe_.unit().findFunction("foo"), nullptr);
}

TEST_F(AnnotationTest, MissingPunctuationIsNamedByItsKind) {
  parse("assume(core(p, 0))");
  const std::string& message = fe_.diagnostics().diagnostics().back().message;
  EXPECT_NE(message.find("expected ',' before the size, found ')' (in"),
            std::string::npos)
      << message;
}

TEST_F(AnnotationTest, MalformedInputsReportDiagnostics) {
  const std::size_t before = fe_.diagnostics().errorCount();
  parse("assume(core(p, 0)");
  ASSERT_EQ(fe_.diagnostics().errorCount(), before + 1);
  const support::Diagnostic& d = fe_.diagnostics().diagnostics().back();
  EXPECT_EQ(d.category, "annotation");
  EXPECT_NE(d.message.find("malformed SafeFlow annotation"),
            std::string::npos)
      << d.message;
  EXPECT_EQ(d.location.line, 2u);  // the comment's line
}

// -- the analysis sees the annotation's own declarations ---------------------

// Two sibling blocks both declare `out`; the one in the second block is
// read from an unmonitored non-core region, the first is clean.
std::string siblingBlocks(bool tainted_block_asserts) {
  const std::string assert_out =
      "    /*** SafeFlow Annotation assert(safe(out)); ***/\n";
  const std::string tainted = "  {\n    int out = shared->value;\n" +
                              (tainted_block_asserts ? assert_out : "") +
                              "    actuate(out);\n  }\n";
  const std::string clean = "  {\n    int out = 1;\n" +
                            (tainted_block_asserts ? "" : assert_out) +
                            "    actuate(out);\n  }\n";
  return "typedef struct { int value; } Cell;\n"
         "Cell *shared;\n"
         "extern void *shmat(int id, void *addr, int flags);\n"
         "void actuate(int v);\n"
         "/*** SafeFlow Annotation shminit ***/\n"
         "void initComm(void) {\n"
         "  shared = (Cell *)shmat(0, 0, 0);\n"
         "  /*** SafeFlow Annotation assume(shmvar(shared, sizeof(Cell))) "
         "***/\n"
         "  /*** SafeFlow Annotation assume(noncore(shared)) ***/\n"
         "}\n"
         "int main(void) {\n"
         "  initComm();\n" +
         (tainted_block_asserts ? clean + tainted : tainted + clean) +
         "  return 0;\n"
         "}\n";
}

/// Analyzes `source` as the CLI does with one file.
RunOutput analyzeSource(const std::string& leaf, const std::string& source) {
  const std::string path = ::testing::TempDir() + leaf + "." +
                           std::to_string(::getpid()) + ".c";
  std::ofstream(path) << source;
  SafeFlowDriver driver;
  RunOutput run = analyzeAndRender(driver, {path}, RenderOptions{});
  std::remove(path.c_str());
  return run;
}

TEST(AnnotationScope, AssertInSecondSiblingBlockBindsItsOwnOut) {
  const RunOutput run = analyzeSource("sibling_tainted",
                                      siblingBlocks(/*tainted=*/true));
  EXPECT_EQ(run.exit_code, 1) << run.stdout_text << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("1 error dependency(ies)"),
            std::string::npos)
      << run.stdout_text;
}

TEST(AnnotationScope, AssertOnTheCleanSiblingReportsNothing) {
  const RunOutput run = analyzeSource("sibling_clean",
                                      siblingBlocks(/*tainted=*/false));
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("0 error dependency(ies)"),
            std::string::npos)
      << run.stdout_text;
}

// A name with no declaration in scope at the annotation, here a local
// declared after it, is lowering's one "unknown variable" error.
TEST(AnnotationScope, NameDeclaredAfterTheAnnotationIsUnknown) {
  SafeFlowDriver driver;
  ASSERT_TRUE(driver.addSource(
      "later.c",
      "void actuate(int v);\n"
      "int main(void) {\n"
      "  /*** SafeFlow Annotation assert(safe(later)); ***/\n"
      "  int later = 1;\n"
      "  actuate(later);\n"
      "  return 0;\n"
      "}\n"));
  driver.analyze();
  const std::string rendered =
      driver.diagnostics().render(driver.sources());
  EXPECT_EQ(driver.diagnostics().countCategoryPrefix("annotation"), 1u)
      << rendered;
  EXPECT_NE(rendered.find("annotation references unknown variable 'later'"),
            std::string::npos)
      << rendered;
}

// A malformed annotation is one front-end error; the parse goes on, and
// the function after it is analyzed.
TEST(AnnotationScope, MalformedAnnotationDoesNotStopTheFile) {
  std::string source = siblingBlocks(/*tainted=*/true);
  source.insert(source.find("int main"),
                "void broken(void) {\n"
                "  /*** SafeFlow Annotation assume(core(p, 0)) ***/\n"
                "}\n");
  SafeFlowDriver driver;
  EXPECT_FALSE(driver.addSource("malformed.c", source));
  const analysis::SafeFlowReport& report = driver.analyze();
  EXPECT_EQ(driver.diagnostics().countCategoryPrefix("annotation"), 1u)
      << driver.diagnostics().render(driver.sources());
  EXPECT_EQ(driver.diagnostics().countCategoryPrefix("parse"), 0u);
  ASSERT_NE(driver.module()->findFunction("main"), nullptr);
  EXPECT_EQ(report.dataErrorCount(), 1u);
}

}  // namespace
