#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cfront/preprocessor.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

namespace {

using safeflow::cfront::Preprocessor;
using safeflow::cfront::Token;
using safeflow::cfront::TokenKind;

struct PpResult {
  // Token spellings view the manager's buffers, so it lives as long as
  // the tokens.
  std::unique_ptr<safeflow::support::SourceManager> sm;
  std::vector<Token> tokens;  // without trailing EOF
  bool ok = true;
};

PpResult preprocess(const std::string& src) {
  auto sm = std::make_unique<safeflow::support::SourceManager>();
  safeflow::support::DiagnosticEngine diags;
  const auto id = sm->addBuffer("main.c", src);
  Preprocessor pp(*sm, diags);
  std::vector<Token> toks = pp.run(id);
  EXPECT_FALSE(toks.empty());
  EXPECT_TRUE(toks.back().is(TokenKind::kEof));
  toks.pop_back();
  return PpResult{std::move(sm), std::move(toks), !diags.hasErrors()};
}

std::string spelling(const PpResult& r) {
  std::string out;
  for (const Token& t : r.tokens) {
    if (!out.empty()) out += ' ';
    switch (t.kind) {
      case TokenKind::kIdentifier:
      case TokenKind::kIntLiteral:
      case TokenKind::kFloatLiteral:
        out += t.text;
        break;
      case TokenKind::kKwInt: out += "int"; break;
      case TokenKind::kKwFloat: out += "float"; break;
      case TokenKind::kPlus: out += "+"; break;
      case TokenKind::kStar: out += "*"; break;
      case TokenKind::kLParen: out += "("; break;
      case TokenKind::kRParen: out += ")"; break;
      case TokenKind::kSemi: out += ";"; break;
      case TokenKind::kAssign: out += "="; break;
      default: out += "?"; break;
    }
  }
  return out;
}

TEST(Preprocessor, ObjectMacro) {
  const auto r = preprocess("#define N 16\nint x = N;");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(spelling(r), "int x = 16 ;");
}

TEST(Preprocessor, ObjectMacroMultiToken) {
  const auto r = preprocess("#define EXPR (1 + 2)\nint x = EXPR;");
  EXPECT_EQ(spelling(r), "int x = ( 1 + 2 ) ;");
}

TEST(Preprocessor, FunctionMacro) {
  const auto r = preprocess("#define SQ(a) ((a) * (a))\nint x = SQ(3);");
  EXPECT_EQ(spelling(r), "int x = ( ( 3 ) * ( 3 ) ) ;");
}

TEST(Preprocessor, FunctionMacroTwoParams) {
  const auto r = preprocess("#define MIN(a, b) ((a) + (b))\nint x = MIN(1, 2);");
  EXPECT_EQ(spelling(r), "int x = ( ( 1 ) + ( 2 ) ) ;");
}

TEST(Preprocessor, NestedMacros) {
  const auto r = preprocess(
      "#define A 1\n#define B A + A\nint x = B;");
  EXPECT_EQ(spelling(r), "int x = 1 + 1 ;");
}

TEST(Preprocessor, RecursiveMacroDoesNotLoop) {
  const auto r = preprocess("#define X X + 1\nint y = X;");
  // X expands once; the inner X is painted and stays.
  EXPECT_EQ(spelling(r), "int y = X + 1 ;");
}

TEST(Preprocessor, MacroNameWithoutCallIsPlain) {
  const auto r = preprocess("#define F(a) a\nint F;");
  EXPECT_EQ(spelling(r), "int F ;");
}

TEST(Preprocessor, Undef) {
  const auto r = preprocess("#define N 1\n#undef N\nint x = N;");
  EXPECT_EQ(spelling(r), "int x = N ;");
}

TEST(Preprocessor, IfdefTaken) {
  const auto r = preprocess("#define FEATURE 1\n#ifdef FEATURE\nint x;\n#endif\n");
  EXPECT_EQ(spelling(r), "int x ;");
}

TEST(Preprocessor, IfdefNotTaken) {
  const auto r = preprocess("#ifdef MISSING\nint x;\n#endif\nint y;");
  EXPECT_EQ(spelling(r), "int y ;");
}

TEST(Preprocessor, IfndefElse) {
  const auto r = preprocess(
      "#ifndef MISSING\nint a;\n#else\nint b;\n#endif\n");
  EXPECT_EQ(spelling(r), "int a ;");
}

TEST(Preprocessor, ElseBranchTaken) {
  const auto r = preprocess(
      "#ifdef MISSING\nint a;\n#else\nint b;\n#endif\n");
  EXPECT_EQ(spelling(r), "int b ;");
}

TEST(Preprocessor, NestedConditionals) {
  const auto r = preprocess(
      "#ifdef MISSING\n"
      "#ifdef ALSO\nint a;\n#endif\n"
      "int b;\n"
      "#endif\n"
      "int c;");
  EXPECT_EQ(spelling(r), "int c ;");
}

TEST(Preprocessor, IfZeroOne) {
  const auto r = preprocess("#if 0\nint a;\n#endif\n#if 1\nint b;\n#endif\n");
  EXPECT_EQ(spelling(r), "int b ;");
}

TEST(Preprocessor, IfDefined) {
  const auto r = preprocess(
      "#define F 1\n#if defined(F)\nint a;\n#endif\n"
      "#if !defined(F)\nint b;\n#endif\n");
  EXPECT_EQ(spelling(r), "int a ;");
}

TEST(Preprocessor, UnterminatedIfReportsError) {
  const auto r = preprocess("#ifdef X\nint a;\n");
  EXPECT_FALSE(r.ok);
}

TEST(Preprocessor, EndifWithoutIfReportsError) {
  const auto r = preprocess("#endif\n");
  EXPECT_FALSE(r.ok);
}

TEST(Preprocessor, Predefine) {
  safeflow::support::SourceManager sm;
  safeflow::support::DiagnosticEngine diags;
  const auto id = sm.addBuffer("main.c", "int x = LIMIT;");
  Preprocessor pp(sm, diags);
  pp.predefine("LIMIT", "99");
  auto toks = pp.run(id);
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[3].text, "99");
}

TEST(Preprocessor, AngleBracketIncludeIgnored) {
  const auto r = preprocess("#include <stdio.h>\nint x;");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(spelling(r), "int x ;");
}

TEST(Preprocessor, MissingQuotedIncludeReportsError) {
  const auto r = preprocess("#include \"missing_header.h\"\nint x;");
  EXPECT_FALSE(r.ok);
}

TEST(Preprocessor, IncludeFromDisk) {
  // Write a real file pair and include one from the other.
  const std::string dir = ::testing::TempDir();
  const std::string header = dir + "/sf_pp_test_header.h";
  {
    FILE* f = fopen(header.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("int from_header;\n", f);
    fclose(f);
  }
  safeflow::support::SourceManager sm;
  safeflow::support::DiagnosticEngine diags;
  const auto id = sm.addBuffer(
      dir + "/main.c", "#include \"sf_pp_test_header.h\"\nint x;");
  Preprocessor pp(sm, diags);
  auto toks = pp.run(id);
  EXPECT_FALSE(diags.hasErrors()) << diags.render(sm);
  ASSERT_GE(toks.size(), 6u);
  EXPECT_EQ(toks[1].text, "from_header");
}

TEST(Preprocessor, MacroInsideInactiveBranchNotExpanded) {
  const auto r = preprocess(
      "#define N 5\n#ifdef MISSING\nint x = N;\n#endif\nint y;");
  EXPECT_EQ(spelling(r), "int y ;");
}

TEST(Preprocessor, DefineInsideInactiveBranchIgnored) {
  const auto r = preprocess(
      "#ifdef MISSING\n#define N 5\n#endif\nint x = N;");
  EXPECT_EQ(spelling(r), "int x = N ;");
}

}  // namespace
