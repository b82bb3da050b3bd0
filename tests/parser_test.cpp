#include <gtest/gtest.h>

#include <string>

#include "cfront/frontend.h"

namespace {

using namespace safeflow::cfront;

/// Parses a buffer, returning the frontend for inspection. EXPECTs success
/// unless expect_ok is false.
struct Parsed {
  std::unique_ptr<Frontend> fe;
  bool ok;
};

Parsed parse(const std::string& src, bool expect_ok = true) {
  auto fe = std::make_unique<Frontend>();
  const bool ok = fe->parseBuffer("test.c", src);
  if (expect_ok) {
    EXPECT_TRUE(ok) << fe->diagnostics().render(fe->sources());
  }
  return Parsed{std::move(fe), ok};
}

TEST(Parser, GlobalVariable) {
  const auto p = parse("int x; float y = 2.5;");
  const auto& tu = p.fe->unit();
  ASSERT_EQ(tu.globals().size(), 2u);
  EXPECT_EQ(tu.globals()[0]->name(), "x");
  EXPECT_TRUE(tu.globals()[0]->type()->isInteger());
  EXPECT_EQ(tu.globals()[1]->name(), "y");
  EXPECT_TRUE(tu.globals()[1]->type()->isFloat());
  ASSERT_NE(tu.globals()[1]->init(), nullptr);
}

TEST(Parser, PointerAndArrayDeclarators) {
  const auto p = parse("int *p; double arr[10]; char **pp;");
  const auto& tu = p.fe->unit();
  ASSERT_EQ(tu.globals().size(), 3u);
  EXPECT_TRUE(tu.globals()[0]->type()->isPointer());
  ASSERT_TRUE(tu.globals()[1]->type()->isArray());
  EXPECT_EQ(static_cast<const ArrayType*>(tu.globals()[1]->type())->count(),
            10u);
  const auto* pp = tu.globals()[2]->type();
  ASSERT_TRUE(pp->isPointer());
  EXPECT_TRUE(static_cast<const PointerType*>(pp)->pointee()->isPointer());
}

TEST(Parser, MultiDimensionalArray) {
  const auto p = parse("int grid[3][4];");
  const auto* t = p.fe->unit().globals()[0]->type();
  ASSERT_TRUE(t->isArray());
  const auto* outer = static_cast<const ArrayType*>(t);
  EXPECT_EQ(outer->count(), 3u);
  ASSERT_TRUE(outer->element()->isArray());
  EXPECT_EQ(static_cast<const ArrayType*>(outer->element())->count(), 4u);
  EXPECT_EQ(t->size(), 3u * 4u * 4u);
}

TEST(Parser, StructDefinitionAndLayout) {
  const auto p = parse(
      "struct Point { char tag; double x; int y; };\n"
      "struct Point g;");
  const auto* st = p.fe->types().findStruct("Point");
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->isComplete());
  ASSERT_EQ(st->fields().size(), 3u);
  EXPECT_EQ(st->fields()[0].offset, 0u);
  EXPECT_EQ(st->fields()[1].offset, 8u);   // aligned to 8
  EXPECT_EQ(st->fields()[2].offset, 16u);
  EXPECT_EQ(st->size(), 24u);              // padded to alignment 8
}

TEST(Parser, TypedefResolution) {
  const auto p = parse(
      "typedef struct SHM { float control; int flag; } SHMData;\n"
      "SHMData *ptr;");
  const auto& tu = p.fe->unit();
  ASSERT_EQ(tu.globals().size(), 1u);
  const auto* t = tu.globals()[0]->type();
  ASSERT_TRUE(t->isPointer());
  EXPECT_TRUE(static_cast<const PointerType*>(t)->pointee()->isStruct());
  EXPECT_TRUE(tu.typedefs().contains("SHMData"));
}

TEST(Parser, FunctionDefinition) {
  const auto p = parse(
      "int add(int a, int b) { return a + b; }");
  const auto& tu = p.fe->unit();
  ASSERT_EQ(tu.functions().size(), 1u);
  const FunctionDecl* f = tu.functions()[0];
  EXPECT_EQ(f->name(), "add");
  EXPECT_TRUE(f->isDefined());
  ASSERT_EQ(f->params().size(), 2u);
  EXPECT_EQ(f->params()[0]->name(), "a");
  EXPECT_TRUE(f->functionType()->returnType()->isInteger());
}

TEST(Parser, FunctionPrototypeThenDefinition) {
  const auto p = parse(
      "float f(float x);\n"
      "float f(float x) { return x * 2.0f; }");
  const auto& tu = p.fe->unit();
  const FunctionDecl* def = tu.findFunction("f");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->isDefined());
}

TEST(Parser, VoidParameterList) {
  const auto p = parse("int main(void) { return 0; }");
  const auto* f = p.fe->unit().findFunction("main");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->params().empty());
}

TEST(Parser, VariadicDeclaration) {
  const auto p = parse("extern int printf(char *fmt, ...);");
  const auto* f = p.fe->unit().findFunction("printf");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->functionType()->isVariadic());
}

TEST(Parser, ControlFlowStatements) {
  const auto p = parse(
      "int f(int n) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i % 2 == 0) total += i; else total -= 1;\n"
      "  }\n"
      "  while (total > 100) { total /= 2; }\n"
      "  do { total++; } while (total < 0);\n"
      "  return total;\n"
      "}");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, SwitchStatement) {
  const auto p = parse(
      "int f(int mode) {\n"
      "  int r = 0;\n"
      "  switch (mode) {\n"
      "    case 0: r = 1; break;\n"
      "    case 1: r = 2; break;\n"
      "    default: r = 3;\n"
      "  }\n"
      "  return r;\n"
      "}");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, EnumConstantsFold) {
  const auto p = parse(
      "enum Mode { IDLE, RUN = 5, STOP };\n"
      "int x = STOP;");
  const auto* g = p.fe->unit().findGlobal("x");
  ASSERT_NE(g, nullptr);
  ASSERT_NE(g->init(), nullptr);
  ASSERT_EQ(g->init()->kind(), Expr::Kind::kIntLit);
  EXPECT_EQ(static_cast<const IntLitExpr*>(g->init())->value(), 6);
}

TEST(Parser, SizeofFolds) {
  const auto p = parse(
      "typedef struct S { double a; double b; } S;\n"
      "int n = sizeof(S);");
  const auto* g = p.fe->unit().findGlobal("n");
  ASSERT_NE(g->init(), nullptr);
  ASSERT_EQ(g->init()->kind(), Expr::Kind::kSizeof);
  EXPECT_EQ(static_cast<const SizeofExpr*>(g->init())->value(), 16u);
}

TEST(Parser, ExpressionTypes) {
  const auto p = parse(
      "float mix(int i, float f) { return i + f; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, MemberAccessTypes) {
  const auto p = parse(
      "struct V { float x; float y; };\n"
      "float getx(struct V *v) { return v->x; }\n"
      "float gety(struct V v) { return v.y; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, UnknownMemberIsError) {
  const auto p = parse(
      "struct V { float x; };\n"
      "float f(struct V *v) { return v->nope; }",
      /*expect_ok=*/false);
  EXPECT_FALSE(p.ok);
}

TEST(Parser, UndeclaredIdentifierIsError) {
  const auto p = parse("int f(void) { return mystery; }", false);
  EXPECT_FALSE(p.ok);
}

TEST(Parser, ImplicitFunctionDeclarationWarns) {
  const auto p = parse("int f(void) { return g(1); }");
  EXPECT_TRUE(p.ok);  // classic-C implicit declaration is a warning
  const auto& diags = p.fe->diagnostics().diagnostics();
  bool warned = false;
  for (const auto& d : diags) {
    if (d.category == "sema" &&
        d.message.find("implicit declaration") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(Parser, CastExpressions) {
  const auto p = parse(
      "typedef struct S { int a; } S;\n"
      "void *shmat(int id, void *addr, int flg);\n"
      "S *f(int id) { return (S *)shmat(id, 0, 0); }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, FunctionPointerDeclarator) {
  const auto p = parse(
      "int apply(int (*op)(int, int), int a, int b) { return op(a, b); }");
  EXPECT_TRUE(p.ok);
  const auto* f = p.fe->unit().findFunction("apply");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->params().size(), 3u);
  EXPECT_TRUE(f->params()[0]->type()->isPointer());
}

TEST(Parser, AddressOfAndDeref) {
  const auto p = parse(
      "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }\n"
      "void caller(void) { int x = 1; int y = 2; swap(&x, &y); }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, ConditionalExpression) {
  const auto p = parse("int max(int a, int b) { return a > b ? a : b; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, CommaExpression) {
  const auto p = parse("int f(int a) { int b; b = (a++, a + 1); return b; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, StringLiteralConcatenation) {
  const auto p = parse("char *s = \"ab\" \"cd\";");
  const auto* g = p.fe->unit().findGlobal("s");
  ASSERT_NE(g->init(), nullptr);
  ASSERT_EQ(g->init()->kind(), Expr::Kind::kStringLit);
  EXPECT_EQ(static_cast<const StringLitExpr*>(g->init())->value(), "abcd");
}

TEST(Parser, EntryAnnotationAttachesToFunction) {
  const auto p = parse(
      "typedef struct S { float c; } SHMData;\n"
      "SHMData *nc;\n"
      "float decision(SHMData *nc)\n"
      "/*** SafeFlow Annotation\n"
      "     assume(core(nc, 0, sizeof(SHMData))) ***/\n"
      "{ return nc->c; }");
  const auto* f = p.fe->unit().findFunction("decision");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->entryAnnotations().size(), 1u);
  EXPECT_NE(f->entryAnnotations()[0].text.find("assume(core(nc"),
            std::string::npos);
}

TEST(Parser, AnnotationBeforeSignatureAttaches) {
  const auto p = parse(
      "/*** SafeFlow Annotation shminit ***/\n"
      "void initComm(void) { }");
  const auto* f = p.fe->unit().findFunction("initComm");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->entryAnnotations().size(), 1u);
  EXPECT_EQ(f->entryAnnotations()[0].text, "shminit");
}

TEST(Parser, StatementAnnotationBecomesAnnotationStmt) {
  const auto p = parse(
      "void send(float v);\n"
      "void f(float output) {\n"
      "  /*** SafeFlow Annotation assert(safe(output)); ***/\n"
      "  send(output);\n"
      "}");
  const auto* f = p.fe->unit().findFunction("f");
  ASSERT_NE(f, nullptr);
  const auto* body = static_cast<const CompoundStmt*>(f->body());
  ASSERT_GE(body->stmts().size(), 2u);
  EXPECT_EQ(body->stmts()[0]->kind(), Stmt::Kind::kAnnotation);
}

TEST(Parser, GotoRejected) {
  const auto p = parse("void f(void) { goto end; end: ; }", false);
  EXPECT_FALSE(p.ok);
}

TEST(Parser, MultipleFilesShareTranslationUnit) {
  Frontend fe;
  ASSERT_TRUE(fe.parseBuffer("a.c", "int shared_counter;\n"));
  ASSERT_TRUE(fe.parseBuffer(
      "b.c", "extern int shared_counter;\nint get(void) { return shared_counter; }"))
      << fe.diagnostics().render(fe.sources());
  EXPECT_NE(fe.unit().findFunction("get"), nullptr);
}

TEST(Parser, TypedefSharedAcrossFiles) {
  Frontend fe;
  ASSERT_TRUE(fe.parseBuffer("a.c", "typedef struct P { float v; } P;\n"));
  ASSERT_TRUE(fe.parseBuffer("b.c", "P instance;\n"))
      << fe.diagnostics().render(fe.sources());
}

TEST(Parser, NestedStructMembers) {
  const auto p = parse(
      "struct Inner { int a; };\n"
      "struct Outer { struct Inner in; int b; };\n"
      "int f(struct Outer *o) { return o->in.a + o->b; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, ArrayOfStructs) {
  const auto p = parse(
      "struct S { double v; };\n"
      "struct S table[8];\n"
      "double f(int i) { return table[i].v; }");
  EXPECT_TRUE(p.ok);
}

TEST(Parser, NegativeArraySizeIsError) {
  const auto p = parse("int a[-1];", false);
  EXPECT_FALSE(p.ok);
}

TEST(Parser, StaticAndExternAccepted) {
  const auto p = parse(
      "static int counter;\n"
      "extern double rate;\n"
      "static int bump(void) { return ++counter; }");
  EXPECT_TRUE(p.ok);
}

// -- panic-mode recovery ------------------------------------------------------

TEST(ParserRecovery, ThreeIndependentErrorsAllDiagnosed) {
  // Three unrelated syntax errors interleaved with three well-formed
  // functions: recovery must report every error AND keep every good
  // function, instead of dying at the first bad declaration.
  const auto p = parse(
      "int good1(void) { return 1; }\n"
      "int bad1( { return 0; }\n"               // error 1: bad param list
      "int good2(void) { return 2; }\n"
      "int bad2(void) { int x = ; return x; }\n"  // error 2: missing expr
      "int good3(void) { return 3; }\n"
      "@#! $garbage$ ~~~\n",                    // error 3: token soup
      /*expect_ok=*/false);
  EXPECT_FALSE(p.ok);
  EXPECT_GE(p.fe->diagnostics().errorCount(), 3u);

  const auto& fns = p.fe->unit().functions();
  std::size_t good = 0;
  for (const auto& fn : fns) {
    const std::string_view n = fn->name();
    if ((n == "good1" || n == "good2" || n == "good3") &&
        fn->isDefined()) {
      ++good;
    }
  }
  EXPECT_EQ(good, 3u) << "well-formed functions must survive recovery";
}

TEST(ParserRecovery, BadDeclarationDoesNotPoisonNextFile) {
  // Multi-file front end: a TU with errors must leave the parser in a
  // state where the next buffer still parses cleanly.
  auto fe = std::make_unique<Frontend>();
  EXPECT_FALSE(fe->parseBuffer("broken.c", "int f( { oops"));
  EXPECT_TRUE(fe->parseBuffer("fine.c", "int g(void) { return 42; }"))
      << fe->diagnostics().render(fe->sources());
}

TEST(ParserRecovery, UnbalancedBracesTerminate) {
  const auto p = parse("int f(void) { { { return 1; }\nint g(void);",
                       /*expect_ok=*/false);
  EXPECT_FALSE(p.ok);  // diagnostics, but no hang and no crash
}

}  // namespace
