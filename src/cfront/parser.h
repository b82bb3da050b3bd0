// Recursive-descent parser for the C subset, producing a typed AST.
// Declarator syntax covers pointers, arrays, and function-pointer
// parameters; typedefs are resolved during parsing. Enum constants are
// folded to integer literals. SafeFlow annotation tokens are parsed as C
// where they stand (see parseAnnotation) and become either function entry
// annotations or AnnotationStmts.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cfront/ast.h"
#include "cfront/token.h"
#include "cfront/types.h"
#include "support/diagnostics.h"
#include "support/string_utils.h"

namespace safeflow::cfront {

class Parser {
 public:
  Parser(std::vector<Token> tokens, TypeContext& types,
         support::DiagnosticEngine& diags);

  /// Parses the whole token stream into `tu`. Returns false when a fatal
  /// syntax error stopped the parse early.
  bool parseTranslationUnit(TranslationUnit& tu);

 private:
  // -- token cursor ---------------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const;
  const Token& advance();
  [[nodiscard]] bool check(TokenKind k) const { return peek().is(k); }
  bool accept(TokenKind k);
  bool expect(TokenKind k, std::string_view context);
  void synchronizeToSemi();

  // -- scopes ---------------------------------------------------------------
  struct Scope {
    support::StringMap<const ValueDecl*> values;
    support::StringMap<std::int64_t> enum_constants;
  };
  void pushScope() { scopes_.emplace_back(); }
  void popScope() {
    // Unbalanced pops can happen during panic-mode recovery; popping an
    // empty stack would be UB.
    if (!scopes_.empty()) scopes_.pop_back();
  }
  void declareValue(std::string_view name, const ValueDecl* decl);
  [[nodiscard]] const ValueDecl* lookupValue(std::string_view name) const;
  [[nodiscard]] const std::int64_t* lookupEnumConstant(
      std::string_view name) const;

  // -- declarations ---------------------------------------------------------
  /// True when the token `ahead` positions away starts a type (keyword,
  /// typedef name, struct/enum).
  [[nodiscard]] bool startsTypeAt(std::size_t ahead) const;
  [[nodiscard]] bool startsType() const { return startsTypeAt(0); }
  /// Parses declaration specifiers: base type, typedef/extern/static flags.
  struct DeclSpec {
    const Type* base = nullptr;
    bool is_typedef = false;
    bool is_extern = false;
    bool is_static = false;
  };
  bool parseDeclSpec(DeclSpec& spec);
  /// Parses one declarator: pointers, name, arrays, function params.
  struct Declarator {
    const Type* type = nullptr;
    std::string_view name;
    SourceLocation loc;
    // Set when this declarator declared a function (param names captured).
    bool is_function = false;
    std::vector<const VarDecl*> params;
    bool variadic = false;
  };
  bool parseDeclarator(const Type* base, Declarator& out);
  const Type* parseStructSpecifier();
  const Type* parseEnumSpecifier();
  bool parseExternalDeclaration(TranslationUnit& tu,
                                std::vector<Token>& pending);
  const Stmt* parseLocalDeclaration();

  // -- SafeFlow annotations -------------------------------------------------
  /// Parses the body of annotation token `t` in the scopes open here: the
  /// body is lexed as C, names resolve by C scope and offsets and sizes
  /// fold as C constant expressions. A malformed body gets one
  /// "annotation" error at `t` and yields nullopt.
  std::optional<Annotation> parseAnnotation(const Token& t);
  /// parseAnnotation's grammar over the body tokens; reports the first
  /// problem and returns false on malformed input.
  bool parseAnnotationBody(Annotation& out);

  // -- nesting -------------------------------------------------------------
  /// Recursion depth at which the parse stops with one error, so deep
  /// input cannot overflow the stack here or in the AST's later walkers.
  static constexpr int kMaxNestingDepth = 256;
  /// Counts one nesting level for its lifetime; past kMaxNestingDepth it
  /// reports the error and throws TooDeep, caught where the parse of the
  /// file or of an annotation body began.
  struct TooDeep {};
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& parser);
    ~NestingGuard() { --parser_.depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& parser_;
  };

  // -- statements -----------------------------------------------------------
  const Stmt* parseStatement();
  const Stmt* parseCompound();

  /// Parses an initializer: a brace list (possibly nested) or an
  /// assignment expression. `type` is the declared type (for list typing).
  const Expr* parseInitializer(const Type* type);

  // -- expressions (precedence climbing) -------------------------------------
  const Expr* parseExpr();  // comma
  const Expr* parseAssignment();
  const Expr* parseConditional();
  const Expr* parseBinary(int min_prec);
  const Expr* parseUnary();
  const Expr* parsePostfix();
  const Expr* parsePrimary();
  /// Parses `(type-name)` after '(' when it is a cast/sizeof type.
  const Type* parseTypeName();
  /// sizeof of `t` (null after a bad type name); an error when `t` is an
  /// incomplete struct or union, as in C.
  const Expr* makeSizeof(const Type* t, SourceLocation loc);

  /// Folds an integer constant expression (array sizes, case labels,
  /// annotation offsets and sizes) with two's-complement wraparound;
  /// clears `*ok` and returns 0 when it is not constant. Reports nothing.
  std::int64_t evalConstExpr(const Expr* e, bool* ok = nullptr);

  // -- arena --------------------------------------------------------------
  /// A node in the translation unit's arena.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    return tu_->create<T>(std::forward<Args>(args)...);
  }
  /// An exact-size arena copy of a list the parser gathered.
  template <typename T>
  std::span<const T> keep(const std::vector<T>& items) {
    return tu_->copy(std::span<const T>(items));
  }

  // -- typing helpers --------------------------------------------------------
  const Type* decay(const Type* t);
  const Type* arithmeticResult(const Type* a, const Type* b);

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  TypeContext& types_;
  // A pointer so that an annotation body parses into its own engine.
  support::DiagnosticEngine* diags_;
  int depth_ = 0;
  std::vector<Scope> scopes_;
  support::StringMap<const Type*> typedefs_;
  TranslationUnit* tu_ = nullptr;
  bool fatal_ = false;
  /// True while an annotation body parses: a call in it declares nothing.
  bool in_annotation_ = false;
};

}  // namespace safeflow::cfront
