#include "cfront/parser.h"

#include <cassert>
#include <cstdlib>
#include <utility>

#include "cfront/lexer.h"

namespace safeflow::cfront {

namespace {

/// Binary operator precedence for precedence climbing; higher binds tighter.
int binaryPrecedence(TokenKind k) {
  switch (k) {
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent:
      return 10;
    case TokenKind::kPlus:
    case TokenKind::kMinus:
      return 9;
    case TokenKind::kShl:
    case TokenKind::kShr:
      return 8;
    case TokenKind::kLess:
    case TokenKind::kGreater:
    case TokenKind::kLessEq:
    case TokenKind::kGreaterEq:
      return 7;
    case TokenKind::kEqEq:
    case TokenKind::kBangEq:
      return 6;
    case TokenKind::kAmp:
      return 5;
    case TokenKind::kCaret:
      return 4;
    case TokenKind::kPipe:
      return 3;
    case TokenKind::kAmpAmp:
      return 2;
    case TokenKind::kPipePipe:
      return 1;
    default:
      return -1;
  }
}

std::optional<BinaryOp> binaryOpFor(TokenKind k) {
  switch (k) {
    case TokenKind::kStar: return BinaryOp::kMul;
    case TokenKind::kSlash: return BinaryOp::kDiv;
    case TokenKind::kPercent: return BinaryOp::kRem;
    case TokenKind::kPlus: return BinaryOp::kAdd;
    case TokenKind::kMinus: return BinaryOp::kSub;
    case TokenKind::kShl: return BinaryOp::kShl;
    case TokenKind::kShr: return BinaryOp::kShr;
    case TokenKind::kLess: return BinaryOp::kLt;
    case TokenKind::kGreater: return BinaryOp::kGt;
    case TokenKind::kLessEq: return BinaryOp::kLe;
    case TokenKind::kGreaterEq: return BinaryOp::kGe;
    case TokenKind::kEqEq: return BinaryOp::kEq;
    case TokenKind::kBangEq: return BinaryOp::kNe;
    case TokenKind::kAmp: return BinaryOp::kBitAnd;
    case TokenKind::kCaret: return BinaryOp::kBitXor;
    case TokenKind::kPipe: return BinaryOp::kBitOr;
    case TokenKind::kAmpAmp: return BinaryOp::kLogAnd;
    case TokenKind::kPipePipe: return BinaryOp::kLogOr;
    // A token kind with a binary precedence but no mapping here is a
    // parser-table bug; report it instead of asserting so release builds
    // degrade to a diagnostic rather than UB.
    default: return std::nullopt;
  }
}

std::optional<BinaryOp> compoundOpFor(TokenKind k) {
  switch (k) {
    case TokenKind::kPlusAssign: return BinaryOp::kAdd;
    case TokenKind::kMinusAssign: return BinaryOp::kSub;
    case TokenKind::kStarAssign: return BinaryOp::kMul;
    case TokenKind::kSlashAssign: return BinaryOp::kDiv;
    case TokenKind::kPercentAssign: return BinaryOp::kRem;
    case TokenKind::kAmpAssign: return BinaryOp::kBitAnd;
    case TokenKind::kPipeAssign: return BinaryOp::kBitOr;
    case TokenKind::kCaretAssign: return BinaryOp::kBitXor;
    case TokenKind::kShlAssign: return BinaryOp::kShl;
    case TokenKind::kShrAssign: return BinaryOp::kShr;
    default: return std::nullopt;
  }
}

/// Two's-complement view of a wrapped unsigned result.
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

std::int64_t parseIntText(std::string_view text) {
  return static_cast<std::int64_t>(
      std::strtoll(std::string(text).c_str(), nullptr, 0));
}

std::int64_t charLiteralValue(std::string_view text) {
  if (text.empty()) return 0;
  if (text[0] != '\\') return static_cast<unsigned char>(text[0]);
  if (text.size() < 2) return 0;
  switch (text[1]) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return 0;
    case '\\': return '\\';
    case '\'': return '\'';
    case '"': return '"';
    default: return static_cast<unsigned char>(text[1]);
  }
}

/// A token as a message names it: punctuation, which has no spelling of
/// its own, by its kind; anything else by its spelling and kind.
std::string describe(const Token& t) {
  if (t.text.empty()) return std::string(tokenKindName(t.kind));
  return "'" + std::string(t.text) + "' (" +
         std::string(tokenKindName(t.kind)) + ")";
}

}  // namespace

Parser::Parser(std::vector<Token> tokens, TypeContext& types,
               support::DiagnosticEngine& diags)
    : tokens_(std::move(tokens)), types_(types), diags_(&diags) {
  // peek()/advance() rely on a trailing EOF sentinel; repair the stream
  // rather than asserting so a truncated token vector (e.g. from a
  // mutated/fuzzed input path) cannot index out of bounds.
  if (tokens_.empty() || !tokens_.back().is(TokenKind::kEof)) {
    tokens_.push_back(Token{});  // default Token is an EOF token
  }
}

const Token& Parser::peek(std::size_t ahead) const {
  const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
  return tokens_[i];
}

const Token& Parser::advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::accept(TokenKind k) {
  if (check(k)) {
    advance();
    return true;
  }
  return false;
}

bool Parser::expect(TokenKind k, std::string_view context) {
  if (accept(k)) return true;
  diags_->error(peek().location, "parse",
                "expected " + std::string(tokenKindName(k)) + " " +
                    std::string(context) + ", found " + describe(peek()));
  return false;
}

void Parser::synchronizeToSemi() {
  int depth = 0;
  while (!check(TokenKind::kEof)) {
    if (check(TokenKind::kLBrace)) {
      ++depth;
    } else if (check(TokenKind::kRBrace)) {
      // A close brace at depth 0 belongs to an enclosing block; leave it
      // for the caller. One that balances a brace we skipped most likely
      // ends the bad definition's body — resume right after it so the
      // declarations that follow still parse.
      if (depth == 0) return;
      --depth;
      advance();
      if (depth == 0) return;
      continue;
    } else if (check(TokenKind::kSemi) && depth == 0) {
      advance();
      return;
    }
    advance();
  }
}

Parser::NestingGuard::NestingGuard(Parser& parser) : parser_(parser) {
  if (++parser_.depth_ <= kMaxNestingDepth) return;
  --parser_.depth_;  // no destructor runs for a throwing constructor
  parser_.diags_->error(parser_.peek().location, "parse",
                        "nesting deeper than " +
                            std::to_string(kMaxNestingDepth) + " levels");
  throw TooDeep{};
}

void Parser::declareValue(std::string_view name, const ValueDecl* decl) {
  if (scopes_.empty()) scopes_.emplace_back();  // error recovery may have
                                                // unwound the file scope
  scopes_.back().values.insert_or_assign(std::string(name), decl);
}

// A lookup by string_view hashes the name even in an empty table, and
// most block scopes and nearly all enum tables are empty: skip them.
const ValueDecl* Parser::lookupValue(std::string_view name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    if (it->values.empty()) continue;
    auto found = it->values.find(name);
    if (found != it->values.end()) return found->second;
  }
  return nullptr;
}

const std::int64_t* Parser::lookupEnumConstant(std::string_view name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    if (it->enum_constants.empty()) continue;
    auto found = it->enum_constants.find(name);
    if (found != it->enum_constants.end()) return &found->second;
  }
  return nullptr;
}

bool Parser::startsTypeAt(std::size_t ahead) const {
  switch (peek(ahead).kind) {
    case TokenKind::kKwVoid:
    case TokenKind::kKwChar:
    case TokenKind::kKwShort:
    case TokenKind::kKwInt:
    case TokenKind::kKwLong:
    case TokenKind::kKwFloat:
    case TokenKind::kKwDouble:
    case TokenKind::kKwSigned:
    case TokenKind::kKwUnsigned:
    case TokenKind::kKwStruct:
    case TokenKind::kKwUnion:
    case TokenKind::kKwEnum:
    case TokenKind::kKwConst:
    case TokenKind::kKwVolatile:
    case TokenKind::kKwTypedef:
    case TokenKind::kKwExtern:
    case TokenKind::kKwStatic:
      return true;
    case TokenKind::kIdentifier:
      return typedefs_.contains(peek(ahead).text);
    default:
      return false;
  }
}

bool Parser::parseDeclSpec(DeclSpec& spec) {
  bool saw_unsigned = false;
  bool saw_signed = false;
  int long_count = 0;
  bool saw_short = false;
  const Type* base = nullptr;

  while (true) {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kKwTypedef: spec.is_typedef = true; advance(); continue;
      case TokenKind::kKwExtern: spec.is_extern = true; advance(); continue;
      case TokenKind::kKwStatic: spec.is_static = true; advance(); continue;
      case TokenKind::kKwConst:
      case TokenKind::kKwVolatile:
        advance();  // qualifiers are accepted and ignored
        continue;
      case TokenKind::kKwVoid: base = types_.voidType(); advance(); continue;
      case TokenKind::kKwChar: base = types_.charType(); advance(); continue;
      case TokenKind::kKwShort: saw_short = true; advance(); continue;
      case TokenKind::kKwInt:
        if (base == nullptr) base = types_.intType();
        advance();
        continue;
      case TokenKind::kKwLong: ++long_count; advance(); continue;
      case TokenKind::kKwFloat: base = types_.floatType(); advance(); continue;
      case TokenKind::kKwDouble:
        base = types_.doubleType();
        advance();
        continue;
      case TokenKind::kKwSigned: saw_signed = true; advance(); continue;
      case TokenKind::kKwUnsigned: saw_unsigned = true; advance(); continue;
      case TokenKind::kKwStruct:
      case TokenKind::kKwUnion:
        base = parseStructSpecifier();
        continue;
      case TokenKind::kKwEnum:
        base = parseEnumSpecifier();
        continue;
      case TokenKind::kIdentifier: {
        if (base == nullptr && !saw_short && long_count == 0 &&
            !saw_signed && !saw_unsigned) {
          auto it = typedefs_.find(t.text);
          if (it != typedefs_.end()) {
            base = it->second;
            advance();
            continue;
          }
        }
        break;
      }
      default:
        break;
    }
    break;
  }

  if (saw_short) {
    base = types_.integerType(2, !saw_unsigned);
  } else if (long_count > 0) {
    if (base != nullptr && base->isFloat() && base->size() == 8) {
      // long double -> treated as double
    } else {
      base = types_.integerType(8, !saw_unsigned);
    }
  } else if (saw_unsigned || saw_signed) {
    const std::uint64_t bytes = (base != nullptr) ? base->size() : 4;
    base = types_.integerType(bytes == 0 ? 4 : bytes, !saw_unsigned);
  }

  if (base == nullptr) return false;
  spec.base = base;
  return true;
}

const Type* Parser::parseStructSpecifier() {
  const NestingGuard nest(*this);
  const bool is_union = peek().is(TokenKind::kKwUnion);
  advance();  // struct / union
  std::string tag;
  if (check(TokenKind::kIdentifier)) tag = advance().text;
  if (tag.empty()) tag = types_.nextAnonymousTag();
  if (is_union) tag = "union " + tag;

  StructType* st = types_.getOrCreateStruct(tag);
  if (is_union) st->markUnion();
  if (accept(TokenKind::kLBrace)) {
    std::vector<StructField> fields;
    while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
      DeclSpec spec;
      if (!parseDeclSpec(spec)) {
        diags_->error(peek().location, "parse",
                      "expected field type in struct '" + tag + "'");
        synchronizeToSemi();
        continue;
      }
      // One or more declarators per field line.
      do {
        Declarator d;
        if (!parseDeclarator(spec.base, d)) break;
        fields.push_back(StructField{std::string(d.name), d.type, 0});
      } while (accept(TokenKind::kComma));
      expect(TokenKind::kSemi, "after struct field");
    }
    expect(TokenKind::kRBrace, "to close struct definition");
    if (!st->isComplete()) st->complete(std::move(fields));
  }
  return st;
}

const Type* Parser::parseEnumSpecifier() {
  advance();  // enum
  if (check(TokenKind::kIdentifier)) advance();  // tag, unused
  if (accept(TokenKind::kLBrace)) {
    std::int64_t next_value = 0;
    while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
      if (!check(TokenKind::kIdentifier)) {
        diags_->error(peek().location, "parse", "expected enumerator name");
        synchronizeToSemi();
        break;
      }
      const std::string_view name = advance().text;
      if (accept(TokenKind::kAssign)) {
        const Expr* value = parseConditional();
        bool ok = true;
        next_value = evalConstExpr(value, &ok);
        if (!ok) {
          diags_->error(peek().location, "parse",
                        "enumerator value must be constant");
        }
      }
      if (scopes_.empty()) scopes_.emplace_back();
      scopes_.back().enum_constants.insert_or_assign(std::string(name),
                                                     next_value);
      ++next_value;
      if (!accept(TokenKind::kComma)) break;
    }
    expect(TokenKind::kRBrace, "to close enum definition");
  }
  return types_.intType();
}

bool Parser::parseDeclarator(const Type* base, Declarator& out) {
  const NestingGuard nest(*this);
  const Type* type = base;
  while (accept(TokenKind::kStar)) {
    type = types_.pointerTo(type);
    while (check(TokenKind::kKwConst) || check(TokenKind::kKwVolatile)) {
      advance();
    }
  }

  // Function pointer declarator: (*name)(params)
  if (check(TokenKind::kLParen) && peek(1).is(TokenKind::kStar)) {
    advance();  // (
    advance();  // *
    if (!check(TokenKind::kIdentifier)) {
      diags_->error(peek().location, "parse",
                    "expected name in function-pointer declarator");
      return false;
    }
    out.name = peek().text;
    out.loc = peek().location;
    advance();
    if (!expect(TokenKind::kRParen, "after function-pointer name")) {
      return false;
    }
    if (!expect(TokenKind::kLParen, "to start parameter list")) return false;
    std::vector<const Type*> params;
    bool variadic = false;
    if (!check(TokenKind::kRParen)) {
      do {
        if (accept(TokenKind::kEllipsis)) {
          variadic = true;
          break;
        }
        DeclSpec spec;
        if (!parseDeclSpec(spec)) {
          diags_->error(peek().location, "parse", "expected parameter type");
          return false;
        }
        Declarator d;
        if (!parseDeclarator(spec.base, d)) return false;
        if (!(d.type->isVoid() && d.name.empty())) {
          params.push_back(decay(d.type));
        }
      } while (accept(TokenKind::kComma));
    }
    if (!expect(TokenKind::kRParen, "to close parameter list")) return false;
    const FunctionType* ft =
        types_.functionType(type, std::move(params), variadic);
    out.type = types_.pointerTo(ft);
    return true;
  }

  if (check(TokenKind::kIdentifier)) {
    out.name = peek().text;
    out.loc = peek().location;
    advance();
  } else {
    out.loc = peek().location;  // abstract declarator (e.g. in casts)
  }

  // Function declarator.
  if (check(TokenKind::kLParen) && !out.name.empty()) {
    advance();
    std::vector<const Type*> param_types;
    bool variadic = false;
    std::vector<const VarDecl*> params;
    if (!check(TokenKind::kRParen)) {
      do {
        if (accept(TokenKind::kEllipsis)) {
          variadic = true;
          break;
        }
        DeclSpec spec;
        if (!parseDeclSpec(spec)) {
          diags_->error(peek().location, "parse", "expected parameter type");
          return false;
        }
        Declarator d;
        if (!parseDeclarator(spec.base, d)) return false;
        if (d.type->isVoid() && d.name.empty()) break;  // f(void)
        const Type* pt = decay(d.type);
        param_types.push_back(pt);
        params.push_back(make<VarDecl>(
            d.name, pt, StorageKind::kParam,
            d.loc.valid() ? d.loc : out.loc));
      } while (accept(TokenKind::kComma));
    }
    if (!expect(TokenKind::kRParen, "to close parameter list")) return false;
    out.type = types_.functionType(type, std::move(param_types), variadic);
    out.is_function = true;
    out.params = std::move(params);
    return true;
  }

  // Array suffixes (possibly multi-dimensional).
  std::vector<std::uint64_t> dims;
  while (accept(TokenKind::kLBracket)) {
    if (check(TokenKind::kRBracket)) {
      dims.push_back(0);  // incomplete array (extern decl / param)
    } else {
      const Expr* size = parseConditional();
      bool ok = true;
      const std::int64_t n = evalConstExpr(size, &ok);
      if (!ok || n < 0) {
        diags_->error(out.loc, "parse", "array size must be a non-negative "
                                        "integer constant");
        dims.push_back(0);
      } else {
        dims.push_back(static_cast<std::uint64_t>(n));
      }
    }
    if (!expect(TokenKind::kRBracket, "to close array bound")) return false;
  }
  for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
    type = types_.arrayOf(type, *it);
  }

  out.type = type;
  return true;
}

const Type* Parser::decay(const Type* t) {
  if (t->isArray()) {
    return types_.pointerTo(static_cast<const ArrayType*>(t)->element());
  }
  if (t->isFunction()) return types_.pointerTo(t);
  return t;
}

const Type* Parser::arithmeticResult(const Type* a, const Type* b) {
  if (a->isFloat() || b->isFloat()) {
    return (a->size() == 8 || b->size() == 8) ? types_.doubleType()
                                              : types_.floatType();
  }
  // Integer promotion: at least int, widest wins, unsigned wins ties.
  const std::uint64_t bytes = std::max<std::uint64_t>(
      4, std::max(a->size(), b->size()));
  const bool a_signed =
      a->isInteger() && static_cast<const IntegerType*>(a)->isSigned();
  const bool b_signed =
      b->isInteger() && static_cast<const IntegerType*>(b)->isSigned();
  return types_.integerType(bytes, a_signed && b_signed);
}

bool Parser::parseTranslationUnit(TranslationUnit& tu) {
  tu_ = &tu;
  scopes_.clear();
  pushScope();
  // Pre-register previously parsed decls (multi-file analysis reuses the
  // same TU), so later files see earlier globals/functions/typedefs.
  for (const VarDecl* g : tu.globals()) declareValue(g->name(), g);
  for (const FunctionDecl* f : tu.functions()) declareValue(f->name(), f);
  for (const auto& [name, type] : tu.typedefs()) {
    typedefs_.insert_or_assign(name, type);
  }

  std::vector<Token> pending;
  try {
    while (!check(TokenKind::kEof) && !fatal_) {
      if (check(TokenKind::kAnnotation)) {
        pending.push_back(advance());
        continue;
      }
      if (!parseExternalDeclaration(tu, pending)) {
        synchronizeToSemi();
      }
    }
  } catch (const TooDeep&) {
    fatal_ = true;  // reported once; the rest of the file is not parsed
  }
  popScope();
  return !fatal_ && !diags_->hasErrors();
}

bool Parser::parseExternalDeclaration(TranslationUnit& tu,
                                      std::vector<Token>& pending) {
  if (accept(TokenKind::kSemi)) return true;

  DeclSpec spec;
  if (!parseDeclSpec(spec)) {
    diags_->error(peek().location, "parse",
                  "expected declaration, found " + describe(peek()));
    advance();
    return false;
  }

  // `struct S { ... };` or `enum {...};` alone.
  if (accept(TokenKind::kSemi)) return true;

  bool first = true;
  do {
    Declarator d;
    if (!parseDeclarator(spec.base, d)) return false;
    if (d.name.empty()) {
      diags_->error(d.loc, "parse", "expected declarator name");
      return false;
    }

    if (spec.is_typedef) {
      typedefs_.insert_or_assign(std::string(d.name), d.type);
      tu.addTypedef(d.name, d.type);
      continue;
    }

    if (d.is_function) {
      FunctionDecl* fn = make<FunctionDecl>(
          d.name, static_cast<const FunctionType*>(d.type), keep(d.params),
          d.loc);
      tu.addFunction(fn);
      declareValue(d.name, fn);
      pushScope();
      for (const VarDecl* p : fn->params()) {
        if (!p->name().empty()) declareValue(p->name(), p);
      }
      // Entry annotations, before the signature or between it and the
      // body, see the parameters, then the globals.
      std::vector<Annotation> entry;
      const auto attach = [&](const Token& t) {
        if (auto a = parseAnnotation(t)) entry.push_back(*a);
      };
      for (const Token& t : pending) attach(t);
      pending.clear();
      while (check(TokenKind::kAnnotation)) attach(advance());
      fn->setEntryAnnotations(keep(entry));
      if (first && check(TokenKind::kLBrace)) {
        const Stmt* body = parseCompound();
        popScope();
        if (body == nullptr) return false;
        fn->setBody(body);
        return true;
      }
      popScope();
      continue;
    }

    // Global variable.
    const StorageKind storage =
        spec.is_extern ? StorageKind::kExtern : StorageKind::kGlobal;
    VarDecl* var = make<VarDecl>(d.name, d.type, storage, d.loc);
    if (accept(TokenKind::kAssign)) {
      var->setInit(parseInitializer(d.type));
    }
    tu.addGlobal(var);
    declareValue(d.name, var);
    first = false;
  } while (accept(TokenKind::kComma));

  if (!pending.empty()) {
    diags_->warning(pending.front().location, "annotation",
                    "annotation not attached to a function; ignored");
    pending.clear();
  }
  return expect(TokenKind::kSemi, "after declaration");
}

const Stmt* Parser::parseLocalDeclaration() {
  const SourceLocation loc = peek().location;
  DeclSpec spec;
  if (!parseDeclSpec(spec)) return nullptr;
  if (spec.is_typedef) {
    // Local typedefs resolve like globals; rare in corpora but harmless.
    do {
      Declarator d;
      if (!parseDeclarator(spec.base, d)) break;
      typedefs_.insert_or_assign(std::string(d.name), d.type);
      tu_->addTypedef(d.name, d.type);
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kSemi, "after typedef");
    return make<NullStmt>(loc);
  }
  std::vector<const VarDecl*> decls;
  do {
    Declarator d;
    if (!parseDeclarator(spec.base, d)) break;
    if (d.name.empty()) {
      diags_->error(d.loc, "parse", "expected variable name");
      break;
    }
    VarDecl* var = make<VarDecl>(
        d.name, d.type,
        spec.is_extern ? StorageKind::kExtern : StorageKind::kLocal, d.loc);
    if (accept(TokenKind::kAssign)) var->setInit(parseInitializer(d.type));
    declareValue(d.name, var);
    decls.push_back(var);
  } while (accept(TokenKind::kComma));
  expect(TokenKind::kSemi, "after declaration");
  return make<DeclStmt>(keep(decls), loc);
}

// The paper's prototype turns each annotation into a call to an external
// dummy function (§3.1), so its arguments are C: the body is lexed as C
// (macros stay unexpanded: the preprocessor never sees comments), names
// resolve in the scopes open at the annotation, and offsets and sizes fold
// as C constant expressions. Errors inside the body become the one
// "malformed" error at the annotation.
std::optional<Annotation> Parser::parseAnnotation(const Token& t) {
  support::DiagnosticEngine body_diags;
  std::vector<Token> body;
  Lexer lexer(t.location.file, t.text, body_diags);
  do {
    body.push_back(lexer.next());
  } while (!body.back().is(TokenKind::kEof));

  // Parse the body in place of the file's tokens, then resume the file.
  std::swap(tokens_, body);
  const std::size_t resume = std::exchange(pos_, 0);
  const bool file_fatal = std::exchange(fatal_, false);
  support::DiagnosticEngine* const file_diags =
      std::exchange(diags_, &body_diags);
  in_annotation_ = true;
  Annotation out;
  try {
    parseAnnotationBody(out);
  } catch (const TooDeep&) {
    // The guard reported it into body_diags.
  }
  in_annotation_ = false;
  std::swap(tokens_, body);
  pos_ = resume;
  fatal_ = file_fatal;
  diags_ = file_diags;

  for (const support::Diagnostic& d : body_diags.diagnostics()) {
    if (d.severity < support::Severity::kError) continue;
    diags_->error(t.location, "annotation",
                  "malformed SafeFlow annotation: " + d.message + " (in '" +
                      std::string(t.text) + "')");
    return std::nullopt;
  }
  out.text = t.text;
  out.location = t.location;
  return out;
}

bool Parser::parseAnnotationBody(Annotation& out) {
  using Kind = Annotation::Kind;
  const auto fail = [&](const std::string& why) {
    diags_->error(peek().location, "annotation", why);
    return false;
  };
  // An offset or size argument: a C integer constant expression.
  const auto constant = [&](std::int64_t& value) {
    const SourceLocation loc = peek().location;
    const Expr* const e = parseAssignment();
    bool ok = true;
    value = evalConstExpr(e, &ok);
    if (!ok) diags_->error(loc, "annotation", "expected a constant expression");
    return ok && !diags_->hasErrors();
  };
  if (!check(TokenKind::kIdentifier)) return fail("expected an annotation");
  const std::string_view head = advance().text;
  if (head != "shminit") {
    if (head != "assume" && head != "assert") {
      return fail("unknown annotation head '" + std::string(head) + "'");
    }
    if (!expect(TokenKind::kLParen, "after the annotation head")) return false;
    const std::string_view pred =
        check(TokenKind::kIdentifier) ? advance().text : "";
    if (head == "assert") {
      if (pred != "safe") {
        return fail("assert supports only the safe(x) predicate");
      }
      out.kind = Kind::kAssertSafe;
    } else if (pred == "core") {
      out.kind = Kind::kAssumeCore;
    } else if (pred == "shmvar") {
      out.kind = Kind::kShmVar;
    } else if (pred == "noncore") {
      out.kind = Kind::kNonCore;
    } else {
      return fail("unknown assume predicate '" + std::string(pred) + "'");
    }
    if (!expect(TokenKind::kLParen, "after the predicate")) return false;
    if (!check(TokenKind::kIdentifier)) return fail("expected a variable name");
    out.name = advance().text;
    out.decl = lookupValue(out.name);
    if (out.kind == Kind::kAssumeCore &&
        !(expect(TokenKind::kComma, "before the offset") &&
          constant(out.offset))) {
      return false;
    }
    if ((out.kind == Kind::kAssumeCore || out.kind == Kind::kShmVar) &&
        !(expect(TokenKind::kComma, "before the size") &&
          constant(out.size))) {
      return false;
    }
    if (!expect(TokenKind::kRParen, "to close the predicate") ||
        !expect(TokenKind::kRParen, "to close the annotation")) {
      return false;
    }
  }
  accept(TokenKind::kSemi);
  if (!check(TokenKind::kEof)) {
    return fail("unexpected " + std::string(tokenKindName(peek().kind)) +
                " after the annotation");
  }
  return true;
}

const Stmt* Parser::parseCompound() {
  const SourceLocation loc = peek().location;
  if (!expect(TokenKind::kLBrace, "to open block")) return nullptr;
  pushScope();
  std::vector<const Stmt*> stmts;
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    const Stmt* s = parseStatement();
    if (s != nullptr) stmts.push_back(s);
  }
  popScope();
  expect(TokenKind::kRBrace, "to close block");
  return make<CompoundStmt>(keep(stmts), loc);
}

const Stmt* Parser::parseStatement() {
  const NestingGuard nest(*this);
  const SourceLocation loc = peek().location;
  switch (peek().kind) {
    case TokenKind::kLBrace:
      return parseCompound();
    case TokenKind::kSemi:
      advance();
      return make<NullStmt>(loc);
    case TokenKind::kAnnotation: {
      std::optional<Annotation> a = parseAnnotation(advance());
      if (!a.has_value()) return make<NullStmt>(loc);
      return make<AnnotationStmt>(*a, loc);
    }
    case TokenKind::kKwIf: {
      advance();
      expect(TokenKind::kLParen, "after 'if'");
      const Expr* cond = parseExpr();
      expect(TokenKind::kRParen, "after if condition");
      const Stmt* then = parseStatement();
      const Stmt* otherwise = nullptr;
      if (accept(TokenKind::kKwElse)) otherwise = parseStatement();
      return make<IfStmt>(cond, then, otherwise, loc);
    }
    case TokenKind::kKwWhile: {
      advance();
      expect(TokenKind::kLParen, "after 'while'");
      const Expr* cond = parseExpr();
      expect(TokenKind::kRParen, "after while condition");
      const Stmt* body = parseStatement();
      return make<WhileStmt>(cond, body, loc);
    }
    case TokenKind::kKwDo: {
      advance();
      const Stmt* body = parseStatement();
      expect(TokenKind::kKwWhile, "after do body");
      expect(TokenKind::kLParen, "after 'while'");
      const Expr* cond = parseExpr();
      expect(TokenKind::kRParen, "after do-while condition");
      expect(TokenKind::kSemi, "after do-while");
      return make<DoStmt>(body, cond, loc);
    }
    case TokenKind::kKwFor: {
      advance();
      expect(TokenKind::kLParen, "after 'for'");
      pushScope();
      const Stmt* init = nullptr;
      if (!accept(TokenKind::kSemi)) {
        if (startsType()) {
          init = parseLocalDeclaration();
        } else {
          const Expr* e = parseExpr();
          expect(TokenKind::kSemi, "after for initializer");
          init = make<ExprStmt>(e, loc);
        }
      }
      const Expr* cond = nullptr;
      if (!check(TokenKind::kSemi)) cond = parseExpr();
      expect(TokenKind::kSemi, "after for condition");
      const Expr* step = nullptr;
      if (!check(TokenKind::kRParen)) step = parseExpr();
      expect(TokenKind::kRParen, "to close for header");
      const Stmt* body = parseStatement();
      popScope();
      return make<ForStmt>(init, cond, step, body, loc);
    }
    case TokenKind::kKwReturn: {
      advance();
      const Expr* value = nullptr;
      if (!check(TokenKind::kSemi)) value = parseExpr();
      expect(TokenKind::kSemi, "after return");
      return make<ReturnStmt>(value, loc);
    }
    case TokenKind::kKwBreak:
      advance();
      expect(TokenKind::kSemi, "after break");
      return make<BreakStmt>(loc);
    case TokenKind::kKwContinue:
      advance();
      expect(TokenKind::kSemi, "after continue");
      return make<ContinueStmt>(loc);
    case TokenKind::kKwSwitch: {
      advance();
      expect(TokenKind::kLParen, "after 'switch'");
      const Expr* cond = parseExpr();
      expect(TokenKind::kRParen, "after switch condition");
      const Stmt* body = parseStatement();
      return make<SwitchStmt>(cond, body, loc);
    }
    case TokenKind::kKwCase: {
      advance();
      const Expr* value = parseConditional();
      bool ok = true;
      const std::int64_t v = evalConstExpr(value, &ok);
      if (!ok) diags_->error(loc, "parse", "case label must be constant");
      expect(TokenKind::kColon, "after case label");
      return make<CaseStmt>(v, loc);
    }
    case TokenKind::kKwDefault:
      advance();
      expect(TokenKind::kColon, "after 'default'");
      return make<CaseStmt>(std::nullopt, loc);
    case TokenKind::kKwGoto:
      diags_->error(loc, "parse", "goto is outside the supported C subset");
      synchronizeToSemi();
      return make<NullStmt>(loc);
    default:
      break;
  }

  if (startsType()) return parseLocalDeclaration();

  const Expr* e = parseExpr();
  expect(TokenKind::kSemi, "after expression statement");
  return make<ExprStmt>(e, loc);
}

const Expr* Parser::parseInitializer(const Type* type) {
  if (!check(TokenKind::kLBrace)) return parseAssignment();
  const NestingGuard nest(*this);
  const SourceLocation loc = advance().location;
  std::vector<const Expr*> items;
  if (!check(TokenKind::kRBrace)) {
    // Element type for nested typing: array element or struct field.
    do {
      if (check(TokenKind::kRBrace)) break;  // trailing comma
      const Type* elem = types_.intType();
      if (type != nullptr && type->isArray()) {
        elem = static_cast<const ArrayType*>(type)->element();
      } else if (type != nullptr && type->isStruct()) {
        const auto* st = static_cast<const StructType*>(type);
        if (items.size() < st->fields().size()) {
          elem = st->fields()[items.size()].type;
        }
      }
      items.push_back(parseInitializer(elem));
    } while (accept(TokenKind::kComma));
  }
  expect(TokenKind::kRBrace, "to close initializer list");
  return make<InitListExpr>(
      keep(items), type != nullptr ? type : types_.intType(), loc);
}

const Expr* Parser::parseExpr() {
  const Expr* lhs = parseAssignment();
  while (check(TokenKind::kComma)) {
    const SourceLocation loc = advance().location;
    const Expr* rhs = parseAssignment();
    const Type* t = rhs ? rhs->type() : types_.intType();
    lhs = make<BinaryExpr>(BinaryOp::kComma, lhs, rhs, t, loc);
  }
  return lhs;
}

const Expr* Parser::parseAssignment() {
  const Expr* lhs = parseConditional();
  if (lhs == nullptr) return nullptr;
  const TokenKind k = peek().kind;
  if (k == TokenKind::kAssign || compoundOpFor(k).has_value()) {
    const SourceLocation loc = advance().location;
    const NestingGuard nest(*this);
    const Expr* rhs = parseAssignment();
    const Type* t = lhs->type();
    return make<AssignExpr>(lhs, rhs, compoundOpFor(k), t, loc);
  }
  return lhs;
}

const Expr* Parser::parseConditional() {
  const Expr* cond = parseBinary(1);
  if (cond == nullptr || !check(TokenKind::kQuestion)) return cond;
  const SourceLocation loc = advance().location;
  const NestingGuard nest(*this);
  const Expr* then = parseExpr();
  expect(TokenKind::kColon, "in conditional expression");
  const Expr* otherwise = parseConditional();
  const Type* t = then ? then->type() : types_.intType();
  if (then != nullptr && otherwise != nullptr &&
      then->type()->isArithmetic() && otherwise->type()->isArithmetic()) {
    t = arithmeticResult(then->type(), otherwise->type());
  }
  return make<ConditionalExpr>(cond, then, otherwise, t, loc);
}

const Expr* Parser::parseBinary(int min_prec) {
  const Expr* lhs = parseUnary();
  while (lhs != nullptr) {
    const int prec = binaryPrecedence(peek().kind);
    if (prec < min_prec) break;
    const TokenKind k = peek().kind;
    const SourceLocation loc = advance().location;
    const Expr* rhs = parseBinary(prec + 1);
    if (rhs == nullptr) break;
    const std::optional<BinaryOp> mapped = binaryOpFor(k);
    if (!mapped.has_value()) {
      diags_->error(loc, "parse",
                    "unsupported binary operator '" +
                        std::string(tokenKindName(k)) + "'");
      break;
    }
    const BinaryOp op = *mapped;
    const Type* t = types_.intType();
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
        if (lhs->type()->isPointer() || lhs->type()->isArray()) {
          t = decay(lhs->type());
        } else if (rhs->type()->isPointer() || rhs->type()->isArray()) {
          t = decay(rhs->type());
        } else {
          t = arithmeticResult(lhs->type(), rhs->type());
        }
        break;
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kRem:
        t = arithmeticResult(lhs->type(), rhs->type());
        break;
      case BinaryOp::kBitAnd:
      case BinaryOp::kBitOr:
      case BinaryOp::kBitXor:
      case BinaryOp::kShl:
      case BinaryOp::kShr:
        t = arithmeticResult(lhs->type(), rhs->type());
        break;
      default:
        t = types_.intType();  // comparisons, logical ops
        break;
    }
    lhs = make<BinaryExpr>(op, lhs, rhs, t, loc);
  }
  return lhs;
}

const Expr* Parser::parseUnary() {
  const NestingGuard nest(*this);
  const SourceLocation loc = peek().location;
  switch (peek().kind) {
    case TokenKind::kPlus:
      advance();
      return parseUnary();
    case TokenKind::kMinus: {
      advance();
      const Expr* e = parseUnary();
      const Type* t = e ? e->type() : types_.intType();
      return make<UnaryExpr>(UnaryOp::kNeg, e, t, loc);
    }
    case TokenKind::kBang: {
      advance();
      const Expr* e = parseUnary();
      return make<UnaryExpr>(UnaryOp::kLogNot, e, types_.intType(), loc);
    }
    case TokenKind::kTilde: {
      advance();
      const Expr* e = parseUnary();
      const Type* t = e ? e->type() : types_.intType();
      return make<UnaryExpr>(UnaryOp::kBitNot, e, t, loc);
    }
    case TokenKind::kStar: {
      advance();
      const Expr* e = parseUnary();
      const Type* t = types_.intType();
      if (e != nullptr) {
        const Type* et = decay(e->type());
        if (et->isPointer()) {
          t = static_cast<const PointerType*>(et)->pointee();
        } else {
          diags_->error(loc, "type", "cannot dereference non-pointer");
        }
      }
      return make<UnaryExpr>(UnaryOp::kDeref, e, t, loc);
    }
    case TokenKind::kAmp: {
      advance();
      const Expr* e = parseUnary();
      const Type* t =
          e ? types_.pointerTo(e->type()) : types_.pointerTo(types_.intType());
      return make<UnaryExpr>(UnaryOp::kAddrOf, e, t, loc);
    }
    case TokenKind::kPlusPlus: {
      advance();
      const Expr* e = parseUnary();
      const Type* t = e ? e->type() : types_.intType();
      return make<UnaryExpr>(UnaryOp::kPreInc, e, t, loc);
    }
    case TokenKind::kMinusMinus: {
      advance();
      const Expr* e = parseUnary();
      const Type* t = e ? e->type() : types_.intType();
      return make<UnaryExpr>(UnaryOp::kPreDec, e, t, loc);
    }
    case TokenKind::kKwSizeof: {
      advance();
      if (check(TokenKind::kLParen)) {
        // Could be sizeof(type) or sizeof(expr).
        const std::size_t save = pos_;
        advance();
        if (startsType()) {
          const Type* t = parseTypeName();
          expect(TokenKind::kRParen, "after sizeof type");
          return makeSizeof(t, loc);
        }
        pos_ = save;
      }
      const Expr* e = parseUnary();
      return makeSizeof(e ? e->type() : types_.intType(), loc);
    }
    case TokenKind::kLParen: {
      // Cast vs parenthesized expression.
      if (startsTypeAt(1)) {
        advance();
        const Type* t = parseTypeName();
        expect(TokenKind::kRParen, "after cast type");
        const Expr* e = parseUnary();
        return make<CastExpr>(e, t ? t : types_.intType(), loc);
      }
      break;
    }
    default:
      break;
  }
  return parsePostfix();
}

const Expr* Parser::parsePostfix() {
  const Expr* e = parsePrimary();
  while (e != nullptr) {
    const SourceLocation loc = peek().location;
    if (accept(TokenKind::kLBracket)) {
      const Expr* index = parseExpr();
      expect(TokenKind::kRBracket, "after array index");
      const Type* base_t = decay(e->type());
      const Type* t = types_.intType();
      if (base_t->isPointer()) {
        t = static_cast<const PointerType*>(base_t)->pointee();
      } else {
        diags_->error(loc, "type", "subscript of non-pointer/array");
      }
      e = make<SubscriptExpr>(e, index, t, loc);
      continue;
    }
    if (check(TokenKind::kDot) || check(TokenKind::kArrow)) {
      const bool is_arrow = peek().is(TokenKind::kArrow);
      advance();
      if (!check(TokenKind::kIdentifier)) {
        diags_->error(loc, "parse", "expected member name");
        return e;
      }
      const std::string_view member = advance().text;
      const Type* base_t = e->type();
      if (is_arrow) {
        base_t = decay(base_t);
        base_t = base_t->isPointer()
                     ? static_cast<const PointerType*>(base_t)->pointee()
                     : nullptr;
      }
      const Type* t = types_.intType();
      if (base_t != nullptr && base_t->isStruct()) {
        const auto* st = static_cast<const StructType*>(base_t);
        if (const StructField* f = st->findField(member)) {
          t = f->type;
        } else {
          diags_->error(loc, "type", "no field '" + std::string(member) +
                                         "' in " + st->str());
        }
      } else {
        diags_->error(loc, "type", "member access on non-struct");
      }
      e = make<MemberExpr>(e, member, is_arrow, t, loc);
      continue;
    }
    if (accept(TokenKind::kLParen)) {
      std::vector<const Expr*> args;
      if (!check(TokenKind::kRParen)) {
        do {
          args.push_back(parseAssignment());
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "to close call");
      const Type* callee_t = e->type();
      if (callee_t->isPointer()) {
        callee_t = static_cast<const PointerType*>(callee_t)->pointee();
      }
      const Type* ret = types_.intType();
      if (callee_t->isFunction()) {
        ret = static_cast<const FunctionType*>(callee_t)->returnType();
      } else {
        diags_->error(loc, "type", "call of non-function");
      }
      e = make<CallExpr>(e, keep(args), ret, loc);
      continue;
    }
    if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
      const bool inc = peek().is(TokenKind::kPlusPlus);
      advance();
      const Type* t = e->type();
      e = make<UnaryExpr>(inc ? UnaryOp::kPostInc : UnaryOp::kPostDec, e, t,
                          loc);
      continue;
    }
    break;
  }
  return e;
}

const Expr* Parser::parsePrimary() {
  const Token& t = peek();
  const SourceLocation loc = t.location;
  switch (t.kind) {
    case TokenKind::kIntLiteral: {
      const std::int64_t v = parseIntText(t.text);
      advance();
      return make<IntLitExpr>(v, types_.intType(), loc);
    }
    case TokenKind::kFloatLiteral: {
      const double v = std::strtod(std::string(t.text).c_str(), nullptr);
      advance();
      return make<FloatLitExpr>(v, types_.doubleType(), loc);
    }
    case TokenKind::kCharLiteral: {
      const std::int64_t v = charLiteralValue(t.text);
      advance();
      return make<IntLitExpr>(v, types_.intType(), loc);
    }
    case TokenKind::kStringLiteral: {
      std::string_view s = advance().text;
      if (check(TokenKind::kStringLiteral)) {
        // Adjacent string literals join into one arena string.
        std::string joined(s);
        while (check(TokenKind::kStringLiteral)) joined += advance().text;
        s = tu_->copyString(joined);
      }
      return make<StringLitExpr>(s, types_.pointerTo(types_.charType()), loc);
    }
    case TokenKind::kLParen: {
      advance();
      const Expr* e = parseExpr();
      expect(TokenKind::kRParen, "to close parenthesized expression");
      return e;
    }
    case TokenKind::kIdentifier: {
      const std::string_view name = t.text;
      if (const std::int64_t* ev = lookupEnumConstant(name)) {
        advance();
        return make<IntLitExpr>(*ev, types_.intType(), loc);
      }
      if (const ValueDecl* decl = lookupValue(name)) {
        advance();
        return make<DeclRefExpr>(decl, decl->type(), loc);
      }
      // Implicit function declaration (classic C): `name(...)` with no
      // prior declaration becomes `extern int name(...)`. Not in an
      // annotation body, which must leave the file's declarations alone.
      if (peek(1).is(TokenKind::kLParen) && !in_annotation_) {
        advance();
        const FunctionType* ft =
            types_.functionType(types_.intType(), {}, /*variadic=*/true);
        const FunctionDecl* raw = make<FunctionDecl>(
            name, ft, std::span<const VarDecl* const>{}, loc);
        tu_->addFunction(raw);
        // Declare at file scope so later uses resolve to the same decl.
        scopes_.front().values.insert_or_assign(std::string(name), raw);
        diags_->warning(loc, "sema", "implicit declaration of function '" +
                                         std::string(name) + "'");
        return make<DeclRefExpr>(raw, ft, loc);
      }
      advance();
      diags_->error(loc, "sema", "use of undeclared identifier '" +
                                     std::string(name) + "'");
      return make<IntLitExpr>(0, types_.intType(), loc);
    }
    default:
      diags_->error(loc, "parse", "expected expression, found " + describe(t));
      advance();
      if (check(TokenKind::kEof)) fatal_ = true;
      return make<IntLitExpr>(0, types_.intType(), loc);
  }
}

const Expr* Parser::makeSizeof(const Type* t, SourceLocation loc) {
  if (t != nullptr && t->isStruct() &&
      !static_cast<const StructType*>(t)->isComplete()) {
    diags_->error(loc, "type",
                  "sizeof applied to incomplete type '" + t->str() + "'");
  }
  return make<SizeofExpr>(t != nullptr ? t->size() : 0, t,
                          types_.ulongType(), loc);
}

const Type* Parser::parseTypeName() {
  DeclSpec spec;
  if (!parseDeclSpec(spec)) {
    diags_->error(peek().location, "parse", "expected type name");
    return nullptr;
  }
  Declarator d;
  if (!parseDeclarator(spec.base, d)) return spec.base;
  if (!d.name.empty()) {
    diags_->error(d.loc, "parse", "unexpected name in type");
  }
  return d.type;
}

std::int64_t Parser::evalConstExpr(const Expr* e, bool* ok) {
  bool dummy = true;
  bool& good = ok ? *ok : dummy;
  if (e == nullptr) {
    good = false;
    return 0;
  }
  switch (e->kind()) {
    case Expr::Kind::kIntLit:
      return static_cast<const IntLitExpr*>(e)->value();
    case Expr::Kind::kSizeof:
      return static_cast<std::int64_t>(
          static_cast<const SizeofExpr*>(e)->value());
    case Expr::Kind::kUnary: {
      const auto* u = static_cast<const UnaryExpr*>(e);
      const std::int64_t v = evalConstExpr(u->operand(), &good);
      switch (u->op()) {
        case UnaryOp::kNeg: return wrap(0 - static_cast<std::uint64_t>(v));
        case UnaryOp::kLogNot: return v == 0 ? 1 : 0;
        case UnaryOp::kBitNot: return ~v;
        default: good = false; return 0;
      }
    }
    case Expr::Kind::kBinary: {
      const auto* b = static_cast<const BinaryExpr*>(e);
      const std::int64_t l = evalConstExpr(b->lhs(), &good);
      const std::int64_t r = evalConstExpr(b->rhs(), &good);
      if (!good) return 0;
      // Unsigned arithmetic wraps where signed overflow would be undefined.
      const auto ul = static_cast<std::uint64_t>(l);
      const auto ur = static_cast<std::uint64_t>(r);
      switch (b->op()) {
        case BinaryOp::kAdd: return wrap(ul + ur);
        case BinaryOp::kSub: return wrap(ul - ur);
        case BinaryOp::kMul: return wrap(ul * ur);
        case BinaryOp::kDiv:
        case BinaryOp::kRem:
          if (r == 0) {
            good = false;
            return 0;
          }
          if (r == -1) {  // INT64_MIN / -1 overflows
            return b->op() == BinaryOp::kDiv ? wrap(0 - ul) : 0;
          }
          return b->op() == BinaryOp::kDiv ? l / r : l % r;
        case BinaryOp::kBitAnd: return l & r;
        case BinaryOp::kBitOr: return l | r;
        case BinaryOp::kBitXor: return l ^ r;
        case BinaryOp::kShl:
        case BinaryOp::kShr:
          if (r < 0 || r >= 64) {
            good = false;
            return 0;
          }
          return b->op() == BinaryOp::kShl ? wrap(ul << r) : l >> r;
        case BinaryOp::kLt: return l < r;
        case BinaryOp::kGt: return l > r;
        case BinaryOp::kLe: return l <= r;
        case BinaryOp::kGe: return l >= r;
        case BinaryOp::kEq: return l == r;
        case BinaryOp::kNe: return l != r;
        case BinaryOp::kLogAnd: return (l != 0 && r != 0) ? 1 : 0;
        case BinaryOp::kLogOr: return (l != 0 || r != 0) ? 1 : 0;
        default: good = false; return 0;
      }
    }
    case Expr::Kind::kConditional: {
      const auto* c = static_cast<const ConditionalExpr*>(e);
      const std::int64_t cond = evalConstExpr(c->cond(), &good);
      const std::int64_t then = evalConstExpr(c->thenExpr(), &good);
      const std::int64_t otherwise = evalConstExpr(c->elseExpr(), &good);
      return cond != 0 ? then : otherwise;
    }
    case Expr::Kind::kCast:
      return evalConstExpr(static_cast<const CastExpr*>(e)->operand(), &good);
    default:
      good = false;
      return 0;
  }
}

}  // namespace safeflow::cfront
