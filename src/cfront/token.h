// Token definitions for the C-subset front end. The lexer turns SafeFlow
// annotation comments (block comments whose body begins with "SafeFlow
// Annotation") into kAnnotation tokens carrying the annotation text; all
// other comments are skipped.
//
// Lifetime: a token's spelling is a view into the buffer of the
// SourceManager that holds its file, so lexing a token allocates nothing
// and copying one is cheap. A token must not outlive that SourceManager,
// and neither may the AST and IR names and annotation texts that keep
// its view.
#pragma once

#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace safeflow::cfront {

enum class TokenKind {
  kEof,
  kIdentifier,
  kIntLiteral,
  kFloatLiteral,
  kCharLiteral,
  kStringLiteral,
  kAnnotation,  // SafeFlow annotation comment; text() is the body

  // Keywords.
  kKwVoid, kKwChar, kKwShort, kKwInt, kKwLong, kKwFloat, kKwDouble,
  kKwSigned, kKwUnsigned, kKwStruct, kKwUnion, kKwEnum, kKwTypedef,
  kKwExtern, kKwStatic, kKwConst, kKwVolatile, kKwIf, kKwElse, kKwWhile,
  kKwDo, kKwFor, kKwReturn, kKwBreak, kKwContinue, kKwSwitch, kKwCase,
  kKwDefault, kKwSizeof, kKwGoto,

  // Punctuation and operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemi, kComma, kDot, kArrow, kEllipsis,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kPlusPlus, kMinusMinus,
  kAmp, kPipe, kCaret, kTilde, kShl, kShr,
  kAmpAmp, kPipePipe, kBang,
  kLess, kGreater, kLessEq, kGreaterEq, kEqEq, kBangEq,
  kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign,
  kPercentAssign, kAmpAssign, kPipeAssign, kCaretAssign, kShlAssign,
  kShrAssign,
  kQuestion, kColon,
  kHash,  // only meaningful to the preprocessor
};

[[nodiscard]] std::string_view tokenKindName(TokenKind k);

struct Token {
  TokenKind kind = TokenKind::kEof;
  // Identifier spelling, literal spelling (without quotes) or annotation
  // body: always an exact substring of the source buffer.
  std::string_view text;
  support::SourceLocation location;
  bool at_line_start = false;  // for preprocessor directive recognition
  // Macro names this token must not be re-expanded as ("blue paint"),
  // preventing infinite recursion during preprocessing. Empty except on
  // tokens produced by a macro expansion.
  std::vector<std::string_view> no_expand;

  [[nodiscard]] bool is(TokenKind k) const { return kind == k; }
  [[nodiscard]] bool isIdent(std::string_view name) const {
    return kind == TokenKind::kIdentifier && text == name;
  }
};

/// Maps an identifier spelling to a keyword kind, or kIdentifier.
[[nodiscard]] TokenKind classifyKeyword(std::string_view spelling);

}  // namespace safeflow::cfront
