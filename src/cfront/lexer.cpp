#include "cfront/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "support/string_utils.h"

namespace safeflow::cfront {

namespace {

// Sorted by first letter, so each letter's keywords are contiguous.
constexpr std::array<std::pair<std::string_view, TokenKind>, 30> kKeywords{{
    {"break", TokenKind::kKwBreak},
    {"char", TokenKind::kKwChar},
    {"const", TokenKind::kKwConst},
    {"continue", TokenKind::kKwContinue},
    {"case", TokenKind::kKwCase},
    {"double", TokenKind::kKwDouble},
    {"do", TokenKind::kKwDo},
    {"default", TokenKind::kKwDefault},
    {"else", TokenKind::kKwElse},
    {"enum", TokenKind::kKwEnum},
    {"extern", TokenKind::kKwExtern},
    {"float", TokenKind::kKwFloat},
    {"for", TokenKind::kKwFor},
    {"goto", TokenKind::kKwGoto},
    {"int", TokenKind::kKwInt},
    {"if", TokenKind::kKwIf},
    {"long", TokenKind::kKwLong},
    {"return", TokenKind::kKwReturn},
    {"short", TokenKind::kKwShort},
    {"signed", TokenKind::kKwSigned},
    {"struct", TokenKind::kKwStruct},
    {"static", TokenKind::kKwStatic},
    {"switch", TokenKind::kKwSwitch},
    {"sizeof", TokenKind::kKwSizeof},
    {"typedef", TokenKind::kKwTypedef},
    {"unsigned", TokenKind::kKwUnsigned},
    {"union", TokenKind::kKwUnion},
    {"void", TokenKind::kKwVoid},
    {"volatile", TokenKind::kKwVolatile},
    {"while", TokenKind::kKwWhile},
}};

static_assert(std::is_sorted(kKeywords.begin(), kKeywords.end(),
                             [](const auto& a, const auto& b) {
                               return a.first[0] < b.first[0];
                             }));

constexpr std::size_t kMinKeywordLength = 2;
constexpr std::size_t kMaxKeywordLength = 8;

/// [begin, end) of the keywords in kKeywords that start with each letter.
struct KeywordRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
constexpr std::array<KeywordRange, 26> kKeywordsByLetter = [] {
  std::array<KeywordRange, 26> ranges{};
  for (std::size_t i = 0; i < kKeywords.size(); ++i) {
    KeywordRange& r =
        ranges[static_cast<std::size_t>(kKeywords[i].first[0] - 'a')];
    if (r.begin == r.end) r.begin = i;
    r.end = i + 1;
  }
  return ranges;
}();

// ASCII character classes, as <cctype> gives them in the "C" locale.
enum CharClass : std::uint8_t {
  kIdentStart = 1,
  kDigit = 2,
  kHexDigit = 4,
};
constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  const auto mark = [&table](char first, char last, std::uint8_t cls) {
    for (char c = first; c <= last; ++c) {
      table[static_cast<unsigned char>(c)] |= cls;
    }
  };
  mark('a', 'z', kIdentStart);
  mark('A', 'Z', kIdentStart);
  mark('_', '_', kIdentStart);
  mark('0', '9', kDigit | kHexDigit);
  mark('a', 'f', kHexDigit);
  mark('A', 'F', kHexDigit);
  return table;
}();

bool hasClass(char c, std::uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}
bool isIdentStart(char c) { return hasClass(c, kIdentStart); }
bool isIdentCont(char c) { return hasClass(c, kIdentStart | kDigit); }
bool isDigit(char c) { return hasClass(c, kDigit); }
bool isHexDigit(char c) { return hasClass(c, kHexDigit); }

}  // namespace

TokenKind classifyKeyword(std::string_view spelling) {
  // Most identifiers are rejected by their length or first character
  // before any string comparison.
  if (spelling.size() < kMinKeywordLength ||
      spelling.size() > kMaxKeywordLength || spelling[0] < 'a' ||
      spelling[0] > 'z') {
    return TokenKind::kIdentifier;
  }
  const KeywordRange r =
      kKeywordsByLetter[static_cast<std::size_t>(spelling[0] - 'a')];
  for (std::size_t i = r.begin; i < r.end; ++i) {
    if (kKeywords[i].first == spelling) return kKeywords[i].second;
  }
  return TokenKind::kIdentifier;
}

std::string_view tokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kEof: return "end of file";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "float literal";
    case TokenKind::kCharLiteral: return "char literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kAnnotation: return "SafeFlow annotation";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kSemi: return "';'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kEllipsis: return "'...'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kTilde: return "'~'";
    case TokenKind::kShl: return "'<<'";
    case TokenKind::kShr: return "'>>'";
    case TokenKind::kAmpAmp: return "'&&'";
    case TokenKind::kPipePipe: return "'||'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kLess: return "'<'";
    case TokenKind::kGreater: return "'>'";
    case TokenKind::kLessEq: return "'<='";
    case TokenKind::kGreaterEq: return "'>='";
    case TokenKind::kEqEq: return "'=='";
    case TokenKind::kBangEq: return "'!='";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kSlashAssign: return "'/='";
    case TokenKind::kPercentAssign: return "'%='";
    case TokenKind::kAmpAssign: return "'&='";
    case TokenKind::kPipeAssign: return "'|='";
    case TokenKind::kCaretAssign: return "'^='";
    case TokenKind::kShlAssign: return "'<<='";
    case TokenKind::kShrAssign: return "'>>='";
    case TokenKind::kColon: return "':'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kHash: return "'#'";
    default: return "token";
  }
}

Lexer::Lexer(support::FileId file, std::string_view buffer,
             support::DiagnosticEngine& diags)
    : file_(file), buffer_(buffer), diags_(diags) {}

char Lexer::peek(std::size_t ahead) const {
  return (pos_ + ahead < buffer_.size()) ? buffer_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = buffer_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
    at_line_start_ = true;
  } else {
    ++column_;
  }
  return c;
}

support::SourceLocation Lexer::here() const {
  return support::SourceLocation{file_, line_, column_};
}

void Lexer::skipTo(std::size_t end) {
  const std::string_view span = buffer_.substr(pos_, end - pos_);
  const std::size_t last_newline = span.rfind('\n');
  if (last_newline == std::string_view::npos) {
    column_ += static_cast<std::uint32_t>(span.size());
  } else {
    line_ += static_cast<std::uint32_t>(
        std::count(span.begin(), span.end(), '\n'));
    column_ = static_cast<std::uint32_t>(span.size() - last_newline);
    at_line_start_ = true;
  }
  pos_ = end;
}

Token Lexer::makeToken(TokenKind kind, support::SourceLocation loc,
                       std::string_view text) {
  Token t;
  t.kind = kind;
  t.text = text;
  t.location = loc;
  return t;
}

Token Lexer::next() {
  while (!atEnd()) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
        c == '\v') {
      advance();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      skipTo(std::min(buffer_.find('\n', pos_), buffer_.size()));
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const support::SourceLocation loc = here();
      advance();
      advance();
      Token annot;
      if (lexBlockComment(loc, annot)) return annot;
      continue;
    }
    break;
  }
  if (atEnd()) return makeToken(TokenKind::kEof, here());

  const support::SourceLocation loc = here();
  const bool line_start = at_line_start_;
  at_line_start_ = false;
  const char c = peek();

  Token tok;
  if (isIdentStart(c)) {
    tok = lexIdentifier(loc);
  } else if (isDigit(c) || (c == '.' && isDigit(peek(1)))) {
    tok = lexNumber(loc);
  } else if (c == '\'') {
    tok = lexQuoted(loc, TokenKind::kCharLiteral);
  } else if (c == '"') {
    tok = lexQuoted(loc, TokenKind::kStringLiteral);
  } else {
    advance();
    const char n = peek();
    auto two = [&](char second, TokenKind k2, TokenKind k1) {
      if (n == second) {
        advance();
        return k2;
      }
      return k1;
    };
    TokenKind kind = TokenKind::kEof;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case ';': kind = TokenKind::kSemi; break;
      case ',': kind = TokenKind::kComma; break;
      case '?': kind = TokenKind::kQuestion; break;
      case ':': kind = TokenKind::kColon; break;
      case '~': kind = TokenKind::kTilde; break;
      case '#': kind = TokenKind::kHash; break;
      case '.':
        if (n == '.' && peek(1) == '.') {
          advance();
          advance();
          kind = TokenKind::kEllipsis;
        } else {
          kind = TokenKind::kDot;
        }
        break;
      case '+':
        if (n == '+') {
          advance();
          kind = TokenKind::kPlusPlus;
        } else {
          kind = two('=', TokenKind::kPlusAssign, TokenKind::kPlus);
        }
        break;
      case '-':
        if (n == '-') {
          advance();
          kind = TokenKind::kMinusMinus;
        } else if (n == '>') {
          advance();
          kind = TokenKind::kArrow;
        } else {
          kind = two('=', TokenKind::kMinusAssign, TokenKind::kMinus);
        }
        break;
      case '*': kind = two('=', TokenKind::kStarAssign, TokenKind::kStar); break;
      case '/': kind = two('=', TokenKind::kSlashAssign, TokenKind::kSlash); break;
      case '%': kind = two('=', TokenKind::kPercentAssign, TokenKind::kPercent); break;
      case '^': kind = two('=', TokenKind::kCaretAssign, TokenKind::kCaret); break;
      case '!': kind = two('=', TokenKind::kBangEq, TokenKind::kBang); break;
      case '=': kind = two('=', TokenKind::kEqEq, TokenKind::kAssign); break;
      case '&':
        if (n == '&') {
          advance();
          kind = TokenKind::kAmpAmp;
        } else {
          kind = two('=', TokenKind::kAmpAssign, TokenKind::kAmp);
        }
        break;
      case '|':
        if (n == '|') {
          advance();
          kind = TokenKind::kPipePipe;
        } else {
          kind = two('=', TokenKind::kPipeAssign, TokenKind::kPipe);
        }
        break;
      case '<':
        if (n == '<') {
          advance();
          kind = (peek() == '=')
                     ? (advance(), TokenKind::kShlAssign)
                     : TokenKind::kShl;
        } else {
          kind = two('=', TokenKind::kLessEq, TokenKind::kLess);
        }
        break;
      case '>':
        if (n == '>') {
          advance();
          kind = (peek() == '=')
                     ? (advance(), TokenKind::kShrAssign)
                     : TokenKind::kShr;
        } else {
          kind = two('=', TokenKind::kGreaterEq, TokenKind::kGreater);
        }
        break;
      default:
        diags_.error(loc, "lex", "unexpected character '" +
                                     std::string(1, c) + "'");
        return next();
    }
    tok = makeToken(kind, loc);
  }
  tok.at_line_start = line_start;
  return tok;
}

Token Lexer::lexIdentifier(support::SourceLocation loc) {
  const std::size_t start = pos_;
  while (pos_ < buffer_.size() && isIdentCont(buffer_[pos_])) ++pos_;
  column_ += static_cast<std::uint32_t>(pos_ - start);
  const std::string_view text = buffer_.substr(start, pos_ - start);
  return makeToken(classifyKeyword(text), loc, text);
}

Token Lexer::lexNumber(support::SourceLocation loc) {
  const std::size_t start = pos_;
  bool is_float = false;
  const auto skipDigits = [this](bool (*is)(char)) {
    while (!atEnd() && is(peek())) advance();
  };
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    skipDigits(isHexDigit);
  } else {
    skipDigits(isDigit);
    if (peek() == '.') {
      is_float = true;
      advance();
      skipDigits(isDigit);
    }
    if (peek() == 'e' || peek() == 'E') {
      is_float = true;
      advance();
      if (peek() == '+' || peek() == '-') advance();
      skipDigits(isDigit);
    }
  }
  const std::string_view text = buffer_.substr(start, pos_ - start);
  // Suffixes (u, l, f) are consumed but not distinguished further.
  while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L' ||
         peek() == 'f' || peek() == 'F') {
    if (peek() == 'f' || peek() == 'F') is_float = true;
    advance();
  }
  return makeToken(is_float ? TokenKind::kFloatLiteral
                            : TokenKind::kIntLiteral,
                   loc, text);
}

Token Lexer::lexQuoted(support::SourceLocation loc, TokenKind kind) {
  const char quote = advance();
  const std::size_t start = pos_;
  while (!atEnd() && peek() != quote) {
    if (peek() == '\\') advance();
    if (!atEnd()) advance();
  }
  const std::string_view text = buffer_.substr(start, pos_ - start);
  if (atEnd()) {
    diags_.error(loc, "lex",
                 kind == TokenKind::kCharLiteral
                     ? "unterminated character literal"
                     : "unterminated string literal");
  } else {
    advance();  // closing quote
  }
  return makeToken(kind, loc, text);
}

bool Lexer::lexBlockComment(support::SourceLocation loc, Token& out) {
  const std::size_t close = buffer_.find("*/", pos_);
  if (close == std::string_view::npos) {
    skipTo(buffer_.size());
    diags_.error(loc, "lex", "unterminated block comment");
    return false;
  }
  const std::string_view body = buffer_.substr(pos_, close - pos_);
  skipTo(close + 2);
  // Annotation comments begin (after any leading '*'s and spaces) with
  // the marker string used by the paper's examples.
  std::string_view view = support::trim(body);
  while (!view.empty() && view.front() == '*') {
    view.remove_prefix(1);
    view = support::trim(view);
  }
  constexpr std::string_view kMarker = "SafeFlow Annotation";
  if (!support::startsWith(view, kMarker)) return false;
  std::string_view rest = view.substr(kMarker.size());
  // Strip a trailing "/**" artifact of the paper's closing style.
  while (!rest.empty() && (rest.back() == '*' || rest.back() == '/')) {
    rest.remove_suffix(1);
  }
  out = makeToken(TokenKind::kAnnotation, loc, support::trim(rest));
  return true;
}

}  // namespace safeflow::cfront
