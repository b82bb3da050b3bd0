// Token-level mini preprocessor. Supports the directive subset used by
// embedded control code bases:
//   #include "file"      (relative to the including file, then -I dirs;
//                         nested at most kMaxIncludeDepth deep)
//   #define NAME ...     (object-like)
//   #define NAME(a,b) .. (function-like, no # or ## operators)
//   #undef NAME
//   #ifdef / #ifndef / #else / #endif
//   #if 0 / #if 1 / #if defined(X) / #if !defined(X)
//   #pragma once
// Backslash line continuations inside directives are not supported; the
// corpora do not use them. A directive on a file's last line belongs to
// that file: an #include there resolves from the file's own directory.
//
// The file being preprocessed streams through a Lexer. Included headers
// come from a HeaderCache instead, which reads and lexes each header once
// and replays its raw tokens at every include; directives, macro expansion
// and #if evaluation still run on every replay.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cfront/lexer.h"
#include "cfront/token.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "support/string_utils.h"

namespace safeflow::cfront {

/// The raw tokens of every header read into one SourceManager, keyed by
/// the path an #include tried. A Frontend shares one cache among the
/// Preprocessors of all its files, so each header is read, registered and
/// lexed at most once per run. Its tokens view the SourceManager's buffer,
/// so the cache must not outlive that manager.
class HeaderCache {
 public:
  explicit HeaderCache(support::SourceManager& sm) : sm_(sm) {}

  struct Header {
    std::optional<support::FileId> file;  // nullopt: the path cannot be opened
    std::vector<Token> tokens;            // raw tokens, without the kEof
    /// The lexer's diagnostics, each with the index of the token whose
    /// lexing emitted it (tokens.size() for the end of file), so a replay
    /// re-emits them exactly where lexing the header would have.
    std::vector<std::pair<std::size_t, support::Diagnostic>> diagnostics;
  };

  /// The header at `path`, read and lexed on first use. References stay
  /// valid for the lifetime of the cache.
  const Header& get(const std::string& path);

  /// Every path requested so far with the file it opened (invalid: it
  /// could not be opened): exactly the paths whose contents decided what
  /// the preprocessor included.
  [[nodiscard]] std::map<std::string, support::FileId> paths() const;

  /// Drops every entry; later requests read their headers again.
  void clear() { headers_.clear(); }

 private:
  support::SourceManager& sm_;
  std::unordered_map<std::string, Header> headers_;
};

/// GCC's limit on #include nesting. A deeper include is an error, which
/// also ends an unguarded include cycle.
inline constexpr std::size_t kMaxIncludeDepth = 200;

class Preprocessor {
 public:
  /// `headers`, a cache over `sm`, is shared with other Preprocessors;
  /// without one, this Preprocessor keeps its own.
  Preprocessor(support::SourceManager& sm, support::DiagnosticEngine& diags,
               std::vector<std::string> include_dirs = {},
               HeaderCache* headers = nullptr);
  Preprocessor(const Preprocessor&) = delete;
  Preprocessor& operator=(const Preprocessor&) = delete;

  /// Defines an object-like macro before processing (like -DNAME=value).
  void predefine(std::string name, std::string value);

  /// Fully preprocesses the file, returning the expanded token stream
  /// terminated by a single kEof token.
  std::vector<Token> run(support::FileId root);

 private:
  struct Macro {
    bool function_like = false;
    std::vector<std::string_view> params;
    std::vector<Token> body;
  };

  struct Frame {
    // The file being preprocessed streams through `lexer`; an included
    // header replays `header`'s cached tokens from `next_token` on.
    std::optional<Lexer> lexer;
    const HeaderCache::Header* header = nullptr;
    std::size_t next_token = 0;
    std::size_t next_diagnostic = 0;
    support::FileId file;
    std::string directory;  // for relative #include resolution
    // #include nesting: 0 for the file being preprocessed. Kept per frame
    // because an include on its file's last line replaces that file's
    // frame instead of stacking on it.
    std::size_t depth = 0;
    // Tokens pushed back while this frame was on top; consumed before the
    // frame's own tokens, and *after* any frames stacked above (so an
    // #include splices its file before the rest of the including line's
    // successors).
    std::vector<Token> pushback;
  };

  // Raw token stream with pushback local to the top frame.
  Token rawNext();
  void pushBack(Token t);

  void handleDirective(const Token& hash);
  void handleInclude(std::uint32_t line);
  void handleDefine(std::uint32_t line);
  void handleIf(std::uint32_t line, bool is_ifdef, bool negate);
  void skipToEndOfLine(std::uint32_t line);
  /// Reads remaining raw tokens on `line` (same file as top frame).
  std::vector<Token> readRestOfLine(std::uint32_t line);

  /// If `tok` names a macro not painted on the token, expands it by pushing
  /// the substituted (painted) tokens back onto the stream and returns
  /// true; the main loop then rescans them naturally.
  bool maybeExpand(const Token& tok);

  [[nodiscard]] bool active() const;

  support::SourceManager& sm_;
  support::DiagnosticEngine& diags_;
  std::vector<std::string> include_dirs_;
  HeaderCache own_headers_;
  HeaderCache& headers_;
  support::StringMap<Macro> macros_;
  std::set<std::string> pragma_once_files_;
  std::vector<Frame> frames_;
  // Conditional stack: each entry is (this branch active, any branch taken).
  std::vector<std::pair<bool, bool>> conditionals_;
};

}  // namespace safeflow::cfront
