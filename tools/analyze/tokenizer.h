#ifndef COPYATTACK_TOOLS_ANALYZE_TOKENIZER_H_
#define COPYATTACK_TOOLS_ANALYZE_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

/// A real C++ tokenizer for the static-analysis subsystem. Every pass reads
/// its token stream, so no rule can match inside a comment, a string
/// literal, or a raw string.
///
/// Scope: lexical analysis only — no preprocessing, no semantics. Both
/// branches of every `#if` are lexed (the passes must see code that is
/// compiled out on this toolchain), macros are not expanded, and digraphs /
/// trigraphs are assumed absent (the repo lints itself, and the style guide
/// bans them). Handled faithfully:
///   * CRLF and lone-CR line endings (normalized to `\n`);
///   * line splices (backslash-newline) in code, comments, and non-raw
///     literals — raw strings keep them verbatim, per the standard;
///   * `//` and `/* ... */` comments, including multi-line ones;
///   * string/char literals with encoding prefixes (u8, u, U, L) and
///     escapes, and raw strings `R"delim( ... )delim"`;
///   * pp-numbers with digit separators (`1'000'000`) and exponent signs;
///   * preprocessor directives, with `#include` paths lexed as dedicated
///     tokens.

namespace copyattack::analyze {

enum class TokenKind {
  kIdentifier,   ///< identifiers and keywords (no keyword table needed)
  kNumber,       ///< pp-number
  kString,       ///< any string literal (text is empty — bodies are opaque)
  kCharLiteral,  ///< any character literal
  kPunct,        ///< punctuation; `::` and `->` are single tokens
  kDirective,    ///< preprocessor directive; text is the name ("include")
  kIncludePath,  ///< the path operand of #include, without delimiters
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;        ///< spelling (see per-kind notes above)
  std::size_t line = 0;    ///< 1-based physical line of the first character
  bool angled = false;     ///< kIncludePath: `<...>` (true) vs `"..."`
  /// True for every token of a preprocessor directive's logical line
  /// (splices included) — lets the scope scanner keep macro bodies out of
  /// declaration heads.
  bool in_directive = false;
};

struct Comment {
  std::size_t line_begin = 0;  ///< 1-based, inclusive
  std::size_t line_end = 0;    ///< 1-based, inclusive
  std::string text;            ///< comment body including the `//` / `/*`
};

/// Fully lexed view of one source file.
struct LexedFile {
  std::string path;
  std::string content;  ///< newline-normalized source text

  std::vector<Token> tokens;
  std::vector<Comment> comments;

  /// Lexer complaints (unterminated block comment / raw string). The passes
  /// treat any of these as a violation so silently-mislexed files cannot
  /// pass the tree check.
  std::vector<std::string> errors;

  /// True if a comment on `line` — or ending on the line directly above it
  /// — contains `analyze:allow(<rule>)`, e.g. Allows(42, "layer-cycle"). A
  /// multi-line block comment grants its allowances to every line it spans
  /// (plus the next); in a run of `//` lines the marker must sit on the
  /// last one or on the code line itself.
  bool Allows(std::size_t line, std::string_view rule) const;
};

/// Lexes an in-memory buffer.
LexedFile LexString(std::string path, std::string content);

/// Reads and lexes a file; returns false (with `*error` set) on I/O failure.
bool LexFileFromDisk(const std::string& path, LexedFile* out,
                     std::string* error);

}  // namespace copyattack::analyze

#endif  // COPYATTACK_TOOLS_ANALYZE_TOKENIZER_H_
