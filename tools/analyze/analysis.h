#ifndef COPYATTACK_TOOLS_ANALYZE_ANALYSIS_H_
#define COPYATTACK_TOOLS_ANALYZE_ANALYSIS_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/tokenizer.h"

/// Shared plumbing of the copyattack-analyze passes: the scanned file set,
/// path→module mapping, violation records, `analyze:allow(<rule>)`
/// suppression, and the text/JSON reporters.

namespace copyattack::analyze {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// One scanned source file: the lexed view plus its path relative to the
/// analysis root ('/'-separated regardless of platform).
struct ScannedFile {
  std::string rel_path;
  LexedFile lexed;
};

/// The whole scanned tree, sorted by rel_path for deterministic reports.
struct SourceTree {
  std::string root;
  std::vector<ScannedFile> files;

  const ScannedFile* FindByRelPath(std::string_view rel_path) const;
};

struct ScanOptions {
  std::string root = ".";
  /// Directories (or single files), relative to root.
  std::vector<std::string> targets;
  /// Root-relative path prefixes to skip (seeded-violation corpora,
  /// build trees).
  std::vector<std::string> excludes;
};

/// Recursively loads every .h/.hpp/.cc/.cpp under the targets. Lexer-level
/// problems (unreadable file, unterminated constructs) are reported as
/// `io`-rule violations so a mislexed tree can never pass silently.
bool ScanTree(const ScanOptions& options, SourceTree* tree,
              std::vector<Violation>* violations, std::string* error);

/// Top-level module of a root-relative path: "src/util/rng.h" -> "util",
/// "tools/cli.cc" -> "tools", "tests/x.cc" -> "tests". Empty for files
/// directly in the root.
std::string ModuleOf(std::string_view rel_path);

/// The path with a leading "src/" stripped — the spelling used in project
/// `#include` directives and in layers.toml pure_headers entries.
std::string SrcRelative(std::string_view rel_path);

/// Appends a violation unless the offending line carries an
/// `analyze:allow(<rule>)` comment.
void AddViolation(const ScannedFile& file, std::size_t line,
                  std::string_view rule, std::string message,
                  std::vector<Violation>* violations);

/// Rule catalogue (for --list-rules and the docs).
struct RuleInfo {
  std::string_view id;
  std::string_view pass;
  std::string_view summary;
};
const std::vector<RuleInfo>& RuleCatalogue();

/// Wall-clock cost of one pass, reported in the JSON output so a pass
/// that regresses the sub-second lint budget is visible in CI artifacts.
struct PassTiming {
  std::string pass;
  double millis = 0.0;
};

/// Resolution accounting of the call-graph layer (tools/analyze/callgraph).
/// Emitted as the `callgraph` object of the JSON report whenever a
/// graph-based pass ran, so the soundness of those passes is a number in
/// CI artifacts, not folklore. `unresolved_rate` is
/// unresolved / max(1, call_sites - external): external calls (std::,
/// libc — nothing in-tree to resolve against) are excluded from the
/// denominator by design.
struct CallGraphStats {
  std::size_t functions = 0;
  std::size_t call_sites = 0;
  std::size_t resolved_edges = 0;
  std::size_t external_calls = 0;
  std::size_t unresolved_calls = 0;
  double unresolved_rate = 0.0;
};

/// Minimal JSON string escaping shared by the JSON and SARIF reporters.
std::string JsonEscape(std::string_view text);

/// Reporters. Both return the number of violations. `callgraph` may be
/// null (no graph-based pass ran); when set, its stats are emitted as a
/// top-level JSON object.
std::size_t ReportText(const std::vector<Violation>& violations,
                       std::size_t files_scanned, std::ostream& out);
std::size_t ReportJson(const std::vector<Violation>& violations,
                       const std::vector<PassTiming>& timings,
                       std::size_t files_scanned,
                       const CallGraphStats* callgraph, std::ostream& out);

}  // namespace copyattack::analyze

#endif  // COPYATTACK_TOOLS_ANALYZE_ANALYSIS_H_
