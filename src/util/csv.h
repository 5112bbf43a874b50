#ifndef COPYATTACK_UTIL_CSV_H_
#define COPYATTACK_UTIL_CSV_H_

#include <fstream>
#include <string>
#include <vector>

namespace copyattack::util {

/// Minimal CSV writer: one header row followed by data rows. Fields that
/// contain a comma, a double quote, or a CR/LF are quoted RFC-4180 style
/// (embedded quotes doubled); everything else is written verbatim, so the
/// project's numeric tables stay byte-stable.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Check `ok()` before use.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Returns true if the file opened successfully.
  bool ok() const { return static_cast<bool>(out_); }

  /// Writes one data row; must have the same arity as the header.
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes buffered rows to disk.
  void Flush();

 private:
  std::ofstream out_;
  std::size_t arity_;
};

/// Streaming CSV reader: yields one row at a time, so a caller can parse a
/// large file without holding all of its fields. Rows follow `ReadCsv`'s
/// rules below; blank lines are skipped and a trailing CR is dropped.
class CsvReader {
 public:
  /// Opens `path` for reading. Check `ok()` before use.
  explicit CsvReader(const std::string& path);

  /// Returns true if the file opened successfully.
  bool ok() const { return opened_; }

  /// Reads the next non-blank row into `*fields`; false at end of file.
  bool Next(std::vector<std::string>* fields);

  /// Reads the next non-blank line without splitting it into fields, for
  /// callers with a faster parser for their common row shape; false at end
  /// of file. `line()` holds it, trailing CR dropped, until the next read.
  bool NextLine();
  const std::string& line() const { return line_; }

 private:
  std::ifstream in_;
  bool opened_;  ///< fixed at open: the stream itself fails at end of file
  std::string line_;
};

/// Reads a whole CSV file into memory. Returns false if the file cannot be
/// opened. The first row is returned separately as the header. Quoted
/// fields are unescaped (doubled quotes collapse); a field must be quoted
/// to contain a comma. Embedded newlines inside quotes are not supported —
/// rows are line-delimited. Malformed quoting (stray or unterminated
/// quotes) is tolerated: the remainder of the field is taken verbatim,
/// matching the lenient readers used by the bench tooling.
bool ReadCsv(const std::string& path, std::vector<std::string>* header,
             std::vector<std::vector<std::string>>* rows);

/// Splits one CSV line into fields with the quoting rules above. Exposed
/// for tests and for tools that stream rows without loading whole files.
std::vector<std::string> ParseCsvLine(const std::string& line);

/// Quotes `field` if needed per the writer's rules (comma, quote, CR/LF).
std::string EscapeCsvField(const std::string& field);

}  // namespace copyattack::util

#endif  // COPYATTACK_UTIL_CSV_H_
