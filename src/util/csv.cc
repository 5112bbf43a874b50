#include "util/csv.h"

#include "util/check.h"
#include "util/string_utils.h"

namespace copyattack::util {

namespace {

bool NeedsQuoting(const std::string& field) {
  for (const char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string JoinEscaped(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += EscapeCsvField(fields[i]);
  }
  return out;
}

}  // namespace

std::string EscapeCsvField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;  // doubled quote -> literal quote
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
      continue;
    }
    if (c == '"' && current.empty()) {
      in_quotes = true;  // opening quote only at field start
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  // An unterminated quote falls through here with `in_quotes` still set;
  // the partial field is kept verbatim (lenient-reader contract).
  fields.push_back(std::move(current));
  return fields;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), arity_(header.size()) {
  CA_CHECK_GT(arity_, 0U);
  if (out_) {
    out_ << JoinEscaped(header) << '\n';
  }
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  CA_CHECK_EQ(fields.size(), arity_);
  out_ << JoinEscaped(fields) << '\n';
}

void CsvWriter::Flush() { out_.flush(); }

CsvReader::CsvReader(const std::string& path)
    : in_(path), opened_(static_cast<bool>(in_)) {}

bool CsvReader::Next(std::vector<std::string>* fields) {
  if (!NextLine()) return false;
  *fields = ParseCsvLine(line_);
  return true;
}

bool CsvReader::NextLine() {
  while (std::getline(in_, line_)) {
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (!line_.empty()) return true;
  }
  return false;
}

bool ReadCsv(const std::string& path, std::vector<std::string>* header,
             std::vector<std::vector<std::string>>* rows) {
  CsvReader reader(path);
  if (!reader.ok()) return false;
  header->clear();
  rows->clear();
  std::vector<std::string> fields;
  if (reader.Next(&fields)) *header = std::move(fields);
  while (reader.Next(&fields)) rows->push_back(std::move(fields));
  return true;
}

}  // namespace copyattack::util
