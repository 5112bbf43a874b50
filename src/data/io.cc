#include "data/io.h"

#include <algorithm>
#include <charconv>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/string_utils.h"

namespace copyattack::data {
namespace {

/// Records a typed failure (when the caller asked for one) and returns
/// false so load paths can `return Fail(...)` in one expression.
bool Fail(IoError* error, const std::string& file, std::size_t line,
          std::string message) {
  if (error != nullptr) {
    error->file = file;
    error->line = line;
    error->message = std::move(message);
  }
  return false;
}

bool SaveDomain(const Dataset& domain, const std::string& path) {
  util::CsvWriter writer(path, {"user", "item", "position"});
  if (!writer.ok()) return false;
  for (const Interaction& interaction : domain.AllInteractions()) {
    writer.WriteRow({std::to_string(interaction.user),
                     std::to_string(interaction.item),
                     std::to_string(interaction.position)});
  }
  writer.Flush();
  return true;
}

/// One data row of a domain file.
struct Row {
  std::size_t user = 0;
  std::size_t position = 0;
  ItemId item = 0;
};

/// Parses `line` in place when it is exactly three unsigned decimal
/// fields ("12,345,6"): no quotes, spaces, signs, empty fields or values
/// above SIZE_MAX. False for any other line, which the general path
/// (util::ParseCsvLine + util::ParseSizeT) then parses to the same values
/// or rejects; a line this accepts parses identically there.
bool ParsePlainRow(const std::string& line, std::size_t* user,
                   std::size_t* item, std::size_t* position) {
  const char* cursor = line.data();
  const char* const end = cursor + line.size();
  std::size_t* const values[] = {user, item, position};
  for (std::size_t field = 0; field < 3; ++field) {
    if (field > 0) {
      if (cursor == end || *cursor != ',') return false;
      ++cursor;
    }
    const auto [next, ec] = std::from_chars(cursor, end, *values[field]);
    if (ec != std::errc()) return false;  // no digits, or out of range
    cursor = next;
  }
  return cursor == end;
}

/// Reads `<path>` and appends its users to `domain` in one streaming
/// pass. Rows may come in any order; a repeated (user, position) keeps the
/// last row. Data row i (counting non-blank rows, as util::CsvReader
/// does) is reported as line i + 2 (line 1 is the header).
bool LoadDomain(const std::string& path, Dataset* domain, IoError* error) {
  util::CsvReader reader(path);
  if (!reader.ok()) return Fail(error, path, 0, "cannot open file");
  std::vector<std::string> fields;
  if (!reader.Next(&fields) ||
      fields != std::vector<std::string>{"user", "item", "position"}) {
    return Fail(error, path, 1, "expected header user,item,position");
  }
  std::vector<Row> rows;
  while (reader.NextLine()) {
    const std::size_t line_number = rows.size() + 2;
    Row row;
    std::size_t item = 0;
    if (!ParsePlainRow(reader.line(), &row.user, &item, &row.position)) {
      fields = util::ParseCsvLine(reader.line());
      if (fields.size() != 3) {
        return Fail(error, path, line_number,
                    "expected 3 fields, got " +
                        std::to_string(fields.size()));
      }
      if (!util::ParseSizeT(fields[0], &row.user) ||
          !util::ParseSizeT(fields[1], &item) ||
          !util::ParseSizeT(fields[2], &row.position)) {
        return Fail(error, path, line_number, "non-numeric field");
      }
    }
    if (item >= domain->num_items()) {
      return Fail(error, path, line_number,
                  "item id " + std::to_string(item) + " out of range (" +
                      std::to_string(domain->num_items()) + " items)");
    }
    row.item = static_cast<ItemId>(item);
    rows.push_back(row);
  }

  // Stable, so among rows sharing a (user, position) the last one in the
  // file stays last and wins below.
  const auto by_user_position = [](const Row& a, const Row& b) {
    return a.user != b.user ? a.user < b.user : a.position < b.position;
  };
  if (!std::is_sorted(rows.begin(), rows.end(), by_user_position)) {
    std::stable_sort(rows.begin(), rows.end(), by_user_position);
  }

  std::size_t expected_user = 0;
  for (std::size_t begin = 0; begin < rows.size();) {
    const std::size_t user = rows[begin].user;
    std::size_t end = begin;
    while (end < rows.size() && rows[end].user == user) ++end;
    if (user != expected_user++) {
      return Fail(error, path, 0,
                  "user ids not dense: missing user " +
                      std::to_string(expected_user - 1));
    }
    Profile profile;
    profile.reserve(end - begin);
    std::size_t expected_pos = 0;
    for (std::size_t r = begin; r < end; ++r) {
      if (r + 1 < end && rows[r + 1].position == rows[r].position) {
        continue;  // overwritten by a later row
      }
      if (rows[r].position != expected_pos++) {
        return Fail(error, path, 0,
                    "user " + std::to_string(user) +
                        " positions not dense: missing position " +
                        std::to_string(expected_pos - 1));
      }
      profile.push_back(rows[r].item);
    }
    domain->AddUser(std::move(profile));
    begin = end;
  }
  return true;
}

}  // namespace

std::string IoError::Format() const {
  std::string out = file;
  if (line > 0) {
    out += ':';
    out += std::to_string(line);
  }
  out += ": ";
  out += message;
  return out;
}

bool SaveCrossDomain(const CrossDomainDataset& dataset,
                     const std::string& path_prefix) {
  {
    util::CsvWriter meta(path_prefix + ".meta.csv",
                         {"name", "num_items", "overlap_bits"});
    if (!meta.ok()) return false;
    std::string bits(dataset.overlap.size(), '0');
    for (std::size_t i = 0; i < dataset.overlap.size(); ++i) {
      if (dataset.overlap[i]) bits[i] = '1';
    }
    meta.WriteRow({dataset.name,
                   std::to_string(dataset.target.num_items()), bits});
    meta.Flush();
  }
  return SaveDomain(dataset.target, path_prefix + ".target.csv") &&
         SaveDomain(dataset.source, path_prefix + ".source.csv");
}

bool LoadCrossDomain(const std::string& path_prefix, CrossDomainDataset* out,
                     IoError* error) {
  OBS_SPAN("data.load_cross_domain");
  CA_CHECK(out != nullptr);
  const std::string meta_path = path_prefix + ".meta.csv";
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  if (!util::ReadCsv(meta_path, &header, &rows)) {
    return Fail(error, meta_path, 0, "cannot open file");
  }
  if (rows.size() != 1 || rows[0].size() != 3) {
    return Fail(error, meta_path, 2, "expected exactly one 3-field row");
  }
  std::size_t num_items = 0;
  if (!util::ParseSizeT(rows[0][1], &num_items) || num_items == 0) {
    return Fail(error, meta_path, 2, "bad num_items '" + rows[0][1] + "'");
  }
  const std::string& bits = rows[0][2];
  if (bits.size() != num_items) {
    return Fail(error, meta_path, 2,
                "overlap_bits length " + std::to_string(bits.size()) +
                    " != num_items " + std::to_string(num_items));
  }

  CrossDomainDataset loaded(rows[0][0], num_items);
  for (std::size_t i = 0; i < num_items; ++i) {
    loaded.overlap[i] = bits[i] == '1';
  }
  if (!LoadDomain(path_prefix + ".target.csv", &loaded.target, error)) {
    return false;
  }
  if (!LoadDomain(path_prefix + ".source.csv", &loaded.source, error)) {
    return false;
  }
  *out = std::move(loaded);
  return true;
}

}  // namespace copyattack::data
