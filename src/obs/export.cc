#include "obs/export.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

namespace copyattack::obs {

namespace {

/// Shortest-exact double formatting: 17 significant digits round-trip any
/// IEEE double, which is what makes the CSV/JSON exporters loss-free.
std::string FormatDouble(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string EscapeJsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Inserts one counter into `snapshot`, keeping counters ordered by name
/// as `MetricsRegistry::Snapshot` returns them.
void AddCounterSorted(const std::string& name, std::uint64_t value,
                      MetricsSnapshot* snapshot) {
  auto& counters = snapshot->counters;
  const auto at = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& counter, const std::string& key) {
        return counter.first < key;
      });
  counters.insert(at, {name, value});
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (const char c : line) {
    if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

// --- Minimal JSON reader -------------------------------------------------
//
// Just enough of a recursive-descent parser to read back what
// MetricsToJson emits (objects, arrays, strings without exotic escapes,
// numbers, bools, null). Exists so the exporter round-trip is testable
// without taking on a JSON dependency the container does not have.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Vector-of-pairs keeps source order; our schemas have no duplicates.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWhitespace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    const std::size_t n = std::string_view(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          default: c = esc;  // \" \\ \/ and anything else verbatim
        }
      }
      out->push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return ConsumeLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return ConsumeLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ConsumeLiteral("null");
    }
    // Number.
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      SkipWhitespace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "name,kind,key,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << name << ",counter,," << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << name << ",gauge,," << value << '\n';
  }
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      out << hist.name << ",hist_bucket,"
          << (i < hist.bounds.size() ? FormatDouble(hist.bounds[i])
                                     : std::string("inf"))
          << ',' << hist.counts[i] << '\n';
    }
    out << hist.name << ",hist_sum,," << FormatDouble(hist.sum) << '\n';
    out << hist.name << ",hist_count,," << hist.count << '\n';
  }
  return out.str();
}

bool WriteMetricsCsv(const MetricsSnapshot& snapshot,
                     const std::string& path) {
  return WriteFile(path, MetricsToCsv(snapshot));
}

bool ReadMetricsCsv(const std::string& path, MetricsSnapshot* snapshot) {
  std::ifstream in(path);
  if (!in) return false;
  *snapshot = MetricsSnapshot();
  std::string line;
  if (!std::getline(in, line)) return false;  // header
  // Histograms arrive as contiguous row groups in export order.
  HistogramSnapshot* hist = nullptr;
  const auto hist_for = [&](const std::string& name) -> HistogramSnapshot* {
    if (hist == nullptr || hist->name != name) {
      snapshot->histograms.emplace_back();
      hist = &snapshot->histograms.back();
      hist->name = name;
    }
    return hist;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != 4) return false;
    const std::string& name = fields[0];
    const std::string& kind = fields[1];
    const std::string& key = fields[2];
    const std::string& value = fields[3];
    if (kind == "counter") {
      snapshot->counters.emplace_back(
          name, static_cast<std::uint64_t>(std::strtoull(
                    value.c_str(), nullptr, 10)));
    } else if (kind == "gauge") {
      snapshot->gauges.emplace_back(
          name, static_cast<std::int64_t>(std::strtoll(
                    value.c_str(), nullptr, 10)));
    } else if (kind == "hist_bucket") {
      HistogramSnapshot* h = hist_for(name);
      if (key != "inf") {
        h->bounds.push_back(std::strtod(key.c_str(), nullptr));
      }
      h->counts.push_back(static_cast<std::uint64_t>(
          std::strtoull(value.c_str(), nullptr, 10)));
    } else if (kind == "hist_sum") {
      hist_for(name)->sum = std::strtod(value.c_str(), nullptr);
    } else if (kind == "hist_count") {
      hist_for(name)->count = static_cast<std::uint64_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    } else {
      return false;
    }
  }
  return true;
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(snapshot.counters[i].first)
        << "\": " << snapshot.counters[i].second;
  }
  out << (snapshot.counters.empty() ? "}" : "\n  }");
  out << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(snapshot.gauges[i].first)
        << "\": " << snapshot.gauges[i].second;
  }
  out << (snapshot.gauges.empty() ? "}" : "\n  }");
  out << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& hist = snapshot.histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(hist.name) << "\": {\n      \"bounds\": [";
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      out << (b == 0 ? "" : ", ") << FormatDouble(hist.bounds[b]);
    }
    out << "],\n      \"counts\": [";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << hist.counts[b];
    }
    out << "],\n      \"sum\": " << FormatDouble(hist.sum)
        << ",\n      \"count\": " << hist.count
        << ",\n      \"mean\": " << FormatDouble(hist.Mean())
        << ",\n      \"p50\": " << FormatDouble(hist.Percentile(0.50))
        << ",\n      \"p95\": " << FormatDouble(hist.Percentile(0.95))
        << ",\n      \"p99\": " << FormatDouble(hist.Percentile(0.99))
        << "\n    }";
  }
  out << (snapshot.histograms.empty() ? "}" : "\n  }");
  out << "\n}\n";
  return out.str();
}

bool WriteMetricsJson(const MetricsSnapshot& snapshot,
                      const std::string& path) {
  return WriteFile(path, MetricsToJson(snapshot));
}

bool ParseMetricsJson(const std::string& json, MetricsSnapshot* snapshot) {
  JsonValue root;
  if (!JsonParser(json).Parse(&root) ||
      root.kind != JsonValue::Kind::kObject) {
    return false;
  }
  *snapshot = MetricsSnapshot();
  if (const JsonValue* counters = root.Find("counters")) {
    for (const auto& [name, value] : counters->object) {
      snapshot->counters.emplace_back(
          name, static_cast<std::uint64_t>(value.number));
    }
  }
  if (const JsonValue* gauges = root.Find("gauges")) {
    for (const auto& [name, value] : gauges->object) {
      snapshot->gauges.emplace_back(
          name, static_cast<std::int64_t>(value.number));
    }
  }
  if (const JsonValue* histograms = root.Find("histograms")) {
    for (const auto& [name, value] : histograms->object) {
      HistogramSnapshot hist;
      hist.name = name;
      if (const JsonValue* bounds = value.Find("bounds")) {
        for (const JsonValue& b : bounds->array) {
          hist.bounds.push_back(b.number);
        }
      }
      if (const JsonValue* counts = value.Find("counts")) {
        for (const JsonValue& c : counts->array) {
          hist.counts.push_back(static_cast<std::uint64_t>(c.number));
        }
      }
      if (const JsonValue* sum = value.Find("sum")) hist.sum = sum->number;
      if (const JsonValue* count = value.Find("count")) {
        hist.count = static_cast<std::uint64_t>(count->number);
      }
      snapshot->histograms.push_back(std::move(hist));
    }
  }
  return true;
}

std::string EventsToChromeTrace(const std::vector<TraceEvent>& events) {
  std::int64_t base_ns = 0;
  for (const TraceEvent& event : events) {
    if (base_ns == 0 || event.start_ns < base_ns) base_ns = event.start_ns;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \""
        << EscapeJsonString(event.name != nullptr ? event.name : "?")
        << "\", \"cat\": \"obs\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << event.thread_index << ", \"ts\": "
        << FormatDouble(static_cast<double>(event.start_ns - base_ns) *
                        1e-3)
        << ", \"dur\": "
        << FormatDouble(static_cast<double>(event.duration_ns) * 1e-3)
        << ", \"args\": {\"depth\": " << event.depth << "}}";
  }
  out << (events.empty() ? "]" : "\n]") << "}\n";
  return out.str();
}

bool WriteChromeTrace(const std::vector<TraceEvent>& events,
                      const std::string& path) {
  return WriteFile(path, EventsToChromeTrace(events));
}

bool ExportAll(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  AddCounterSorted(kTraceOverwrittenCounter,
                   TraceRecorder::Global().overwritten(), &snapshot);
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  const std::filesystem::path base(dir);
  return WriteMetricsCsv(snapshot, (base / "metrics.csv").string()) &&
         WriteMetricsJson(snapshot, (base / "summary.json").string()) &&
         WriteChromeTrace(events, (base / "trace.json").string());
}

}  // namespace copyattack::obs
