#include "helpers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace repobench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string HexFloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void Digest::Add(const std::string& key, double value) {
  text_ += key + '=' + HexFloat(value) + '\n';
}

void Digest::Add(const std::string& key, std::uint64_t value) {
  text_ += key + '=' + std::to_string(value) + '\n';
}

void Digest::Add(const std::string& key, const std::string& value) {
  text_ += key + '=' + value + '\n';
}

std::string Digest::Hex() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text_) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

int SpanRecorder::Begin(const std::string& name, const std::string& layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order: " +
                           spans_.at(index).name);
  }
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

namespace {

/// Direct children of `parent`, ordered by start time.
std::vector<int> ChildrenOf(const std::vector<Span>& spans, int parent) {
  std::vector<int> children;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (spans[i].parent == parent) children.push_back(i);
  }
  std::sort(children.begin(), children.end(), [&](int a, int b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  return children;
}

/// Nanoseconds of `parent` covered by the union of its direct children,
/// each clipped to the parent's interval.
std::int64_t CoveredNs(const std::vector<Span>& spans, int parent) {
  const Span& p = spans[parent];
  std::int64_t covered = 0;
  std::int64_t cursor = p.start_ns;
  for (const int child : ChildrenOf(spans, parent)) {
    const std::int64_t begin = std::max(spans[child].start_ns, cursor);
    const std::int64_t end = std::min(spans[child].end_ns, p.end_ns);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

bool Descends(const std::vector<Span>& spans, int index, int root) {
  for (int i = index; i != -1; i = spans[i].parent) {
    if (i == root) return true;
  }
  return false;
}

}  // namespace

std::map<std::string, LayerTime> TimeByLayer(const std::vector<Span>& spans,
                                             int root) {
  std::map<std::string, LayerTime> layers;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (root != -1 && !Descends(spans, i, root)) continue;
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    LayerTime& layer = layers[spans[i].layer];
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s +=
        static_cast<double>(duration - CoveredNs(spans, i)) * 1e-9;
    ++layer.spans;
  }
  return layers;
}

double Coverage(const std::vector<Span>& spans, int root) {
  const std::int64_t duration = spans[root].end_ns - spans[root].start_ns;
  if (duration <= 0) return 1.0;
  return static_cast<double>(CoveredNs(spans, root)) /
         static_cast<double>(duration);
}

std::vector<Gap> UncoveredGaps(const std::vector<Span>& spans, int root) {
  std::vector<Gap> gaps;
  const Span& r = spans[root];
  std::string previous = "<start>";
  std::int64_t cursor = r.start_ns;
  for (const int child : ChildrenOf(spans, root)) {
    const Span& c = spans[child];
    if (c.start_ns > cursor) {
      gaps.push_back({previous, c.name,
                      static_cast<double>(c.start_ns - cursor) * 1e-9});
    }
    cursor = std::max(cursor, c.end_ns);
    previous = c.name;
  }
  if (r.end_ns > cursor) {
    gaps.push_back(
        {previous, "<end>", static_cast<double>(r.end_ns - cursor) * 1e-9});
  }
  std::stable_sort(gaps.begin(), gaps.end(), [](const Gap& a, const Gap& b) {
    return a.seconds > b.seconds;
  });
  return gaps;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace repobench
