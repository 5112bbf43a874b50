#ifndef COPYATTACK_REPOBENCH_HELPERS_H_
#define COPYATTACK_REPOBENCH_HELPERS_H_

// Result digests and span bookkeeping of the repository benchmark's
// binary. Nothing here depends on the program under test, so the helpers
// are unit-tested on their own (helpers_test.cc); the statistics over
// runs live in stats.py.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repobench {

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty input.
double Median(std::vector<double> values);

/// Order-sensitive digest of named numeric results, kept as "key=value"
/// lines. Doubles enter as C99 hexfloat text ("%a"), so two digests agree
/// only when every value is bit-identical.
class Digest {
 public:
  void Add(const std::string& key, double value);
  void Add(const std::string& key, std::uint64_t value);
  void Add(const std::string& key, const std::string& value);

  /// 64-bit FNV-1a of the lines, as 16 hex digits.
  std::string Hex() const;

 private:
  std::string text_;
};

/// Hexfloat text of `value` ("0x1.8p+1" for 3.0).
std::string HexFloat(double value);

/// One timed interval of the benchmark's own tracing: the benchmark opens
/// a span around each call it makes into the program's public functions.
struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span list with an open-span stack for parent links. Single
/// threaded: the benchmark calls into the program from one thread.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, const std::string& layer);
  /// Closes span `index`, which must be the innermost open span.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             const std::string& layer)
      : recorder_(recorder), index_(recorder.Begin(name, layer)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Total and self time of one layer: a span's self time is its duration
/// minus the part of it that its direct children cover.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::size_t spans = 0;
};

/// Aggregates spans by layer. Only span `root` and its descendants count;
/// `root` = -1 takes every span.
std::map<std::string, LayerTime> TimeByLayer(const std::vector<Span>& spans,
                                             int root = -1);

/// Share of span `root`'s duration covered by its direct children.
double Coverage(const std::vector<Span>& spans, int root);

/// An interval of a span that none of its direct children covers, named by
/// the children on either side ("<start>" / "<end>" at the edges).
struct Gap {
  std::string after;
  std::string before;
  double seconds = 0.0;
};

/// The uncovered intervals of span `root`, largest first.
std::vector<Gap> UncoveredGaps(const std::vector<Span>& spans, int root);

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

}  // namespace repobench

#endif  // COPYATTACK_REPOBENCH_HELPERS_H_
