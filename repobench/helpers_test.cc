#include "helpers.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace repobench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(DigestTest, HexFloatIsExact) {
  EXPECT_EQ(HexFloat(3.0), "0x1.8p+1");
  EXPECT_EQ(HexFloat(0.1), "0x1.999999999999ap-4");
}

TEST(DigestTest, EqualOnlyForBitIdenticalValuesInOrder) {
  Digest a;
  a.Add("hr", 0.1);
  a.Add("count", std::uint64_t{3});
  Digest b;
  b.Add("hr", 0.1);
  b.Add("count", std::uint64_t{3});
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);

  Digest next_ulp;
  next_ulp.Add("hr", 0.10000000000000002);
  next_ulp.Add("count", std::uint64_t{3});
  EXPECT_NE(a.Hex(), next_ulp.Hex());

  Digest reordered;
  reordered.Add("count", std::uint64_t{3});
  reordered.Add("hr", 0.1);
  EXPECT_NE(a.Hex(), reordered.Hex());
}

Span MakeSpan(const char* name, const char* layer, int start, int end,
              int parent) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

// root [0,100] holds a [10,40] (with child c [15,25]) and b [40,70].
std::vector<Span> Tree() {
  return {MakeSpan("root", "bench", 0, 100, -1),
          MakeSpan("a", "data", 10, 40, 0),
          MakeSpan("c", "rec", 15, 25, 1),
          MakeSpan("b", "rec", 40, 70, 0)};
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  const std::map<std::string, LayerTime> layers = TimeByLayer(Tree());
  // root: 100 - |[10,70]| = 40; a: 30 - 10 = 20; b: 30; c: 10.
  EXPECT_DOUBLE_EQ(layers.at("bench").self_s, 40e-9);
  EXPECT_DOUBLE_EQ(layers.at("data").self_s, 20e-9);
  EXPECT_DOUBLE_EQ(layers.at("data").total_s, 30e-9);
  EXPECT_DOUBLE_EQ(layers.at("rec").self_s, 40e-9);
  EXPECT_EQ(layers.at("rec").spans, 2u);
  // Self times add up to the root's duration.
  double self = 0.0;
  for (const auto& [layer, time] : layers) self += time.self_s;
  EXPECT_DOUBLE_EQ(self, 100e-9);
}

TEST(SpanTest, RootRestrictsTheAggregation) {
  const std::map<std::string, LayerTime> layers = TimeByLayer(Tree(), 1);
  EXPECT_EQ(layers.count("bench"), 0u);
  EXPECT_DOUBLE_EQ(layers.at("data").self_s, 20e-9);
  EXPECT_DOUBLE_EQ(layers.at("rec").total_s, 10e-9);
}

TEST(SpanTest, CoverageAndNamedGaps) {
  const std::vector<Span> spans = Tree();
  EXPECT_DOUBLE_EQ(Coverage(spans, 0), 0.6);
  EXPECT_DOUBLE_EQ(Coverage(spans, 2), 0.0);
  const std::vector<Gap> gaps = UncoveredGaps(spans, 0);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0].after, "b");
  EXPECT_EQ(gaps[0].before, "<end>");
  EXPECT_DOUBLE_EQ(gaps[0].seconds, 30e-9);
  EXPECT_EQ(gaps[1].after, "<start>");
  EXPECT_EQ(gaps[1].before, "a");
}

TEST(SpanTest, RecorderLinksParentsAndRejectsOutOfOrderEnds) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(recorder, "outer", "bench");
    ScopedSpan inner(recorder, "inner", "data");
  }
  ScopedSpan sibling(recorder, "sibling", "rec");
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, -1);
  EXPECT_LE(recorder.spans()[1].start_ns, recorder.spans()[1].end_ns);

  SpanRecorder bad;
  const int first = bad.Begin("first", "bench");
  bad.Begin("second", "bench");
  EXPECT_THROW(bad.End(first), std::logic_error);
}

}  // namespace
}  // namespace repobench
