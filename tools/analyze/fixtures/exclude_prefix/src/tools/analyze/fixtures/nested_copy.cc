// Deliberately non-conforming fixture for the analyzer's --exclude
// matching. NOT compiled into any target. The default exclude
// `tools/analyze/fixtures/` is a prefix of the repo-relative path of the
// real fixtures, but only a substring of this file's path, so
// analyze_rule_exclude_prefix_std-rand requires the finding below.

#include <cstdlib>

int NestedCopyStdRand() {
  return std::rand();  // std-rand: must use util::Rng
}
