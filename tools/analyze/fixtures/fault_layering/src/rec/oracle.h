#pragma once
// Leaf of the fixture: the black-box interface the decorators wrap.

namespace fixture::rec {

struct Oracle {
  int queries;
};

}  // namespace fixture::rec
