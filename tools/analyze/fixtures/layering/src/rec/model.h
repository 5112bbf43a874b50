#pragma once
// rec -> math is a declared edge, so this include is legal on its own;
// together with matrix.h's upward include it forms the seeded cycle.
#include "math/matrix.h"

namespace fixture::rec {

struct Model {
  math::Matrix* weights;
};

}  // namespace fixture::rec
