#pragma once
// Seeded violation: a leaf module reaching up into rec/. This is the
// canonical breach the include-graph pass exists to catch — the edge is
// undeclared (layer-undeclared-edge) and, because model.h includes this
// header back, it also closes an include cycle (layer-cycle).
#include "rec/model.h"

namespace fixture::math {

struct Matrix {
  double* data;
  rec::Model* observer;  // the "reason" for the upward include
};

}  // namespace fixture::math
