#pragma once
// Seeded violation: the strategy interface reaching up into attack/, the
// zoo of its own implementations. core declares no edges at all, so this
// include is a layer-undeclared-edge.
#include "attack/surrogate.h"

namespace fixture::core {

struct Strategy {
  fixture::attack::Surrogate* impl;  // the "reason" for the upward include
};

}  // namespace fixture::core
