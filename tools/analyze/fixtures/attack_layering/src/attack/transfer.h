#pragma once
// attack -> core is a declared edge; this header is the legal direction
// (a zoo strategy implements the core interface, not the other way
// around).
#include "attack/surrogate.h"
#include "core/strategy.h"

namespace fixture::attack {

struct Transfer {
  Surrogate* surrogate;
  core::Strategy* interface_slot;
};

}  // namespace fixture::attack
