#pragma once
// Seeded violation: the fault decorator reaching up into core/, the
// layer that composes it. fault declares only the fault -> rec edge, so
// this include is a layer-undeclared-edge.
#include "core/runner.h"
#include "rec/oracle.h"

namespace fixture::fault {

struct Injector {
  rec::Oracle* inner;
  core::Runner* owner;  // the "reason" for the upward include
};

}  // namespace fixture::fault
