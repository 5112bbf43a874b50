#pragma once
// core -> rec is a declared edge; this header is legal on its own and
// exists so the fault/ violation has a real target to include.
#include "rec/oracle.h"

namespace fixture::core {

struct Runner {
  rec::Oracle* oracle;
};

}  // namespace fixture::core
