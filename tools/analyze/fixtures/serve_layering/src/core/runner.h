#pragma once
// Seeded violation: the campaign runner reaching up into serve/, the
// layer that schedules it. core declares no edges at all, so this
// include is a layer-undeclared-edge.
#include "serve/job_queue.h"

namespace fixture::core {

struct Runner {
  fixture::serve::JobQueue* queue;  // the "reason" for the upward include
};

}  // namespace fixture::core
