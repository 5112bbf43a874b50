#pragma once
// serve -> core is a declared edge; this header is the legal direction
// (the server composes the runner, not the other way around).
#include "core/runner.h"
#include "serve/job_queue.h"

namespace fixture::serve {

struct AttackServer {
  JobQueue* queue;
  core::Runner* runner;
};

}  // namespace fixture::serve
