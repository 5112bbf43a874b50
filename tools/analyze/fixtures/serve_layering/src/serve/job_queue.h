#pragma once
// Leaf of the fixture: the promotion-job queue the violation reaches for.

namespace fixture::serve {

struct JobQueue {
  int pending;
};

}  // namespace fixture::serve
