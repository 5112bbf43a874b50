#include <cstdio>
#include <mutex>

#define CA_HOT_PATH
#define CA_COLD_OK(reason)

namespace fixture::core {

std::mutex score_mutex;

// VIOLATION hot-path-alloc: reached from the ScoreUser root below.
float* GrowBuffer(int n) {
  return new float[n];  // analyze:allow(raw-new)
}

// VIOLATION hot-path-io: reached from the ScoreUser root below.
void LogScore(float score) {
  std::printf("score=%f\n", score);  // analyze:allow(printf-family)
}

// VIOLATION hot-path-throw: reached from the ScoreUser root below.
void Validate(int user) {
  if (user < 0) throw user;
}

// CA_COLD_OK shields both its own body and its callees from the scan.
float* ColdRebuild(int n) CA_COLD_OK("episode setup, off the step loop") {
  return GrowBuffer(n);
}

// VIOLATION hot-path-lock (the lock_guard below), plus the three
// reachable violations above.
float ScoreUser(int user, int n) CA_HOT_PATH {
  std::lock_guard<std::mutex> guard(score_mutex);
  Validate(user);
  float* buffer = GrowBuffer(n);
  float score = buffer[0] + static_cast<float>(user);
  LogScore(score);
  return score;
}

}  // namespace fixture::core
