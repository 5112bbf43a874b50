#pragma once
#include <cstddef>
#include <mutex>

// Self-contained stand-ins for util/annotations.h: the pass is lexical, it
// keys on the macro spellings, not their expansion.
#define CA_ACQUIRED_BEFORE(...)
#define CA_GUARDED_BY(m)

namespace fixture::util {

void ParallelFor(std::size_t n, std::size_t num_threads,
                 void (*fn)(std::size_t));

class Counter {
 public:
  void Tally(std::size_t n);
  std::size_t total() const;

 private:
  /// Tracked leaf lock (zero-arg annotation enters the lock-order graph).
  mutable std::mutex mu_ CA_ACQUIRED_BEFORE();
  std::size_t total_ CA_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture::util
