#pragma once
#include <cstddef>
#include <mutex>

// Self-contained stand-ins for util/annotations.h: the pass is lexical, it
// keys on the macro spellings, not their expansion.
#define CA_GUARDED_BY(m)
#define CA_REQUIRES(m)
#define CA_ATOMIC_ONLY

namespace fixture::util {

class Worker {
 public:
  void Increment();          // seeded: writes pending_ with no lock
  void Reset();              // clean: locks mutex_
  std::size_t Flush() CA_REQUIRES(mutex_);  // clean: caller holds the lock

 private:
  std::mutex mutex_;
  int pending_ CA_GUARDED_BY(mutex_) = 0;
  // Seeded violation: CA_ATOMIC_ONLY promises lock-free safety, but the
  // declared type is a plain long -> ts-atomic-type.
  long hits_ CA_ATOMIC_ONLY = 0;
};

}  // namespace fixture::util
