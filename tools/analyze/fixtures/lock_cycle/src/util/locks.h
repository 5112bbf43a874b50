#pragma once
#include <mutex>

// Self-contained stand-ins for util/annotations.h: the pass is lexical, it
// keys on the macro spellings, not their expansion.
#define CA_ACQUIRED_BEFORE(...)
#define CA_GUARDED_BY(m)

namespace fixture::util {

class Registry {
 public:
  void Rebuild();

 private:
  // Seeded violation (half 1): declares it is taken before Pool::mu_p ...
  mutable std::mutex mu_r CA_ACQUIRED_BEFORE(Pool::mu_p);
  int entries CA_GUARDED_BY(mu_r) = 0;
};

class Pool {
 public:
  void Drain();

 private:
  // Seeded violation (half 2): ... while Pool declares the opposite
  // order. The two declared edges close a cycle -> lock-order-cycle.
  mutable std::mutex mu_p CA_ACQUIRED_BEFORE(Registry::mu_r);
  int pending CA_GUARDED_BY(mu_p) = 0;
};

}  // namespace fixture::util
