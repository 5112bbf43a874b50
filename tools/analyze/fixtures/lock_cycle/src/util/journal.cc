#include <mutex>

// Self-contained stand-in for util/annotations.h (see locks.h).
#define CA_ACQUIRED_BEFORE(...)

namespace fixture::util {

class Journal {
 public:
  void Rotate();

 private:
  mutable std::mutex mu_head CA_ACQUIRED_BEFORE(mu_tail);
  mutable std::mutex mu_tail CA_ACQUIRED_BEFORE();
};

void Journal::Rotate() {
  std::lock_guard<std::mutex> tail(mu_tail);
  // Seeded violation: mu_head is declared to come first, but is taken
  // while mu_tail is held -> lock-order-contradiction.
  std::lock_guard<std::mutex> head(mu_head);
}

}  // namespace fixture::util
