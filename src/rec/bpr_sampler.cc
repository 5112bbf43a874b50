#include "rec/bpr_sampler.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/time.h"
#include "util/annotations.h"

namespace copyattack::rec {

namespace {

constexpr std::size_t kNegativeAttempts = 32;
constexpr std::size_t kRingChunks = 4;
constexpr std::size_t kChunkTriples = 4096;
/// How long a ring waiter spins before it blocks: about the time one full
/// chunk of 4096 steps takes to draw or to update, so in steady state the
/// side that waits for the other never sleeps (DESIGN §17).
constexpr std::int64_t kSpinNanos = 250'000;
/// The spin loop reads the clock once per this many pauses.
constexpr std::size_t kPausesPerClockRead = 64;
/// Set in `consumed_` by `TripleRing::Cancel`.
constexpr std::size_t kCancelledBit = std::size_t{1}
                                      << (sizeof(std::size_t) * 8 - 1);

void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns the first value of `word` that satisfies `ready`. Spins with a
/// CPU pause for up to `kSpinNanos`, then blocks in `std::atomic::wait`
/// until the word changes. The acquire loads order the other side's
/// writes before whatever the caller reads next.
template <typename Ready>
std::size_t AwaitWord(const std::atomic<std::size_t>& word, Ready ready) {
  std::size_t value = word.load(std::memory_order_acquire);
  if (ready(value)) return value;
  const std::int64_t deadline = obs::MonotonicNanos() + kSpinNanos;
  for (std::size_t pauses = 1;; ++pauses) {
    CpuPause();
    value = word.load(std::memory_order_acquire);
    if (ready(value)) return value;
    if (pauses % kPausesPerClockRead == 0 &&
        obs::MonotonicNanos() >= deadline) {
      break;
    }
  }
  for (;;) {
    word.wait(value, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
    if (ready(value)) return value;
  }
}

/// Single-producer, single-consumer hand-off of triple chunks. Chunk `c`
/// lives in slot `c % kRingChunks`; the drawer owns a slot (its triples,
/// count and last flag) from `AwaitFreeSlot(c)` until `Publish(c, ...)`,
/// the updater from `AwaitChunk(c)` until `Release(c)`. Only the drawer
/// stores `produced_` and only the updater stores `consumed_`; each store
/// is a release that the other side's acquire load pairs with, which
/// orders every slot's writes before the other side's reads.
class TripleRing {
 public:
  explicit TripleRing(std::size_t chunk_capacity)
      : chunk_capacity_(chunk_capacity),
        triples_(kRingChunks * chunk_capacity) {}

  std::size_t chunk_capacity() const { return chunk_capacity_; }

  BprTriple* Slot(std::size_t chunk) {
    return triples_.data() + (chunk % kRingChunks) * chunk_capacity_;
  }

  /// Drawer: waits until chunk `chunk`'s slot is released. False when the
  /// updater has cancelled the epoch.
  bool AwaitFreeSlot(std::size_t chunk) {
    const std::size_t consumed = AwaitWord(consumed_, [chunk](std::size_t c) {
      return (c & kCancelledBit) != 0 || chunk - c < kRingChunks;
    });
    return (consumed & kCancelledBit) == 0;
  }

  /// Drawer: hands chunk `chunk` (its `count` triples) to the updater.
  void Publish(std::size_t chunk, std::size_t count, bool last) {
    counts_[chunk % kRingChunks] = count;
    last_[chunk % kRingChunks] = last;
    produced_.store(chunk + 1, std::memory_order_release);
    produced_.notify_one();
  }

  /// Updater: waits until chunk `chunk` is published; returns its triple
  /// count and sets `*last` when no chunk follows it.
  std::size_t AwaitChunk(std::size_t chunk, bool* last) {
    AwaitWord(produced_, [chunk](std::size_t p) { return p > chunk; });
    *last = last_[chunk % kRingChunks];
    return counts_[chunk % kRingChunks];
  }

  /// Updater: gives chunk `chunk`'s slot back to the drawer.
  void Release(std::size_t chunk) {
    consumed_.store(chunk + 1, std::memory_order_release);
    consumed_.notify_one();
  }

  /// Updater: stops a drawer still waiting for a slot. Changes the very
  /// word the drawer waits on, so a drawer blocked in `wait` wakes.
  void Cancel() {
    consumed_.fetch_or(kCancelledBit, std::memory_order_release);
    consumed_.notify_one();
  }

 private:
  const std::size_t chunk_capacity_;
  std::vector<BprTriple> triples_;  // slot-owned, see the class comment
  std::size_t counts_[kRingChunks] = {};  // slot-owned
  bool last_[kRingChunks] = {};           // slot-owned
  std::atomic<std::size_t> produced_ CA_ATOMIC_ONLY{0};
  std::atomic<std::size_t> consumed_ CA_ATOMIC_ONLY{0};
};

}  // namespace

std::size_t DrawBprTriples(const data::Dataset& train, util::Rng& rng,
                           std::size_t* steps_left, BprTriple* out,
                           std::size_t capacity) {
  const std::size_t num_users = train.num_users();
  const std::size_t num_items = train.num_items();
  std::size_t count = 0;
  while (count < capacity && *steps_left > 0) {
    --*steps_left;
    const data::UserId u =
        static_cast<data::UserId>(rng.UniformUint64(num_users));
    const data::Profile& profile = train.UserProfile(u);
    if (profile.empty()) continue;
    const data::ItemId pos = profile[rng.UniformUint64(profile.size())];
    // Rejection-sample a negative item the user has not interacted with.
    data::ItemId neg = pos;
    for (std::size_t attempt = 0; attempt < kNegativeAttempts; ++attempt) {
      const data::ItemId candidate =
          static_cast<data::ItemId>(rng.UniformUint64(num_items));
      if (!train.HasInteraction(u, candidate)) {
        neg = candidate;
        break;
      }
    }
    if (neg == pos) continue;
    out[count++] = BprTriple{u, pos, neg};
  }
  return count;
}

void RunBprEpoch(
    const data::Dataset& train, util::Rng& rng,
    const std::function<void(const BprTriple* triples, std::size_t count)>&
        update)
    CA_COLD_OK("a training pass; the episode loop reaches it only through "
               "the config-gated refit-on-query ablation") {
  const std::size_t steps = train.num_interactions();
  // Small epochs get a ring sized to them rather than the full 4 x 4096.
  TripleRing ring(std::clamp<std::size_t>(steps, 1, kChunkTriples));
  std::thread drawer([&train, &rng, &ring, steps] {
    std::size_t steps_left = steps;
    for (std::size_t chunk = 0;; ++chunk) {
      if (!ring.AwaitFreeSlot(chunk)) return;
      const std::size_t count = DrawBprTriples(
          train, rng, &steps_left, ring.Slot(chunk), ring.chunk_capacity());
      ring.Publish(chunk, count, steps_left == 0);
      if (steps_left == 0) return;
    }
  });
  // Joins the drawer on every exit, including an exception from `update`.
  struct JoinOnExit {
    TripleRing& ring;
    std::thread& drawer;
    ~JoinOnExit() {
      ring.Cancel();
      drawer.join();
    }
  } join_on_exit{ring, drawer};

  for (std::size_t chunk = 0;; ++chunk) {
    bool last = false;
    const std::size_t count = ring.AwaitChunk(chunk, &last);
    update(ring.Slot(chunk), count);
    ring.Release(chunk);
    if (last) return;
  }
}

}  // namespace copyattack::rec
