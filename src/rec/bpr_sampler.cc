#include "rec/bpr_sampler.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace copyattack::rec {

namespace {

constexpr std::size_t kNegativeAttempts = 32;
constexpr std::size_t kRingChunks = 4;
constexpr std::size_t kChunkTriples = 4096;

/// Single-producer, single-consumer hand-off of triple chunks. Chunk `c`
/// lives in slot `c % kRingChunks`; the drawer owns a slot from
/// `AwaitFreeSlot(c)` until `Publish(c, ...)`, the updater from
/// `AwaitChunk(c)` until `Release(c)`. The mutex hand-offs order every
/// slot's writes before the other side's reads.
class TripleRing {
 public:
  explicit TripleRing(std::size_t chunk_capacity)
      : chunk_capacity_(chunk_capacity),
        triples_(kRingChunks * chunk_capacity) {}

  std::size_t chunk_capacity() const { return chunk_capacity_; }

  BprTriple* Slot(std::size_t chunk) {
    return triples_.data() + (chunk % kRingChunks) * chunk_capacity_;
  }

  /// Drawer: blocks until chunk `chunk`'s slot is released. False when the
  /// updater has cancelled the epoch.
  bool AwaitFreeSlot(std::size_t chunk) {
    std::unique_lock<std::mutex> lock(mutex_);
    slot_free_.wait(lock, [&] {
      return cancelled_ || chunk - consumed_ < kRingChunks;
    });
    return !cancelled_;
  }

  /// Drawer: hands chunk `chunk` (its `count` triples) to the updater.
  void Publish(std::size_t chunk, std::size_t count, bool last) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counts_[chunk % kRingChunks] = count;
      last_chunk_ = last ? chunk : last_chunk_;
      produced_ = chunk + 1;
    }
    chunk_ready_.notify_one();
  }

  /// Updater: blocks until chunk `chunk` is published; returns its triple
  /// count and sets `*last` when no chunk follows it.
  std::size_t AwaitChunk(std::size_t chunk, bool* last) {
    std::unique_lock<std::mutex> lock(mutex_);
    chunk_ready_.wait(lock, [&] { return produced_ > chunk; });
    *last = last_chunk_ == chunk;
    return counts_[chunk % kRingChunks];
  }

  /// Updater: gives chunk `chunk`'s slot back to the drawer.
  void Release(std::size_t chunk) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      consumed_ = chunk + 1;
    }
    slot_free_.notify_one();
  }

  /// Updater: stops a drawer still waiting for a slot.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cancelled_ = true;
    }
    slot_free_.notify_one();
  }

 private:
  const std::size_t chunk_capacity_;
  std::vector<BprTriple> triples_;  // slot-owned, see the class comment
  std::mutex mutex_ CA_ACQUIRED_BEFORE();
  std::condition_variable chunk_ready_;
  std::condition_variable slot_free_;
  std::size_t counts_[kRingChunks] CA_GUARDED_BY(mutex_) = {};
  std::size_t produced_ CA_GUARDED_BY(mutex_) = 0;
  std::size_t consumed_ CA_GUARDED_BY(mutex_) = 0;
  std::size_t last_chunk_ CA_GUARDED_BY(mutex_) =
      static_cast<std::size_t>(-1);
  bool cancelled_ CA_GUARDED_BY(mutex_) = false;
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
