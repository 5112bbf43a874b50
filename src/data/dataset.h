#ifndef COPYATTACK_DATA_DATASET_H_
#define COPYATTACK_DATA_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/types.h"
#include "util/annotations.h"
#include "util/check.h"

namespace copyattack::data {

namespace internal_dataset {

/// Cheap always-on detector for concurrent mutation of one `Dataset`.
/// Mutating entry points flip `busy` and abort if it was already set — the
/// structure is single-writer by contract (each campaign worker owns its
/// environment's dataset), so an overlap is a caller bug that would
/// otherwise corrupt state silently. Copies and moves reset the flag: the
/// new object starts with no mutation in flight.
struct MutationSentinel {
  MutationSentinel() = default;
  MutationSentinel(const MutationSentinel&) noexcept {}
  MutationSentinel& operator=(const MutationSentinel&) noexcept {
    return *this;
  }
  std::atomic<bool> busy CA_ATOMIC_ONLY{false};
};

}  // namespace internal_dataset

/// A point-in-time marker of a `Dataset` produced by `Dataset::Checkpoint`.
/// Rolling back to it removes every user and interaction appended after the
/// checkpoint was taken. Checkpoints nest: taking a later checkpoint and
/// rolling back to it keeps an earlier one valid, and rolling back to an
/// earlier checkpoint invalidates every later one.
struct DatasetCheckpoint {
  std::size_t num_users = 0;
  std::size_t num_interactions = 0;
  /// Position in the dataset's append journal (interactions appended to
  /// users that already existed) at checkpoint time.
  std::size_t journal_size = 0;
  /// `ItemProfile(i).size()` for every item at checkpoint time; rollback
  /// truncates only the item profiles actually touched afterwards.
  std::vector<std::uint32_t> item_profile_sizes;
};

/// An implicit-feedback interaction dataset for one domain: every user has a
/// temporally ordered profile of item interactions, and every item has a
/// profile of interacting users (paper §3). The structure supports the
/// injection attack directly: `AddUser` appends a new (copied) user and
/// updates the item profiles, polluting the interaction matrix Y.
class Dataset {
 public:
  /// Creates an empty dataset over a fixed item universe of `num_items`.
  explicit Dataset(std::size_t num_items);

  /// Appends a new user with the given ordered profile and returns its id.
  /// Duplicate items within a profile are allowed by the representation but
  /// rejected here (a user interacts with a movie once in the filtered
  /// rating-5 data the paper uses).
  UserId AddUser(Profile profile);

  /// Appends one interaction to an existing user's profile.
  void AppendInteraction(UserId user, ItemId item);

  std::size_t num_users() const { return profiles_.size(); }
  std::size_t num_items() const { return num_items_; }
  std::size_t num_interactions() const { return num_interactions_; }

  /// The ordered item sequence of `user`.
  const Profile& UserProfile(UserId user) const {
    CA_CHECK_LT(user, profiles_.size());
    return profiles_[user];
  }

  /// The users who interacted with `item`, in insertion order.
  const std::vector<UserId>& ItemProfile(ItemId item) const;

  /// Number of users who interacted with `item` (the item's popularity).
  std::size_t ItemPopularity(ItemId item) const {
    return ItemProfile(item).size();
  }

  /// True if `user` interacted with `item`: one word load from the
  /// membership bitset, O(1). False for `item >= num_items()`.
  bool HasInteraction(UserId user, ItemId item) const {
    CA_CHECK_LT(user, profiles_.size());
    if (item >= num_items_) return false;
    return (membership_[WordIndex(user, item)] & Bit(item)) != 0;
  }

  /// Flattens all interactions (user order, then sequence order).
  std::vector<Interaction> AllInteractions() const;

  /// Returns items sorted by descending popularity (ties by id).
  std::vector<ItemId> ItemsByPopularity() const;

  /// Average profile length over users; 0 when empty.
  double MeanProfileLength() const;

  /// Records the current extent of the dataset so a later `RollbackTo`
  /// can truncate everything appended afterwards. The first call enables
  /// append journaling (needed to undo `AppendInteraction` on users that
  /// predate the checkpoint). Cost: O(num_items) to snapshot the item
  /// profile sizes — taken once per attack target, amortized over the
  /// episode loop.
  DatasetCheckpoint Checkpoint();

  /// Reverts the dataset to the state captured by `checkpoint`: users
  /// appended since are removed, interactions appended to surviving users
  /// are popped, and the touched item profiles are truncated. Cost is
  /// O(appended interactions), not O(dataset) — this replaces the
  /// per-episode deep copy in the attack environment. `checkpoint` must
  /// originate from this dataset (or a copy sharing its history) and still
  /// describe a prefix of it.
  void RollbackTo(const DatasetCheckpoint& checkpoint);

 private:
  /// Index into `membership_` of the word holding (`user`, `item`), and
  /// the item's bit within that word.
  std::size_t WordIndex(UserId user, ItemId item) const {
    return user * words_per_user_ + item / 64;
  }
  static std::uint64_t Bit(ItemId item) {
    return std::uint64_t{1} << (item % 64);
  }

  std::size_t num_items_;
  std::size_t num_interactions_ = 0;
  std::vector<Profile> profiles_;                 // ordered, per user
  /// Membership bitset, row-major: user `u`'s row is words
  /// `[u * words_per_user_, (u + 1) * words_per_user_)` and bit `i % 64` of
  /// word `i / 64` is set iff `u` interacted with item `i`. Costs
  /// `num_users * ceil(num_items / 64) * 8` bytes (2.9 MB for the
  /// LargeCross source domain), less than a sorted per-user copy of the
  /// profiles.
  std::size_t words_per_user_;
  std::vector<std::uint64_t> membership_;
  std::vector<std::vector<UserId>> item_profiles_;
  /// `AppendInteraction` calls recorded since journaling was enabled by the
  /// first `Checkpoint()`; rollback undoes the suffix past a checkpoint.
  bool journaling_ = false;
  std::vector<std::pair<UserId, ItemId>> append_journal_;
  /// Trips a fatal check when two threads mutate this dataset at once.
  mutable internal_dataset::MutationSentinel mutation_sentinel_;
};

}  // namespace copyattack::data

#endif  // COPYATTACK_DATA_DATASET_H_
