#ifndef COPYATTACK_REC_BPR_SAMPLER_H_
#define COPYATTACK_REC_BPR_SAMPLER_H_

#include <cstddef>
#include <functional>

#include "data/dataset.h"
#include "data/types.h"
#include "util/rng.h"

namespace copyattack::rec {

/// One BPR training example: `user` prefers `pos` (an item of its
/// profile) over `neg` (an item it never interacted with).
struct BprTriple {
  data::UserId user;
  data::ItemId pos;
  data::ItemId neg;
};

/// The draw stage of a BPR epoch. Makes up to `*steps_left` sampling steps
/// and writes one triple per step that yields one, stopping early once
/// `capacity` triples are written; returns their count and decrements
/// `*steps_left` by the steps made. A step draws a uniform user, skips a
/// user with an empty profile, draws the positive uniformly from the
/// profile, then makes up to 32 rejection draws for an item outside the
/// profile and skips the step when all of them hit the profile. Reads only
/// `rng` and `train`, so calls can resume a sequence of steps chunk by
/// chunk and consume `rng` exactly as one uninterrupted loop would.
std::size_t DrawBprTriples(const data::Dataset& train, util::Rng& rng,
                           std::size_t* steps_left, BprTriple* out,
                           std::size_t capacity);

/// Runs one BPR epoch of `train.num_interactions()` sampling steps as two
/// overlapped stages. A helper thread runs `DrawBprTriples` into a fixed
/// ring of triple chunks (at most 4 x 4096 triples); the calling thread
/// passes each chunk, in draw order, to `update(triples, count)`. The
/// triples, their order and the final state of `rng` equal those of one
/// single-threaded `DrawBprTriples` pass, so an epoch stays bit-identical
/// to a fused draw-then-update loop as long as `update` touches neither
/// `rng` nor `train`'s contents beyond reading them. The helper is a plain
/// thread joined before return (never a ThreadPool task: a nested
/// ParallelFor runs inline, so a producer/consumer pair there could
/// deadlock inside a pool worker).
void RunBprEpoch(
    const data::Dataset& train, util::Rng& rng,
    const std::function<void(const BprTriple* triples, std::size_t count)>&
        update);

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_BPR_SAMPLER_H_
