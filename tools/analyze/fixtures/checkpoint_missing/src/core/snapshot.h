#pragma once
#include <cstdint>
#include <iosfwd>

// Self-contained stand-ins for util/annotations.h: the pass is lexical, it
// keys on the macro spellings, not their expansion.
#define CA_CHECKPOINTED(save, load)
#define CA_NOT_CHECKPOINTED(reason)

namespace fixture::core {

/// Campaign progress snapshot, persisted between runs.
struct Snapshot CA_CHECKPOINTED(SaveState, LoadState) {
  std::uint64_t episodes = 0;
  double reward = 0.0;
  // Seeded violation: this field was added without touching SaveState /
  // LoadState and carries no CA_NOT_CHECKPOINTED(reason) exemption ->
  // ckpt-missing-member.
  std::uint64_t queries = 0;
  // Clean: exempted scratch state.
  double scratch CA_NOT_CHECKPOINTED("per-step scratch") = 0.0;
};

void SaveState(const Snapshot& snapshot, std::ostream& out);
bool LoadState(std::istream& in, Snapshot* snapshot);

// Seeded violation: the named serializers were never written ->
// ckpt-no-serializer (once for save, once for load).
struct Cursor CA_CHECKPOINTED(SaveCursor, LoadCursor) {
  std::uint64_t position = 0;
};

}  // namespace fixture::core
