#pragma once
#include <cstdint>
#include <iosfwd>

// Self-contained stand-ins for util/annotations.h: the pass is lexical, it
// keys on the macro spellings, not their expansion.
#define CA_CHECKPOINTED(save, load)
#define CA_NOT_CHECKPOINTED(reason)

namespace fixture::core {

/// Resume cursor for an episode stream.
struct Cursor CA_CHECKPOINTED(SaveCursor, LoadCursor) {
  std::uint64_t position = 0;
  std::uint64_t generation = 0;
};

void SaveCursor(const Cursor& cursor, std::ostream& out);
bool LoadCursor(std::istream& in, Cursor* cursor);

}  // namespace fixture::core
