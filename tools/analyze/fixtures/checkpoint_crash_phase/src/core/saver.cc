#include <cstdio>
#include <string>

// Self-contained stub of the real fault/crash_point.h macro: the fixture
// tree must lex without the product headers.
#define CA_CRASH_POINT(site) ::fixture::core::NoteCrashSite(site)

namespace fixture::core {

void NoteCrashSite(const char* site) { (void)site; }

// SEEDED VIOLATION: instruments the checkpoint write path with only the
// first rotation phase. The rename and rotate windows are unkillable, so
// the analyzer must flag ckpt-crash-phase.
bool SaveSnapshotFile(const std::string& path, int episodes) {
  CA_CRASH_POINT("checkpoint.pre_temp_write");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "%d\n", episodes);  // analyze:allow(printf-family)
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// A non-checkpoint crash site alone must NOT trigger the rule: only
// bodies marking checkpoint.* sites owe the full phase enumeration.
void RunShard(int shard) {
  CA_CRASH_POINT("runner.shard_begin");
  (void)shard;
}

}  // namespace fixture::core
