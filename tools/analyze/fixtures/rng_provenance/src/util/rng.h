#pragma once
#ifndef FIXTURE_UTIL_RNG_H_
#define FIXTURE_UTIL_RNG_H_

#include <cstdint>

namespace fixture::util {

std::uint64_t DeriveStreamSeed(std::uint64_t base, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  Rng Fork() { return Rng(state_ * 6364136223846793005ULL + 1ULL); }
  std::uint64_t Next() { return state_ += 0x9E3779B97F4A7C15ULL; }

 private:
  std::uint64_t state_;
};

}  // namespace fixture::util

#endif  // FIXTURE_UTIL_RNG_H_
