#pragma once
// Leaf of the fixture: the surrogate model the violation reaches for.

namespace fixture::attack {

struct Surrogate {
  int embedding_dim;
};

}  // namespace fixture::attack
