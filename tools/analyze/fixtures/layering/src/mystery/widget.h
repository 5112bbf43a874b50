#pragma once
// Seeded violation: the mystery/ module directory is absent from
// layers.toml, so the contract is not total -> layer-unknown-module.

namespace fixture::mystery {

struct Widget {
  int knobs;
};

}  // namespace fixture::mystery
