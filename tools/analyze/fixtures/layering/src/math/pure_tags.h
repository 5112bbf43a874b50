#pragma once
// Seeded violation: listed under [pure] headers in layers.toml, but pure
// headers must be include-free — any include here could smuggle a layering
// edge past the exemption -> layer-impure-header.
#include <cstddef>

namespace fixture::math {

struct DenseTag {};

}  // namespace fixture::math
