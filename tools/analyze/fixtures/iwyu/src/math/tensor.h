#pragma once
#include <cstddef>

namespace fixture::math {

struct Tensor {
  double* payload;
  std::size_t rank;
};

inline std::size_t TensorBytes(const Tensor& t) {
  return t.rank * sizeof(double);
}

}  // namespace fixture::math
