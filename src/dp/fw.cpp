#include "dp/fw.hpp"

#include <algorithm>

#include "dp/kernels.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

void fw_base_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
                    std::size_t k0, std::size_t b) {
  RDP_REQUIRE_MSG(i0 + b <= n && j0 + b <= n && k0 + b <= n,
                  "base tile exceeds the table");
  for (std::size_t k = k0; k < k0 + b; ++k) {
    const double* row_k = c + k * n;
    for (std::size_t i = i0; i < i0 + b; ++i) {
      double* row_i = c + i * n;
      const double via = row_i[k];
      for (std::size_t j = j0; j < j0 + b; ++j)
        row_i[j] = std::min(row_i[j], via + row_k[j]);
    }
  }
}

void fw_loop_serial(matrix<double>& m) {
  RDP_REQUIRE(m.rows() == m.cols());
  fw_kernel(m.data(), m.rows(), 0, 0, 0, m.rows());
}

}  // namespace rdp::dp
