#include "dp/sw.hpp"

#include <algorithm>
#include <vector>

#include "dp/kernels.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

void sw_base_kernel(std::int32_t* s, std::size_t ld, std::string_view a,
                    std::string_view b, const sw_params& p, std::size_t i0,
                    std::size_t j0, std::size_t bsz) {
  RDP_REQUIRE_MSG(i0 + bsz <= a.size() && j0 + bsz <= b.size(),
                  "base tile exceeds the sequences");
  for (std::size_t i = i0 + 1; i <= i0 + bsz; ++i) {
    const char ai = a[i - 1];
    const std::int32_t* above = s + (i - 1) * ld;
    std::int32_t* row = s + i * ld;
    for (std::size_t j = j0 + 1; j <= j0 + bsz; ++j) {
      const std::int32_t diag = above[j - 1] + p.sigma(ai, b[j - 1]);
      const std::int32_t up = above[j] - p.gap;
      const std::int32_t left = row[j - 1] - p.gap;
      row[j] = std::max({0, diag, up, left});
    }
  }
}

void sw_loop_serial(matrix<std::int32_t>& s, std::string_view a,
                    std::string_view b, const sw_params& p) {
  RDP_REQUIRE(s.rows() == a.size() + 1 && s.cols() == b.size() + 1);
  if (a.size() == b.size() && a.size() > 0) {
    // Square table: one whole-table "tile" through the kernel dispatch, so
    // RDP_KERNELS governs the looping baseline too (identical cell values —
    // integer arithmetic, same recurrences).
    sw_kernel(s.data(), s.cols(), a, b, p, 0, 0, a.size());
    return;
  }
  // Row-by-row fill; unlike the square tile kernel this handles
  // rectangular tables (unequal-length sequences).
  const std::size_t ld = s.cols();
  std::int32_t* tbl = s.data();
  for (std::size_t i = 1; i <= a.size(); ++i) {
    const char ai = a[i - 1];
    const std::int32_t* above = tbl + (i - 1) * ld;
    std::int32_t* row = tbl + i * ld;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::int32_t diag = above[j - 1] + p.sigma(ai, b[j - 1]);
      const std::int32_t up = above[j] - p.gap;
      const std::int32_t left = row[j - 1] - p.gap;
      row[j] = std::max({0, diag, up, left});
    }
  }
}

std::int32_t sw_linear_space_score(std::string_view a, std::string_view b,
                                   const sw_params& p) {
  std::vector<std::int32_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  std::int32_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    const char ai = a[i - 1];
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::int32_t diag = prev[j - 1] + p.sigma(ai, b[j - 1]);
      const std::int32_t up = prev[j] - p.gap;
      const std::int32_t left = cur[j - 1] - p.gap;
      cur[j] = std::max({0, diag, up, left});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

std::int32_t sw_best_score(const matrix<std::int32_t>& s) {
  std::int32_t best = 0;
  for (std::size_t i = 0; i < s.size(); ++i)
    best = std::max(best, s.data()[i]);
  return best;
}

}  // namespace rdp::dp
