// LCS / edit-distance recurrence spec: the classic string wavefront as a
// first-class spec over the (n+1)×(n+1) scoring table. The recurrence
// shape (split/depends/counts) comes from wavefront_recurrence, shared
// with SW; only the cell rule differs:
//
//   lcs:           s[i][j] = a[i-1]==b[j-1] ? s[i-1][j-1]+1
//                                           : max(s[i-1][j], s[i][j-1])
//   edit_distance: s[i][j] = min(s[i-1][j-1] + (a[i-1]!=b[j-1]),
//                                s[i-1][j]+1, s[i][j-1]+1)
//
// The constructor (re)writes the boundary row/column for the mode (zeros
// for LCS, i / j for edit distance), so every backend sees the same
// deterministic table regardless of what a previous run left there. Each
// interior tile is written once: boolean signalling items (token graph).
#include "dp/spec/specs.hpp"

#include <algorithm>

#include "dp/spec/wavefront_base.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

namespace {

class lcs_spec final : public wavefront_recurrence {
 public:
  lcs_spec(matrix<std::int32_t>& s, std::string_view a, std::string_view b,
           lcs_mode mode, std::size_t base)
      : wavefront_recurrence(a.size(), base),
        s_(s),
        a_(a),
        b_(b),
        mode_(mode) {
    RDP_REQUIRE(s.rows() == a.size() + 1 && s.cols() == b.size() + 1);
    RDP_REQUIRE_MSG(a.size() == b.size(),
                    "R-DP LCS requires equal-length sequences");
    for (std::size_t j = 0; j < s_.cols(); ++j)
      s_(0, j) = mode_ == lcs_mode::edit_distance
                     ? static_cast<std::int32_t>(j)
                     : 0;
    for (std::size_t i = 0; i < s_.rows(); ++i)
      s_(i, 0) = mode_ == lcs_mode::edit_distance
                     ? static_cast<std::int32_t>(i)
                     : 0;
  }

  const char* name() const override {
    return mode_ == lcs_mode::edit_distance ? "ED" : "LCS";
  }

  void run_base(const tile4& t) override {
    const auto b = static_cast<std::size_t>(t.b);
    const std::size_t i0 = t.i * b + 1, j0 = t.j * b + 1;
    for (std::size_t i = i0; i < i0 + b; ++i)
      for (std::size_t j = j0; j < j0 + b; ++j) {
        const bool eq = a_[i - 1] == b_[j - 1];
        if (mode_ == lcs_mode::lcs) {
          s_(i, j) = eq ? s_(i - 1, j - 1) + 1
                        : std::max(s_(i - 1, j), s_(i, j - 1));
        } else {
          s_(i, j) = std::min({s_(i - 1, j - 1) + (eq ? 0 : 1),
                               s_(i - 1, j) + 1, s_(i, j - 1) + 1});
        }
      }
  }

 private:
  matrix<std::int32_t>& s_;
  std::string_view a_;
  std::string_view b_;
  lcs_mode mode_;
};

}  // namespace

std::unique_ptr<recurrence> make_lcs_spec(matrix<std::int32_t>& s,
                                          std::string_view a,
                                          std::string_view b, lcs_mode mode,
                                          std::size_t base) {
  return std::make_unique<lcs_spec>(s, a, b, mode, base);
}

}  // namespace rdp::dp
