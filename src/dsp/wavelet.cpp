#include "dsp/wavelet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kern/backend.hpp"

namespace wbsn::dsp {
namespace {

/// Mirror (reflect) indexing for edge handling.
std::size_t mirror(std::int64_t i, std::int64_t n) {
  if (n == 1) return 0;
  const std::int64_t period = 2 * (n - 1);
  std::int64_t m = i % period;
  if (m < 0) m += period;
  if (m >= n) m = period - m;
  return static_cast<std::size_t>(m);
}

}  // namespace

SwtResult swt_spline(std::span<const std::int32_t> x, int levels) {
  SwtResult result;
  const auto n = static_cast<std::int64_t>(x.size());
  std::vector<std::int32_t> smooth(x.begin(), x.end());
  result.detail.reserve(static_cast<std::size_t>(levels));

  for (int j = 0; j < levels; ++j) {
    const std::int64_t hole = std::int64_t{1} << j;  // Tap spacing 2^j.
    std::vector<std::int32_t> next_smooth(x.size());
    std::vector<std::int32_t> detail(x.size());
    // Group delays: low-pass [1 3 3 1]/8 spans taps at {0,1,2,3}*hole ->
    // center 1.5*hole; high-pass 2[1 -1] spans {0,1}*hole -> center
    // 0.5*hole.  Outputs are shifted back so features stay time-aligned.
    const std::int64_t lp_shift = (3 * hole) / 2;
    const std::int64_t hp_shift = hole / 2;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto s0 = static_cast<std::int64_t>(smooth[mirror(i + lp_shift - 0 * hole, n)]);
      const auto s1 = static_cast<std::int64_t>(smooth[mirror(i + lp_shift - 1 * hole, n)]);
      const auto s2 = static_cast<std::int64_t>(smooth[mirror(i + lp_shift - 2 * hole, n)]);
      const auto s3 = static_cast<std::int64_t>(smooth[mirror(i + lp_shift - 3 * hole, n)]);
      // (s0 + 3 s1 + 3 s2 + s3) / 8 with rounding; 3x = x + (x << 1).
      next_smooth[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>((s0 + 3 * s1 + 3 * s2 + s3 + 4) >> 3);

      const auto d0 = static_cast<std::int64_t>(smooth[mirror(i + hp_shift, n)]);
      const auto d1 = static_cast<std::int64_t>(smooth[mirror(i + hp_shift - hole, n)]);
      detail[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((d0 - d1) * 2);
    }
    // Per output sample: LP = 4 loads, 2 shifts (x2 "times 3"), 5 adds,
    // 1 rounding shift, 1 store; HP = 2 loads, 1 add, 1 shift, 1 store.
    result.ops.load += 6 * x.size();
    result.ops.add += 6 * x.size();
    result.ops.shift += 4 * x.size();
    result.ops.store += 2 * x.size();
    result.detail.push_back(std::move(detail));
    smooth = std::move(next_smooth);
  }
  result.approx = std::move(smooth);
  return result;
}

int dwt_max_levels(std::size_t n) {
  int levels = 0;
  while (n >= 4 && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

// The Db4 lifting steps live in the kern layer (kern/backend.hpp): the
// loops below only orchestrate the level cascade, so the per-output
// arithmetic — and thus the bits — comes from the runtime-dispatched
// backend, identical across scalar and AVX2.
//
// The cascade copies nothing between levels.  Each level's detail
// coefficients land directly in their final place in `out`; the
// intermediate approximations alternate between the two halves of
// `scratch` (each n / 2 elements, the largest intermediate), picked by
// level parity so a level never writes the half its input came from.
// The forward cascade's first level reads `x`, its last writes the final
// approximation to the front of `out`, and the inverse cascade's last
// level writes `out`.

namespace {

/// The copy-free cascades; `split` runs the finest level on time-domain
/// samples in split order (evens, then odds).
void forward_cascade(std::span<const double> x, int levels, std::span<double> out,
                     std::span<double> scratch, bool split) {
  const std::size_t n = x.size();
  assert(levels >= 0 && levels <= dwt_max_levels(n));
  assert(out.size() >= n && scratch.size() >= n);
  if (levels == 0) {
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  const auto& k = kern::ops();
  const double* src = x.data();
  std::size_t len = n;
  for (int level = 0; level < levels; ++level) {
    const std::size_t half = len / 2;
    const std::size_t parity = static_cast<std::size_t>(level % 2);
    double* approx = level + 1 == levels ? out.data() : scratch.data() + parity * (n / 2);
    const auto step = split && level == 0 ? k.dwt_step_split : k.dwt_step;
    step(src, len, approx, out.data() + half);
    src = approx;
    len = half;
  }
}

void inverse_cascade(std::span<const double> coeffs, int levels, std::span<double> out,
                     std::span<double> scratch, bool split) {
  const std::size_t n = coeffs.size();
  assert(levels >= 0 && levels <= dwt_max_levels(n));
  assert(out.size() >= n && scratch.size() >= n);
  if (levels == 0) {
    std::copy(coeffs.begin(), coeffs.end(), out.begin());
    return;
  }
  const auto& k = kern::ops();
  const double* approx = coeffs.data();
  std::size_t len = n >> levels;
  for (int level = 0; level < levels; ++level) {
    const std::size_t parity = static_cast<std::size_t>(level % 2);
    const bool last = level + 1 == levels;
    double* dst = last ? out.data() : scratch.data() + parity * (n / 2);
    const auto step = split && last ? k.idwt_step_split : k.idwt_step;
    step(approx, coeffs.data() + len, len, dst);
    approx = dst;
    len *= 2;
  }
}

}  // namespace

void dwt_forward_into(std::span<const double> x, int levels, std::span<double> out,
                      std::span<double> scratch) {
  forward_cascade(x, levels, out, scratch, /*split=*/false);
}

void dwt_inverse_into(std::span<const double> coeffs, int levels, std::span<double> out,
                      std::span<double> scratch) {
  inverse_cascade(coeffs, levels, out, scratch, /*split=*/false);
}

void dwt_forward_split_into(std::span<const double> x, int levels, std::span<double> out,
                            std::span<double> scratch) {
  assert(levels >= 1);
  forward_cascade(x, levels, out, scratch, /*split=*/true);
}

void dwt_inverse_split_into(std::span<const double> coeffs, int levels, std::span<double> out,
                            std::span<double> scratch) {
  assert(levels >= 1);
  inverse_cascade(coeffs, levels, out, scratch, /*split=*/true);
}

std::vector<double> dwt_forward(std::span<const double> x, int levels) {
  std::vector<double> coeffs(x.size());
  std::vector<double> buf(x.size());
  dwt_forward_into(x, levels, coeffs, buf);
  return coeffs;
}

std::vector<double> dwt_inverse(std::span<const double> coeffs, int levels) {
  std::vector<double> x(coeffs.size());
  std::vector<double> buf(coeffs.size());
  dwt_inverse_into(coeffs, levels, x, buf);
  return x;
}

}  // namespace wbsn::dsp
