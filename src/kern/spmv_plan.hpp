// Packed execution plan for the host-side sparse sensing operators.
//
// The sensing matrices are ±1-sparse (a handful of entries per column), so
// the hot apply/adjoint kernels are gather-accumulate loops, not dense
// GEMV.  A plan groups the outputs (rows for apply, columns for the
// adjoint) into lanes-wide blocks and pads every block to its longest
// output, storing indices and signs lane-interleaved:
//
//   idx[g * kLanes + l] / sgn[g * kLanes + l]
//     = the (g - block_tap_start[b])-th term of output (b * kLanes + l).
//
// Padding terms carry sgn == 0.0 and idx == 0, so they contribute exactly
// +0.0 and every lane of a block walks the same number of taps — that is
// what lets the AVX2 backend process one block per vector register with
// one gather per tap group.
//
// Determinism contract: the value of output o is *defined* as the
// sequential sum over its taps in plan order (real entries first, then the
// pads).  Both backends accumulate in exactly that order, which is what
// makes scalar and AVX2 bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wbsn::kern {

struct SpmvPlan {
  /// Lane width of the blocked layout (fixed: one AVX2 register of doubles).
  static constexpr std::size_t kLanes = 4;

  std::size_t num_outputs = 0;  ///< Length of y.
  std::size_t num_inputs = 0;   ///< Length of x (gather domain).

  /// Per block, the first tap-group index; size num_blocks() + 1.
  std::vector<std::uint32_t> block_tap_start;
  /// Lane-interleaved input indices, kLanes per tap group.
  std::vector<std::int32_t> idx;
  /// Lane-interleaved signs (±1.0; 0.0 marks a padding term).
  std::vector<double> sgn;
  /// True when every sign is exactly +1.0 (uniform output length, no
  /// pads, no negatives — e.g. the adjoint of a sparse-binary matrix).
  /// Backends may then skip the sign multiply: 1.0 * v == v bit-exactly,
  /// so the fast path stays on the canonical result.
  bool uniform_positive = false;

  std::size_t num_blocks() const {
    return block_tap_start.empty() ? 0 : block_tap_start.size() - 1;
  }

  bool empty() const { return num_outputs == 0; }
};

/// One output's terms: (input index, ±1.0 sign) in accumulation order.
using SpmvTerms = std::vector<std::pair<std::int32_t, double>>;

/// Builds the blocked/padded plan from per-output term lists.  The order
/// of `terms[o]` is preserved — it becomes the canonical accumulation
/// order of output o.
SpmvPlan build_spmv_plan(std::size_t num_inputs, const std::vector<SpmvTerms>& terms);

}  // namespace wbsn::kern
