// Wavelet transforms: the two flavors the paper's pipeline needs.
//
// 1. An undecimated (à trous) quadratic-spline transform — the filter bank
//    behind wavelet ECG delineation (Rincón et al., BSN 2009; Martínez et
//    al.).  Its low-pass [1 3 3 1]/8 and derivative high-pass 2[1 -1] have
//    power-of-two coefficients, so on the node every tap is shifts and adds
//    — the exact "proper choice of filter bank coefficients" optimization
//    Section IV-A credits for the 7 % duty-cycle implementation.
//    The wavelet approximates the derivative of a smoothing kernel: wave
//    peaks appear as zero crossings between modulus-maxima pairs, and wave
//    boundaries as isolated modulus maxima.
//
// 2. An orthonormal Daubechies-4 DWT (periodized, host-side, double) used
//    as the sparsifying basis for compressed-sensing reconstruction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/opcount.hpp"

namespace wbsn::dsp {

/// Undecimated quadratic-spline transform of `x` over scales 2^1..2^levels.
struct SwtResult {
  /// detail[j][i]: wavelet coefficient at scale 2^(j+1), time-aligned with
  /// the input (group delay compensated).
  std::vector<std::vector<std::int32_t>> detail;
  /// Final smooth approximation.
  std::vector<std::int32_t> approx;
  OpCount ops;
};

SwtResult swt_spline(std::span<const std::int32_t> x, int levels);

/// Orthonormal Daubechies-4 analysis: returns `levels`-deep coefficients
/// arranged [approx | detail_L | detail_{L-1} | ... | detail_1].
/// The length of `x` must be divisible by 2^levels.
std::vector<double> dwt_forward(std::span<const double> x, int levels);

/// Inverse of dwt_forward (exact reconstruction up to rounding).
std::vector<double> dwt_inverse(std::span<const double> coeffs, int levels);

/// Allocation-free variants for arena callers (cs::FistaWorkspace): the
/// result lands in `out` and `scratch` provides the inter-level buffer,
/// both x.size() long and owned by the caller.  `out`/`scratch` must not
/// alias `x` or each other.  Bit-identical to the allocating versions.
void dwt_forward_into(std::span<const double> x, int levels, std::span<double> out,
                      std::span<double> scratch);
void dwt_inverse_into(std::span<const double> coeffs, int levels, std::span<double> out,
                      std::span<double> scratch);

/// Maximum level count usable for length n (keeps every stage even-length).
int dwt_max_levels(std::size_t n);

}  // namespace wbsn::dsp
