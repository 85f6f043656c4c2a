// AVX2 backend.  Every kernel reproduces the canonical semantics of
// scalar_ref.hpp bit for bit:
//
//   * reductions keep 4 lane accumulators (lane l ← elements i ≡ l mod 4)
//     and fold them as (s0 + s2) + (s1 + s3), which is exactly what the
//     extract-128/add/fold epilogue below computes;
//   * spmv walks each block's taps in plan order, one 4-lane gather per
//     tap group;
//   * DWT outputs evaluate the same pairwise mul/add trees;
//   * no FMA instructions are used anywhere (this TU is compiled with
//     -mavx2 only, plus -ffp-contract=off), so every rounding matches the
//     scalar backend's separate mul and add.
//
// Loop tails and small sizes fall back to the shared reference code —
// identical math, so the cutover point is invisible in the bits.
#include "kern/backend.hpp"

#if defined(WBSN_KERN_HAVE_AVX2)

#include <immintrin.h>

#include "kern/scalar_ref.hpp"

namespace wbsn::kern {
namespace {

/// Runs the canonical scalar loop over the tail [i0, n) with the 4 lane
/// accumulators carried over from the vector body; the final fold in
/// ref::reduce_lanes — (s0 + s2) + (s1 + s3) — matches the order an
/// extract-128/add epilogue would compute.
double finish_reduction(__m256d acc, const double* x, const double* y, std::size_t i0,
                        std::size_t n, bool square) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (std::size_t i = i0; i < n; ++i) {
    lanes[i & 3] += square ? x[i] * x[i] : x[i] * y[i];
  }
  return ref::reduce_lanes(lanes);
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  return finish_reduction(acc, x, y, i, n, /*square=*/false);
}

double nrm2_sq_avx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  return finish_reduction(acc, x, x, i, n, /*square=*/true);
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(a, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  ref::axpy(alpha, x + i, y + i, n - i);
}

void xpby_avx2(const double* x, double beta, double* y, std::size_t n) {
  const __m256d b = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(b, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(x + i), t));
  }
  ref::xpby(x + i, beta, y + i, n - i);
}

void grad_step_avx2(const double* z, const double* grad, double lip, double* a,
                    std::size_t n) {
  const __m256d l = _mm256_set1_pd(lip);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_div_pd(_mm256_loadu_pd(grad + i), l);
    _mm256_storeu_pd(a + i, _mm256_sub_pd(_mm256_loadu_pd(z + i), g));
  }
  ref::grad_step(z + i, grad + i, lip, a + i, n - i);
}

/// copysign(max(|v| - tau, 0), v), vector form (see ref::soft_threshold_one).
/// The sign mask is built inline: a namespace-scope __m256d would run AVX
/// instructions during static init, before the CPUID check can protect a
/// non-AVX host.
__m256d soft_threshold_vec(__m256d v, __m256d tau) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d mag = _mm256_sub_pd(_mm256_andnot_pd(sign_mask, v), tau);
  const __m256d thr = _mm256_max_pd(_mm256_setzero_pd(), mag);
  return _mm256_or_pd(thr, _mm256_and_pd(sign_mask, v));
}

void momentum_avx2(const double* a, const double* a_prev, double* z, double beta,
                   std::size_t n, double* delta_sq, double* scale_sq) {
  const __m256d bvec = _mm256_set1_pd(beta);
  __m256d acc_d = _mm256_setzero_pd();
  __m256d acc_s = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_loadu_pd(a + i);
    const __m256d d = _mm256_sub_pd(av, _mm256_loadu_pd(a_prev + i));
    acc_d = _mm256_add_pd(acc_d, _mm256_mul_pd(d, d));
    acc_s = _mm256_add_pd(acc_s, _mm256_mul_pd(av, av));
    _mm256_storeu_pd(z + i, _mm256_add_pd(av, _mm256_mul_pd(bvec, d)));
  }
  alignas(32) double lanes_d[4];
  alignas(32) double lanes_s[4];
  _mm256_store_pd(lanes_d, acc_d);
  _mm256_store_pd(lanes_s, acc_s);
  for (; i < n; ++i) {
    const double d = a[i] - a_prev[i];
    lanes_d[i & 3] += d * d;
    lanes_s[i & 3] += a[i] * a[i];
    z[i] = a[i] + beta * d;
  }
  *delta_sq = ref::reduce_lanes(lanes_d);
  *scale_sq = ref::reduce_lanes(lanes_s);
}

/// The fused FISTA step on one vector of elements: returns d = a_k - a_{k-1}
/// and leaves a_k in *a_io, z_k in *z_io (see ref::fista_step_one).
__m256d fista_step_vec(__m256d* z_io, __m256d grad, __m256d* a_io, __m256d lip,
                       __m256d tau, __m256d beta) {
  const __m256d a_new = soft_threshold_vec(_mm256_sub_pd(*z_io, _mm256_div_pd(grad, lip)), tau);
  const __m256d d = _mm256_sub_pd(a_new, *a_io);
  *a_io = a_new;
  *z_io = _mm256_add_pd(a_new, _mm256_mul_pd(beta, d));
  return d;
}

void fista_step_avx2(const double* grad, double lip, double tau, double beta, std::size_t n,
                     double* z, double* a, double* delta_sq, double* scale_sq) {
  // 4 consecutive elements per register, lane l holding elements
  // i ≡ l (mod 4); the scalar tail continues the same lanes.
  const __m256d lvec = _mm256_set1_pd(lip);
  const __m256d tvec = _mm256_set1_pd(tau);
  const __m256d bvec = _mm256_set1_pd(beta);
  __m256d acc_d = _mm256_setzero_pd();
  __m256d acc_s = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d zv = _mm256_loadu_pd(z + i);
    __m256d av = _mm256_loadu_pd(a + i);
    const __m256d d = fista_step_vec(&zv, _mm256_loadu_pd(grad + i), &av, lvec, tvec, bvec);
    acc_d = _mm256_add_pd(acc_d, _mm256_mul_pd(d, d));
    acc_s = _mm256_add_pd(acc_s, _mm256_mul_pd(av, av));
    _mm256_storeu_pd(z + i, zv);
    _mm256_storeu_pd(a + i, av);
  }
  alignas(32) double lanes_d[4];
  alignas(32) double lanes_s[4];
  _mm256_store_pd(lanes_d, acc_d);
  _mm256_store_pd(lanes_s, acc_s);
  for (; i < n; ++i) {
    const double d = ref::fista_step_one(z[i], grad[i], a[i], lip, tau, beta);
    lanes_d[i & 3] += d * d;
    lanes_s[i & 3] += a[i] * a[i];
  }
  *delta_sq = ref::reduce_lanes(lanes_d);
  *scale_sq = ref::reduce_lanes(lanes_s);
}

/// One tap group: gather the 4 lane inputs and weight by the signs.
/// Masked gather with an explicit all-ones mask: same semantics as
/// _mm256_i32gather_pd, but GCC's expansion of the unmasked form trips
/// -Wmaybe-uninitialized on the undefined pass-through source.
/// kSigned = false skips the sign multiply for uniform_positive plans
/// (1.0 * v == v bit-exactly, so the result is unchanged).
template <bool kSigned>
__m256d spmv_term(const SpmvPlan& plan, const double* x, std::size_t tap_group) {
  const std::size_t t = tap_group * SpmvPlan::kLanes;
  const std::int32_t* idx = plan.idx.data() + t;
  // Manual load+insert rather than vgatherdpd: the gather instruction's
  // throughput is no better than four port-bound scalar loads, and on
  // parts carrying the Downfall (GDS) mitigation it is far worse.
  const __m128d lo =
      _mm_loadh_pd(_mm_load_sd(x + idx[0]), x + idx[1]);
  const __m128d hi =
      _mm_loadh_pd(_mm_load_sd(x + idx[2]), x + idx[3]);
  const __m256d gathered = _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
  if constexpr (kSigned) {
    return _mm256_mul_pd(_mm256_loadu_pd(plan.sgn.data() + t), gathered);
  } else {
    return gathered;
  }
}

template <bool kSigned>
void spmv_avx2_impl(const SpmvPlan& plan, const double* x, double* y) {
  const std::size_t full_blocks = plan.num_outputs / SpmvPlan::kLanes;
  std::size_t blk = 0;
  // Four blocks in flight: each block's accumulation is a serial FP add
  // chain gated by gather latency, so interleaving independent chains
  // keeps the gather ports busy.  Per-block tap order is untouched.
  for (; blk + 4 <= full_blocks; blk += 4) {
    const std::uint32_t s0 = plan.block_tap_start[blk];
    const std::uint32_t s1 = plan.block_tap_start[blk + 1];
    const std::uint32_t s2 = plan.block_tap_start[blk + 2];
    const std::uint32_t s3 = plan.block_tap_start[blk + 3];
    const std::uint32_t s4 = plan.block_tap_start[blk + 4];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    const std::uint32_t joint =
        std::min(std::min(s1 - s0, s2 - s1), std::min(s3 - s2, s4 - s3));
    for (std::uint32_t s = 0; s < joint; ++s) {
      acc0 = _mm256_add_pd(acc0, spmv_term<kSigned>(plan, x, s0 + s));
      acc1 = _mm256_add_pd(acc1, spmv_term<kSigned>(plan, x, s1 + s));
      acc2 = _mm256_add_pd(acc2, spmv_term<kSigned>(plan, x, s2 + s));
      acc3 = _mm256_add_pd(acc3, spmv_term<kSigned>(plan, x, s3 + s));
    }
    for (std::uint32_t g = s0 + joint; g < s1; ++g) {
      acc0 = _mm256_add_pd(acc0, spmv_term<kSigned>(plan, x, g));
    }
    for (std::uint32_t g = s1 + joint; g < s2; ++g) {
      acc1 = _mm256_add_pd(acc1, spmv_term<kSigned>(plan, x, g));
    }
    for (std::uint32_t g = s2 + joint; g < s3; ++g) {
      acc2 = _mm256_add_pd(acc2, spmv_term<kSigned>(plan, x, g));
    }
    for (std::uint32_t g = s3 + joint; g < s4; ++g) {
      acc3 = _mm256_add_pd(acc3, spmv_term<kSigned>(plan, x, g));
    }
    _mm256_storeu_pd(y + blk * SpmvPlan::kLanes, acc0);
    _mm256_storeu_pd(y + (blk + 1) * SpmvPlan::kLanes, acc1);
    _mm256_storeu_pd(y + (blk + 2) * SpmvPlan::kLanes, acc2);
    _mm256_storeu_pd(y + (blk + 3) * SpmvPlan::kLanes, acc3);
  }
  for (; blk < full_blocks; ++blk) {
    __m256d acc = _mm256_setzero_pd();
    for (std::uint32_t g = plan.block_tap_start[blk]; g < plan.block_tap_start[blk + 1]; ++g) {
      acc = _mm256_add_pd(acc, spmv_term<kSigned>(plan, x, g));
    }
    _mm256_storeu_pd(y + blk * SpmvPlan::kLanes, acc);
  }
  for (std::size_t o = full_blocks * SpmvPlan::kLanes; o < plan.num_outputs; ++o) {
    y[o] = ref::spmv_output(plan, x, o / SpmvPlan::kLanes, o % SpmvPlan::kLanes);
  }
}

void spmv_avx2(const SpmvPlan& plan, const double* x, double* y) {
  if (plan.uniform_positive) {
    spmv_avx2_impl<false>(plan, x, y);
  } else {
    spmv_avx2_impl<true>(plan, x, y);
  }
}

/// Deinterleaves 8 consecutive doubles starting at p into even/odd lanes:
/// even = (p0, p2, p4, p6), odd = (p1, p3, p5, p7).
void load_deinterleave(const double* p, __m256d* even, __m256d* odd) {
  const __m256d v0 = _mm256_loadu_pd(p);      // p0 p1 p2 p3
  const __m256d v1 = _mm256_loadu_pd(p + 4);  // p4 p5 p6 p7
  const __m256d t0 = _mm256_permute2f128_pd(v0, v1, 0x20);  // p0 p1 p4 p5
  const __m256d t1 = _mm256_permute2f128_pd(v0, v1, 0x31);  // p2 p3 p6 p7
  *even = _mm256_unpacklo_pd(t0, t1);
  *odd = _mm256_unpackhi_pd(t0, t1);
}

/// Interleaves even/odd output lanes back into 8 consecutive doubles at p.
void store_interleave(double* p, __m256d even, __m256d odd) {
  const __m256d lo = _mm256_unpacklo_pd(even, odd);  // e0 o0 e2 o2
  const __m256d hi = _mm256_unpackhi_pd(even, odd);  // e1 o1 e3 o3
  _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}

void dwt_step_avx2(const double* x, std::size_t n, double* approx, double* detail) {
  const std::size_t half = n / 2;
  if (half < 8) {
    ref::dwt_step(x, n, approx, detail);
    return;
  }
  const __m256d lo0 = _mm256_set1_pd(ref::kDb4Lo[0]);
  const __m256d lo1 = _mm256_set1_pd(ref::kDb4Lo[1]);
  const __m256d lo2 = _mm256_set1_pd(ref::kDb4Lo[2]);
  const __m256d lo3 = _mm256_set1_pd(ref::kDb4Lo[3]);
  const __m256d hi0 = _mm256_set1_pd(ref::kDb4Hi[0]);
  const __m256d hi1 = _mm256_set1_pd(ref::kDb4Hi[1]);
  const __m256d hi2 = _mm256_set1_pd(ref::kDb4Hi[2]);
  const __m256d hi3 = _mm256_set1_pd(ref::kDb4Hi[3]);
  // Outputs k..k+3 read x[2k .. 2k+9]; stay in bounds while 2k+9 <= n-1.
  std::size_t k = 0;
  for (; k + 5 <= half; k += 4) {
    __m256d x0;
    __m256d x1;
    __m256d x2;
    __m256d x3;
    load_deinterleave(x + 2 * k, &x0, &x1);
    load_deinterleave(x + 2 * k + 2, &x2, &x3);
    const __m256d a = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(lo0, x0), _mm256_mul_pd(lo1, x1)),
        _mm256_add_pd(_mm256_mul_pd(lo2, x2), _mm256_mul_pd(lo3, x3)));
    const __m256d d = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(hi0, x0), _mm256_mul_pd(hi1, x1)),
        _mm256_add_pd(_mm256_mul_pd(hi2, x2), _mm256_mul_pd(hi3, x3)));
    _mm256_storeu_pd(approx + k, a);
    _mm256_storeu_pd(detail + k, d);
  }
  for (; k < half; ++k) {
    ref::dwt_output(x[(2 * k) % n], x[(2 * k + 1) % n], x[(2 * k + 2) % n],
                    x[(2 * k + 3) % n], &approx[k], &detail[k]);
  }
}

void idwt_step_avx2(const double* approx, const double* detail, std::size_t half,
                    double* x) {
  if (half < 8) {
    ref::idwt_step(approx, detail, half, x);
    return;
  }
  const __m256d lo0 = _mm256_set1_pd(ref::kDb4Lo[0]);
  const __m256d lo1 = _mm256_set1_pd(ref::kDb4Lo[1]);
  const __m256d lo2 = _mm256_set1_pd(ref::kDb4Lo[2]);
  const __m256d lo3 = _mm256_set1_pd(ref::kDb4Lo[3]);
  const __m256d hi0 = _mm256_set1_pd(ref::kDb4Hi[0]);
  const __m256d hi1 = _mm256_set1_pd(ref::kDb4Hi[1]);
  const __m256d hi2 = _mm256_set1_pd(ref::kDb4Hi[2]);
  const __m256d hi3 = _mm256_set1_pd(ref::kDb4Hi[3]);
  // k = 0 wraps to k⁻ = half-1: scalar.  Vector body needs k-1 >= 0 and
  // k+3 <= half-1.
  const std::size_t km0 = half - 1;
  ref::idwt_outputs(approx[0], detail[0], approx[km0], detail[km0], &x[0], &x[1]);
  std::size_t k = 1;
  for (; k + 4 <= half; k += 4) {
    const __m256d ak = _mm256_loadu_pd(approx + k);
    const __m256d dk = _mm256_loadu_pd(detail + k);
    const __m256d am = _mm256_loadu_pd(approx + k - 1);
    const __m256d dm = _mm256_loadu_pd(detail + k - 1);
    const __m256d even = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(lo0, ak), _mm256_mul_pd(hi0, dk)),
        _mm256_add_pd(_mm256_mul_pd(lo2, am), _mm256_mul_pd(hi2, dm)));
    const __m256d odd = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(lo1, ak), _mm256_mul_pd(hi1, dk)),
        _mm256_add_pd(_mm256_mul_pd(lo3, am), _mm256_mul_pd(hi3, dm)));
    store_interleave(x + 2 * k, even, odd);
  }
  for (; k < half; ++k) {
    ref::idwt_outputs(approx[k], detail[k], approx[k - 1], detail[k - 1], &x[2 * k],
                      &x[2 * k + 1]);
  }
}

constexpr Ops kAvx2Ops = {
    "avx2",
    dot_avx2,
    nrm2_sq_avx2,
    axpy_avx2,
    xpby_avx2,
    grad_step_avx2,
    momentum_avx2,
    fista_step_avx2,
    spmv_avx2,
    dwt_step_avx2,
    idwt_step_avx2,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace wbsn::kern

#else  // !WBSN_KERN_HAVE_AVX2

namespace wbsn::kern {

const Ops* avx2_ops() { return nullptr; }

}  // namespace wbsn::kern

#endif
