// AVX2 backend.  Every kernel reproduces the canonical semantics of
// scalar_ref.hpp bit for bit:
//
//   * reductions keep 4 lane accumulators (lane l ← elements i ≡ l mod 4)
//     and fold them as (s0 + s2) + (s1 + s3), which is exactly what the
//     extract-128/add/fold epilogue below computes;
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
__m256d fista_step_vec(__m256d* z_io, __m256d grad, __m256d* a_io, __m256d inv_lip,
                       __m256d tau, __m256d beta) {
  const __m256d a_new =
      soft_threshold_vec(_mm256_sub_pd(*z_io, _mm256_mul_pd(grad, inv_lip)), tau);
  const __m256d d = _mm256_sub_pd(a_new, *a_io);
  *a_io = a_new;
  *z_io = _mm256_add_pd(a_new, _mm256_mul_pd(beta, d));
  return d;
}

void fista_step_avx2(const double* grad, double inv_lip, double tau, double beta,
                     std::size_t n, double* z, double* a, double* delta_sq, double* scale_sq) {
  // 4 consecutive elements per register, lane l holding elements
  // i ≡ l (mod 4); the scalar tail continues the same lanes.
  const __m256d inv_lip_vec = _mm256_set1_pd(inv_lip);
  const __m256d tvec = _mm256_set1_pd(tau);
  const __m256d bvec = _mm256_set1_pd(beta);
  __m256d acc_d = _mm256_setzero_pd();
  __m256d acc_s = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d zv = _mm256_loadu_pd(z + i);
    __m256d av = _mm256_loadu_pd(a + i);
    const __m256d d =
        fista_step_vec(&zv, _mm256_loadu_pd(grad + i), &av, inv_lip_vec, tvec, bvec);
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
    const double d = ref::fista_step_one(z[i], grad[i], a[i], inv_lip, tau, beta);
    lanes_d[i & 3] += d * d;
    lanes_s[i & 3] += a[i] * a[i];
  }
  *delta_sq = ref::reduce_lanes(lanes_d);
  *scale_sq = ref::reduce_lanes(lanes_s);
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

/// The Db4 filter taps, broadcast.
struct Db4Taps {
  __m256d lo[4];
  __m256d hi[4];
  Db4Taps() {
    for (int t = 0; t < 4; ++t) {
      lo[t] = _mm256_set1_pd(ref::kDb4Lo[t]);
      hi[t] = _mm256_set1_pd(ref::kDb4Hi[t]);
    }
  }
};

/// Four forward outputs from their taps x0..x3 (ref::dwt_output's tree).
void dwt_outputs_vec(const Db4Taps& f, __m256d x0, __m256d x1, __m256d x2, __m256d x3,
                     double* approx, double* detail) {
  const __m256d a =
      _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(f.lo[0], x0), _mm256_mul_pd(f.lo[1], x1)),
                    _mm256_add_pd(_mm256_mul_pd(f.lo[2], x2), _mm256_mul_pd(f.lo[3], x3)));
  const __m256d d =
      _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(f.hi[0], x0), _mm256_mul_pd(f.hi[1], x1)),
                    _mm256_add_pd(_mm256_mul_pd(f.hi[2], x2), _mm256_mul_pd(f.hi[3], x3)));
  _mm256_storeu_pd(approx, a);
  _mm256_storeu_pd(detail, d);
}

/// Four inverse output pairs from coefficients k and k-1
/// (ref::idwt_outputs' trees).
void idwt_outputs_vec(const Db4Taps& f, __m256d ak, __m256d dk, __m256d am, __m256d dm,
                      __m256d* even, __m256d* odd) {
  *even = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(f.lo[0], ak), _mm256_mul_pd(f.hi[0], dk)),
                        _mm256_add_pd(_mm256_mul_pd(f.lo[2], am), _mm256_mul_pd(f.hi[2], dm)));
  *odd = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(f.lo[1], ak), _mm256_mul_pd(f.hi[1], dk)),
                       _mm256_add_pd(_mm256_mul_pd(f.lo[3], am), _mm256_mul_pd(f.hi[3], dm)));
}

void dwt_step_avx2(const double* x, std::size_t n, double* approx, double* detail) {
  const std::size_t half = n / 2;
  if (half < 8) {
    ref::dwt_step(x, n, approx, detail);
    return;
  }
  const Db4Taps f;
  // Outputs k..k+3 read x[2k .. 2k+9]; stay in bounds while 2k+9 <= n-1.
  std::size_t k = 0;
  for (; k + 5 <= half; k += 4) {
    __m256d x0;
    __m256d x1;
    __m256d x2;
    __m256d x3;
    load_deinterleave(x + 2 * k, &x0, &x1);
    load_deinterleave(x + 2 * k + 2, &x2, &x3);
    dwt_outputs_vec(f, x0, x1, x2, x3, approx + k, detail + k);
  }
  ref::dwt_step_from(x, n, k, approx, detail);
}

void dwt_step_split_avx2(const double* x, std::size_t n, double* approx, double* detail) {
  const std::size_t half = n / 2;
  if (half < 8) {
    ref::dwt_step_split(x, n, approx, detail);
    return;
  }
  const Db4Taps f;
  const double* even = x;
  const double* odd = x + half;
  // Outputs k..k+3 read even/odd[k .. k+4]; in bounds while k+4 <= half-1.
  std::size_t k = 0;
  for (; k + 5 <= half; k += 4) {
    dwt_outputs_vec(f, _mm256_loadu_pd(even + k), _mm256_loadu_pd(odd + k),
                    _mm256_loadu_pd(even + k + 1), _mm256_loadu_pd(odd + k + 1), approx + k,
                    detail + k);
  }
  ref::dwt_step_split_from(x, n, k, approx, detail);
}

void idwt_step_avx2(const double* approx, const double* detail, std::size_t half,
                    double* x) {
  if (half < 8) {
    ref::idwt_step(approx, detail, half, x);
    return;
  }
  const Db4Taps f;
  // k = 0 wraps to k⁻ = half-1: scalar.  Vector body needs k-1 >= 0 and
  // k+3 <= half-1.
  const std::size_t km0 = half - 1;
  ref::idwt_outputs(approx[0], detail[0], approx[km0], detail[km0], &x[0], &x[1]);
  std::size_t k = 1;
  for (; k + 4 <= half; k += 4) {
    __m256d even;
    __m256d odd;
    idwt_outputs_vec(f, _mm256_loadu_pd(approx + k), _mm256_loadu_pd(detail + k),
                     _mm256_loadu_pd(approx + k - 1), _mm256_loadu_pd(detail + k - 1), &even,
                     &odd);
    store_interleave(x + 2 * k, even, odd);
  }
  for (; k < half; ++k) {
    ref::idwt_outputs(approx[k], detail[k], approx[k - 1], detail[k - 1], &x[2 * k],
                      &x[2 * k + 1]);
  }
}

void idwt_step_split_avx2(const double* approx, const double* detail, std::size_t half,
                          double* x) {
  if (half < 8) {
    ref::idwt_step_split(approx, detail, half, x);
    return;
  }
  const Db4Taps f;
  const std::size_t km0 = half - 1;
  ref::idwt_outputs(approx[0], detail[0], approx[km0], detail[km0], &x[0], &x[half]);
  std::size_t k = 1;
  for (; k + 4 <= half; k += 4) {
    __m256d even;
    __m256d odd;
    idwt_outputs_vec(f, _mm256_loadu_pd(approx + k), _mm256_loadu_pd(detail + k),
                     _mm256_loadu_pd(approx + k - 1), _mm256_loadu_pd(detail + k - 1), &even,
                     &odd);
    _mm256_storeu_pd(x + k, even);
    _mm256_storeu_pd(x + half + k, odd);
  }
  ref::idwt_step_split_from(approx, detail, half, k, x);
}

constexpr Ops kAvx2Ops = {
    "avx2",
    dot_avx2,
    nrm2_sq_avx2,
    axpy_avx2,
    xpby_avx2,
    momentum_avx2,
    fista_step_avx2,
    dwt_step_avx2,
    idwt_step_avx2,
    dwt_step_split_avx2,
    idwt_step_split_avx2,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace wbsn::kern

#else  // !WBSN_KERN_HAVE_AVX2

namespace wbsn::kern {

const Ops* avx2_ops() { return nullptr; }

}  // namespace wbsn::kern

#endif
