// Window-level CS compression pipeline and the CR-sweep driver behind
// Figure 5: quantize -> encode on the "node" -> reconstruct on the "host"
// -> score SNR against the pre-compression signal.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cs/fista.hpp"
#include "cs/sensing_matrix.hpp"
#include "sig/adc.hpp"
#include "sig/types.hpp"

namespace wbsn::cs {

struct CsPipelineConfig {
  std::size_t window_samples = 512;   ///< ~2 s at 250 Hz.
  std::size_t ones_per_column = 4;    ///< Sparse-binary density (d).
  std::uint64_t matrix_seed = 0xC0FFEE;
  FistaConfig fista{};
  sig::AdcConfig adc{};
};

/// Result of compressing one record at one compression ratio.
struct CsRunResult {
  double cr_percent = 0.0;
  double mean_snr_db = 0.0;       ///< Averaged over windows (and leads).
  std::size_t windows = 0;
  std::uint64_t encode_ops = 0;   ///< Node-side ops for the whole record.
  std::size_t measurement_count = 0;  ///< Total measurements produced.
};

/// Node-side encoding conventions shared by the Figure 5 pipeline and the
/// host reconstruction engine (host/reconstruction_engine.hpp).  Keeping
/// them in one place is what makes engine output comparable to the
/// pipeline and keeps the node/host matrix-seed contract honest.

/// Per-lead sensing-matrix seed: the node derives lead l's operator from
/// the shared base seed.
inline std::uint64_t lead_matrix_seed(std::uint64_t base_seed, std::size_t lead) {
  return base_seed + lead;
}

/// Scale factor from integer measurements back to physical units (mV).
inline double measurement_scale_mv(const sig::AdcConfig& adc) {
  return adc.lsb_mv() / adc.gain;
}

/// Transport priority of one compressed window.  Part of the node->host
/// window metadata: the node's classifier chain (cls::af_urgent_spans)
/// tags windows that overlap a suspected-AF stretch as urgent, and the
/// host fabric lets urgent windows jump the reconstruction backlog.
/// Priority never changes reconstruction *values* (the determinism
/// contract is priority-blind) — only queueing order and shed policy.
enum class WindowPriority : std::uint8_t {
  kRoutine = 0,  ///< Normal telemetry; may be shed first under overload.
  kUrgent = 1,   ///< Alarm-path window (e.g. AF): jumps the backlog.
};

/// Number of priority lanes (array sizing for per-lane accounting).
inline constexpr std::size_t kPriorityLanes = 2;

inline const char* to_string(WindowPriority p) {
  return p == WindowPriority::kUrgent ? "urgent" : "routine";
}

/// Real-time arrival period of one window: a node sampling at `fs_hz`
/// emits a compressed window every `window_samples / fs_hz` seconds, so
/// this is both the mean inter-arrival time of live traffic and the
/// natural per-window latency deadline — the decoder keeps up with a
/// patient iff it reconstructs each window before the next one lands.
inline double window_period_ms(std::size_t window_samples, double fs_hz = sig::kDefaultFs) {
  return 1000.0 * static_cast<double>(window_samples) / fs_hz;
}

/// One window quantized and encoded node-side: measurements already scaled
/// to mV, plus (optionally) the quantized-then-dequantized window — the
/// reference the best lossless link could deliver, used for SNR scoring.
struct EncodedWindow {
  std::vector<double> measurements;
  std::vector<double> reference;
};

EncodedWindow encode_window(const SensingMatrix& phi, std::span<const double> window_mv,
                            const sig::AdcConfig& adc, bool keep_reference = true,
                            dsp::OpCount* ops = nullptr);

/// Node-side half of the closed compression loop: encodes windows at a CR
/// that can change window to window (following host CR hints), caching one
/// sensing matrix per distinct measurement count so chasing a hint never
/// rebuilds an operator per window.  The matrix for a CR is the seeded
/// operator the host rebuilds from the same metadata (matrix_seed,
/// rows_for_cr(cr, n), ones_per_column), so a hinted window reconstructs
/// exactly like a natively-encoded one — the hint changes m, nothing else.
class AdaptiveEncoder {
 public:
  explicit AdaptiveEncoder(CsPipelineConfig cfg = {}) : cfg_(cfg) {}

  /// The cached operator for `cr_percent` (built on first use).
  const SensingMatrix& matrix_for_cr(double cr_percent);

  /// Quantizes and encodes one window at `cr_percent`.
  EncodedWindow encode_at(double cr_percent, std::span<const double> window_mv,
                          bool keep_reference = true);

  const CsPipelineConfig& config() const { return cfg_; }
  std::size_t cached_matrices() const { return matrices_.size(); }

 private:
  CsPipelineConfig cfg_;
  /// Keyed by m = rows_for_cr(cr, window_samples): two CRs that round to
  /// the same measurement count share one operator, matching the host's
  /// matrix cache key.
  std::map<std::size_t, SensingMatrix> matrices_;
};

/// Single-lead CS over `lead` (mV) at the given CR.
CsRunResult run_single_lead_cs(std::span<const double> lead, double cr_percent,
                               const CsPipelineConfig& cfg = {});

/// Joint multi-lead CS over all leads of `record` at the given CR.
CsRunResult run_multi_lead_cs(const sig::Record& record, double cr_percent,
                              const CsPipelineConfig& cfg = {});

/// Independent per-lead CS (the non-joint multi-lead baseline: same data,
/// but each lead reconstructed alone — the ablation for joint recovery).
CsRunResult run_independent_leads_cs(const sig::Record& record, double cr_percent,
                                     const CsPipelineConfig& cfg = {});

/// Finds (by linear interpolation over a sweep) the largest CR at which
/// the mean SNR still reaches `target_snr_db` — the paper quotes these
/// operating points as CR = 65.9 % (single) / 72.7 % (multi).
double cr_at_snr(std::span<const double> crs, std::span<const double> snrs,
                 double target_snr_db);

}  // namespace wbsn::cs
