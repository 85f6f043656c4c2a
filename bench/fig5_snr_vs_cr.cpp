// Figure 5 reproduction: averaged reconstruction SNR over all records vs
// compression ratio, single-lead CS vs joint multi-lead CS.
//
// Paper's result: SNR decreases with CR; the 20 dB "good reconstruction"
// level is crossed at CR = 65.9 % (single-lead) and CR = 72.7 %
// (multi-lead) — joint decoding tolerates ~7 points more compression.
// Absolute dB values depend on the data (ours is synthetic; see DESIGN.md)
// but the ordering and the size of the gap are the reproduced claims.
//
// The standing rule for solver changes, checked here: every point of the
// production solve (default stopping tolerance, debias gate) must stay
// within kMarginDb of the full-budget solve (tolerance 0: every window
// runs all 250 iterations), single- and multi-lead.  The exit code is
// non-zero when a point falls further below, or when joint decoding stops
// beating single-lead decoding.
#include <cstdio>
#include <vector>

#include "cs/pipeline.hpp"
#include "sig/dataset.hpp"

namespace {

constexpr double kMarginDb = 0.25;

/// Mean over the records of each record's mean window SNR at `cr`.
double mean_snr_db(const std::vector<wbsn::sig::Record>& records, double cr,
                   const wbsn::cs::CsPipelineConfig& cfg, bool multi_lead) {
  double acc = 0.0;
  for (const auto& rec : records) {
    acc += multi_lead ? run_multi_lead_cs(rec, cr, cfg).mean_snr_db
                      : run_single_lead_cs(rec.leads[0], cr, cfg).mean_snr_db;
  }
  return acc / static_cast<double>(records.size());
}

}  // namespace

int main() {
  using namespace wbsn;

  // Clean records: Figure 5 measures *compression* loss, and broadband
  // noise (which is not wavelet-sparse) would put a hard ceiling on the
  // reconstruction SNR regardless of CR, masking the crossings.  Noise
  // robustness of the processing chain is evaluated separately
  // (tab_delineation_accuracy, abl_baseline_methods).
  sig::DatasetSpec spec;
  spec.num_records = 6;
  spec.beats_per_record = 80;   // ~60-90 s per record.
  spec.noise = sig::NoiseLevel::kNone;
  const auto records = sig::make_sinus_dataset(spec);

  cs::CsPipelineConfig cfg;
  cfg.fista.lambda_rel = 0.003;
  cfg.fista.max_iterations = 250;
  cs::CsPipelineConfig full = cfg;
  full.fista.tolerance = 0.0;

  const std::vector<double> crs = {30, 40, 50, 55, 60, 65, 70, 75, 80, 85, 90};
  std::vector<double> snr_single;
  std::vector<double> snr_multi;
  std::vector<double> full_single;
  std::vector<double> full_multi;

  std::printf("== Figure 5: averaged SNR over all records vs compression ratio ==\n");
  std::printf("(full: tolerance 0, all 250 iterations; Δ = production - full)\n");
  std::printf("%-8s %-16s %-12s %-8s %-16s %-12s %-8s\n", "CR [%]", "Single-lead [dB]",
              "single full", "Δ", "Multi-lead [dB]", "multi full", "Δ");
  bool within_margin = true;
  for (double cr : crs) {
    snr_single.push_back(mean_snr_db(records, cr, cfg, /*multi_lead=*/false));
    full_single.push_back(mean_snr_db(records, cr, full, /*multi_lead=*/false));
    snr_multi.push_back(mean_snr_db(records, cr, cfg, /*multi_lead=*/true));
    full_multi.push_back(mean_snr_db(records, cr, full, /*multi_lead=*/true));
    const double d_single = snr_single.back() - full_single.back();
    const double d_multi = snr_multi.back() - full_multi.back();
    const bool ok = d_single >= -kMarginDb && d_multi >= -kMarginDb;
    within_margin = within_margin && ok;
    std::printf("%-8.1f %-16.2f %-12.2f %-+8.2f %-16.2f %-12.2f %-+8.2f%s\n", cr,
                snr_single.back(), full_single.back(), d_single, snr_multi.back(),
                full_multi.back(), d_multi, ok ? "" : "  [below margin]");
  }

  const double cr_single = cs::cr_at_snr(crs, snr_single, 20.0);
  const double cr_multi = cs::cr_at_snr(crs, snr_multi, 20.0);
  std::printf("\n20 dB operating points (paper: 65.9 %% single / 72.7 %% multi):\n");
  std::printf("  single-lead CS : CR = %.1f %% (full budget %.1f %%)\n", cr_single,
              cs::cr_at_snr(crs, full_single, 20.0));
  std::printf("  multi-lead  CS : CR = %.1f %% (full budget %.1f %%)\n", cr_multi,
              cs::cr_at_snr(crs, full_multi, 20.0));
  std::printf("  joint-decoding gain: +%.1f CR points\n", cr_multi - cr_single);
  std::printf("\nproduction within %.2f dB of the full-budget solve at every point: %s\n",
              kMarginDb, within_margin ? "PASS" : "FAIL");
  return within_margin && cr_multi > cr_single ? 0 : 1;
}
