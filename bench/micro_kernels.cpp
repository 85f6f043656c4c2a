// google-benchmark micro-benchmarks, two families:
//
//  * node-side kernels: host-side throughput sanity checks (the energy
//    claims use the OpCount model, not host timings, but regressions here
//    catch algorithmic blow-ups);
//  * host-side reconstruction hot path: the kern-layer kernels
//    (apply/adjoint/DWT/FISTA) benchmarked per backend — benchmarks named
//    .../avx2:0 and .../avx2:1 pin the dispatch, so the pair measures the
//    SIMD speedup directly — plus the streaming engine's submit/poll
//    round trip.  AVX2 variants report "AVX2 unavailable" on hosts
//    without it.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "cls/random_projection.hpp"
#include "cs/fista.hpp"
#include "cs/pipeline.hpp"
#include "cs/sensing_matrix.hpp"
#include "dsp/morphology.hpp"
#include "dsp/sliding_minmax.hpp"
#include "dsp/wavelet.hpp"
#include "host/alloc_meter.hpp"
#include "host/payload_pool.hpp"
#include "host/reconstruction_engine.hpp"
#include "kern/backend.hpp"
#include "sig/adc.hpp"
#include "sig/ecg_synth.hpp"

namespace {

using namespace wbsn;

std::vector<std::int32_t> test_signal(std::size_t n) {
  sig::SynthConfig cfg;
  cfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 1 + static_cast<int>(n / 200)}};
  cfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kModerate);
  sig::Rng rng(1);
  const auto rec = synthesize_ecg(cfg, rng);
  auto counts = sig::quantize(rec.leads[0], sig::AdcConfig{});
  counts.resize(n, 0);
  return counts;
}

void BM_SlidingMinMax(benchmark::State& state) {
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::sliding_min(x, 51));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingMinMax)->Arg(512)->Arg(4096);

void BM_MorphologicalFilter(benchmark::State& state) {
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::morphological_filter(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MorphologicalFilter)->Arg(512)->Arg(4096);

void BM_SwtSpline(benchmark::State& state) {
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::swt_spline(x, 4));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwtSpline)->Arg(512)->Arg(4096);

void BM_DwtForward(benchmark::State& state) {
  const auto counts = test_signal(static_cast<std::size_t>(state.range(0)));
  std::vector<double> x(counts.begin(), counts.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dwt_forward(x, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DwtForward)->Arg(512)->Arg(4096);

void BM_CsEncode(benchmark::State& state) {
  const auto x = test_signal(512);
  sig::Rng rng(2);
  const auto phi = cs::SensingMatrix::make_sparse_binary(
      static_cast<std::size_t>(state.range(0)), 512, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phi.encode(x));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_CsEncode)->Arg(128)->Arg(256);

void BM_RandomProjection(benchmark::State& state) {
  const auto x = test_signal(180);
  sig::Rng rng(3);
  const auto m = cls::PackedTernaryMatrix::make_achlioptas(
      16, 180, static_cast<double>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.project(x));
  }
  state.SetItemsProcessed(state.iterations() * 180);
}
BENCHMARK(BM_RandomProjection)->Arg(1)->Arg(3)->Arg(8);

// --- kern-layer backends: scalar vs AVX2 -----------------------------------

/// Pins the requested backend for one benchmark run; restores the default
/// dispatch afterwards so unrelated benchmarks measure the production
/// configuration.
class BackendPin {
 public:
  BackendPin(benchmark::State& state, kern::Backend backend)
      : previous_(kern::active_backend()) {
    restore_ = kern::set_backend(backend);
    if (!restore_) state.SkipWithError("AVX2 unavailable on this host/build");
  }
  ~BackendPin() {
    if (restore_) kern::set_backend(previous_);
  }
  BackendPin(const BackendPin&) = delete;
  BackendPin& operator=(const BackendPin&) = delete;

 private:
  kern::Backend previous_;
  bool restore_ = false;
};

kern::Backend backend_of(const benchmark::State& state) {
  return state.range(0) == 0 ? kern::Backend::kScalar : kern::Backend::kAvx2;
}

constexpr std::size_t kWindow = 512;  ///< Paper window: ~2 s at 250 Hz.
const std::size_t kRowsCr50 = cs::rows_for_cr(50.0, kWindow);

cs::SensingMatrix bench_matrix() {
  sig::Rng rng(7);
  return cs::SensingMatrix::make_sparse_binary(kRowsCr50, kWindow, 4, rng);
}

std::vector<double> bench_window(std::uint64_t seed) {
  sig::Rng rng(seed);
  std::vector<double> x(kWindow);
  for (auto& v : x) v = rng.normal();
  return x;
}

/// Operator benches run the allocation-free apply_into /
/// apply_adjoint_into on preallocated buffers, so they time the kernel
/// alone.  Items are the operator's non-zeros.
void run_apply(benchmark::State& state, const cs::SensingMatrix& phi) {
  const auto x = bench_window(11);
  std::vector<double> y(phi.rows());
  for (auto _ : state) {
    phi.apply_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(phi.nonzeros()));
}

void run_apply_adjoint(benchmark::State& state, const cs::SensingMatrix& phi) {
  const auto window = bench_window(12);
  const std::vector<double> y(window.begin(), window.begin() + static_cast<long>(phi.rows()));
  std::vector<double> x(phi.cols());
  for (auto _ : state) {
    phi.apply_adjoint_into(y, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(phi.nonzeros()));
}

/// The steady d = 4 operator.  One implementation serves both backends;
/// the avx2 argument stays so these names keep their baseline entries.
void BM_KernApply(benchmark::State& state) {
  BackendPin pin(state, backend_of(state));
  run_apply(state, bench_matrix());
}
BENCHMARK(BM_KernApply)->ArgName("avx2")->Arg(0)->Arg(1);

void BM_KernApplyAdjoint(benchmark::State& state) {
  BackendPin pin(state, backend_of(state));
  run_apply_adjoint(state, bench_matrix());
}
BENCHMARK(BM_KernApplyAdjoint)->ArgName("avx2")->Arg(0)->Arg(1);

/// Sparse binary operators of another column weight d (the sparsity
/// ablation sweeps d): the same row gather for apply, the entry-list loop
/// for the adjoint.
cs::SensingMatrix weight_d_matrix(std::size_t d) {
  sig::Rng rng(8);
  return cs::SensingMatrix::make_sparse_binary(kRowsCr50, kWindow, d, rng);
}

void BM_KernApplyGeneric(benchmark::State& state, std::size_t d) {
  run_apply(state, weight_d_matrix(d));
}
BENCHMARK_CAPTURE(BM_KernApplyGeneric, d8, 8);

void BM_KernApplyAdjointGeneric(benchmark::State& state, std::size_t d) {
  run_apply_adjoint(state, weight_d_matrix(d));
}
BENCHMARK_CAPTURE(BM_KernApplyAdjointGeneric, d8, 8);

void BM_KernDwtForward(benchmark::State& state) {
  BackendPin pin(state, backend_of(state));
  const auto x = bench_window(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dwt_forward(x, 5));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_KernDwtForward)->ArgName("avx2")->Arg(0)->Arg(1);

void BM_KernDwtInverse(benchmark::State& state) {
  BackendPin pin(state, backend_of(state));
  const auto coeffs = dsp::dwt_forward(bench_window(15), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dwt_inverse(coeffs, 5));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_KernDwtInverse)->ArgName("avx2")->Arg(0)->Arg(1);

/// Whole-solve view: one 512-sample window at CR 50 %, truncated solver
/// (enough iterations to exercise every kernel family in proportion).
/// The stopping test is off, so every repetition runs exactly 50
/// iterations and the rate stays a kernel measure, not a convergence one.
void BM_KernFistaWindow(benchmark::State& state) {
  BackendPin pin(state, backend_of(state));
  const auto phi = bench_matrix();
  const auto y = phi.apply(bench_window(16));
  cs::FistaConfig cfg;
  cfg.max_iterations = 50;
  cfg.tolerance = 0.0;
  cfg.debias_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::fista_reconstruct(phi, y, cfg));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_KernFistaWindow)->ArgName("avx2")->Arg(0)->Arg(1);

/// Windows each BM_FistaSolvePerWindow iteration solves; divisible by
/// every width it measures, so each width does identical work.
constexpr std::size_t kSolvePool = 96;

/// Steady-shaped measurements: one synthesized low-noise ECG record cut
/// into 512-sample windows, ADC-quantized and encoded at CR 50.
std::vector<std::vector<double>> steady_measurements(const cs::SensingMatrix& phi) {
  sig::SynthConfig cfg;
  cfg.num_leads = 1;
  cfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 320}};  // > kSolvePool windows.
  cfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
  sig::Rng rng(17);
  const auto rec = synthesize_ecg(cfg, rng);
  std::vector<std::vector<double>> ys;
  for (std::size_t w = 0; w < kSolvePool; ++w) {
    const std::span<const double> x(rec.leads[0].data() + w * kWindow, kWindow);
    ys.push_back(cs::encode_window(phi, x, sig::AdcConfig{}, false).measurements);
  }
  return ys;
}

/// Per-window cost of a production solve (default FistaConfig: each
/// window stops at its own convergence iteration, then debias), one
/// window per solve through one reused workspace, as an engine worker
/// runs it.  Items are windows; time_per_window is the CPU time per
/// window.
void BM_FistaSolvePerWindow(benchmark::State& state) {
  const auto phi = bench_matrix();
  const auto ys = steady_measurements(phi);
  const cs::FistaConfig cfg;
  cs::FistaWorkspace ws;
  std::vector<double> signal(kWindow);
  for (auto _ : state) {
    for (const auto& y : ys) {
      cs::fista_solve_into(phi, y, cfg, ws, signal);
      benchmark::DoNotOptimize(signal.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSolvePool));
  state.counters["time_per_window"] = benchmark::Counter(
      static_cast<double>(kSolvePool),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FistaSolvePerWindow);

// --- SLO tracker hot path ---------------------------------------------------

/// One full record cycle (submit -> complete -> retrieve): the per-window
/// accounting cost workers pay on top of every solve.  Latencies walk the
/// histogram's octaves so the bucket-index path is not branch-predicted
/// into irrelevance.
void BM_SloTrackerRecord(benchmark::State& state) {
  host::SloTracker tracker(host::SloConfig{.deadline_ms = 2048.0});
  double latency_ms = 0.25;
  for (auto _ : state) {
    tracker.on_submit();
    tracker.on_complete(latency_ms);
    tracker.on_retrieve();
    latency_ms = latency_ms < 4000.0 ? latency_ms * 1.618 : 0.25;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SloTrackerRecord);

/// Reading the full 320-bucket histogram and folding it into quantiles —
/// the cost of one monitoring read (fabric aggregation reads one state per
/// shard and summarizes their sum).
void BM_SloTrackerSnapshot(benchmark::State& state) {
  host::SloTracker tracker(host::SloConfig{.deadline_ms = 2048.0});
  sig::Rng rng(21);
  for (int i = 0; i < 100000; ++i) {
    tracker.on_submit();
    // Log-uniform latencies from ~30 us to ~20 s populate every octave.
    tracker.on_complete(0.03 * std::pow(10.0, rng.uniform() * 5.8));
    tracker.on_retrieve();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SloTrackerSnapshot);

// --- streaming engine hot path ----------------------------------------------

/// submit -> poll round trip with a near-zero-cost solve: measures the
/// engine's per-window overhead (ticketing, matrix-cache hit, queue push,
/// SLO recording, completion publish) rather than FISTA itself.
void BM_EngineSubmitPoll(benchmark::State& state) {
  host::EngineConfig cfg;
  cfg.threads = 0;  // Solve inline: no cross-thread wakeup noise.
  cfg.fista.max_iterations = 1;
  cfg.fista.debias_iterations = 0;
  host::ReconstructionEngine engine(cfg);

  host::CompressedWindow window;
  window.patient_id = 1;
  window.matrix_seed = 42;
  window.window_samples = 128;
  window.ones_per_column = 4;
  window.measurements = bench_window(17);
  window.measurements.resize(cs::rows_for_cr(50.0, window.window_samples));

  for (auto _ : state) {
    host::CompressedWindow copy = window;
    benchmark::DoNotOptimize(engine.try_submit(std::move(copy)));
    benchmark::DoNotOptimize(engine.poll());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSubmitPoll);

/// Same round trip through the pooled hot path: window shells come from a
/// PayloadPool, the engine recycles their buffers after the solve, and the
/// poller recycles the result signal.  With -DWBSN_ALLOC_COUNTER=ON the
/// allocs_per_window counter reports the measured steady-state heap rate
/// (the alloc-gate asserts it is exactly zero in alloc_smoke).
void BM_EngineSubmitPollPooled(benchmark::State& state) {
  auto pool = std::make_shared<host::PayloadPool>();
  host::EngineConfig cfg;
  cfg.threads = 0;  // Solve inline: no cross-thread wakeup noise.
  cfg.fista.max_iterations = 1;
  cfg.fista.debias_iterations = 0;
  cfg.payload_pool = pool;
  host::ReconstructionEngine engine(cfg);

  const std::vector<double> measurements = [] {
    auto m = bench_window(17);
    m.resize(cs::rows_for_cr(50.0, 128));
    return m;
  }();

  // One warm lap primes the pool, the matrix cache, and the solver arena
  // so the measured loop sees the steady state.
  const auto lap = [&] {
    host::CompressedWindow window = pool->acquire_window();
    window.patient_id = 1;
    window.matrix_seed = 42;
    window.window_samples = 128;
    window.ones_per_column = 4;
    window.measurements.assign(measurements.begin(), measurements.end());
    benchmark::DoNotOptimize(engine.try_submit(std::move(window)));
    auto result = engine.poll();
    benchmark::DoNotOptimize(result);
    if (result) pool->recycle(std::move(*result));
  };
  lap();

  const std::uint64_t allocs_before = host::alloc_count();
  for (auto _ : state) lap();
  const std::uint64_t allocs_after = host::alloc_count();

  state.SetItemsProcessed(state.iterations());
  if (host::alloc_counter_enabled() && state.iterations() > 0) {
    state.counters["allocs_per_window"] = benchmark::Counter(
        static_cast<double>(allocs_after - allocs_before) /
        static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_EngineSubmitPollPooled);

}  // namespace

BENCHMARK_MAIN();
