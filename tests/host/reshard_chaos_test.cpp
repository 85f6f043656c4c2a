// Deterministic chaos harness for live resharding — the proof behind the
// coordinator's elasticity guarantee, run over both shard links: the
// in-process EngineLink and the production SocketLink (wbsn-wire to
// in-process ShardServers).
//
// A seeded RNG interleaves submit / poll / drain / resize operations into
// a schedule that walks the coordinator through shard counts drawn from
// {1, 2, 3, 4, 8} while fleet traffic is in flight.  Each schedule is
// executed twice against fresh shards and the two outcomes must be
// *identical*: every window's reconstruction bitwise-equal (and equal to
// the serial single-engine reference), every composite ticket equal, and
// the aggregate counters (submitted / completed / shed / rejected) equal
// and conserved — topology changes may move work between shards, but
// they may not invent, lose, or alter a single window or count.
//
// Three resize shapes are required by the acceptance bar — grow, shrink,
// and grow-then-shrink — each run with 1 and N worker threads per shard
// (plus the serial inline mode); a serial overload schedule checks that
// rejection accounting also survives topology changes; a parked-results
// schedule checks every moved patient's own books; and two plans that keep
// a live shard at another index check tickets and books across the shift.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host/coordinator.hpp"
#include "shard_links.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Small windows and a truncated solver keep 36 full chaos runs affordable
// (also under TSan) while still exercising every reshard transition.
EngineConfig fast_engine(int threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  return cfg;
}

std::vector<CompressedWindow> fleet_traffic(int patients, int beats_per_patient) {
  std::vector<CompressedWindow> traffic;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats_per_patient}};
    sig::Rng rng(0xC4A05000ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    RecordCompressionConfig compression;
    compression.window_samples = 128;
    compression.cr_percent = 50.0;
    auto windows = compress_record(record, static_cast<std::uint32_t>(p), compression);
    traffic.insert(traffic.end(), std::make_move_iterator(windows.begin()),
                   std::make_move_iterator(windows.end()));
  }
  // A deterministic third of the traffic rides the urgent lane so the
  // reshard protocol is exercised across both priority lanes.
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (i % 3 == 0) traffic[i].priority = cs::WindowPriority::kUrgent;
  }
  return traffic;
}

/// The serial single-engine reconstruction of `traffic`, keyed by window.
std::map<WindowKey, WindowResult> serial_reference(const std::vector<CompressedWindow>& traffic) {
  std::map<WindowKey, WindowResult> reference;
  ReconstructionEngine serial(fast_engine(0));
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
  }
  return reference;
}

struct Op {
  enum class Kind { kSubmit, kPoll, kDrain, kResize };
  Kind kind = Kind::kSubmit;
  std::size_t window = 0;  ///< kSubmit: index into the traffic batch.
  int shards = 0;          ///< kResize: the new shard count.
};

/// Builds a schedule: the traffic in seeded-shuffled submission order,
/// polls and occasional drains sprinkled between submissions, and the
/// scenario's resizes pinned at fixed fractions of submission progress so
/// every replay (and every thread count) sees the identical op sequence.
std::vector<Op> make_schedule(std::size_t windows, std::uint64_t seed,
                              const std::vector<std::pair<double, int>>& resizes) {
  std::vector<std::size_t> order(windows);
  for (std::size_t i = 0; i < windows; ++i) order[i] = i;
  sig::Rng rng(seed);
  for (std::size_t i = windows; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  std::vector<Op> ops;
  std::size_t next_resize = 0;
  for (std::size_t submitted = 0; submitted < windows; ++submitted) {
    while (next_resize < resizes.size() &&
           static_cast<double>(submitted) >=
               resizes[next_resize].first * static_cast<double>(windows)) {
      ops.push_back({Op::Kind::kResize, 0, resizes[next_resize].second});
      ++next_resize;
    }
    ops.push_back({Op::Kind::kSubmit, order[submitted], 0});
    const double coin = rng.uniform();
    if (coin < 0.30) ops.push_back({Op::Kind::kPoll, 0, 0});
    if (coin >= 0.95) ops.push_back({Op::Kind::kDrain, 0, 0});
  }
  for (; next_resize < resizes.size(); ++next_resize) {
    ops.push_back({Op::Kind::kResize, 0, resizes[next_resize].second});
  }
  return ops;
}

/// Everything observable about one schedule execution.  Two replays of
/// the same schedule must produce equal Outcomes, field for field.
struct Outcome {
  std::map<WindowKey, WindowResult> results;
  std::vector<std::uint64_t> tickets;       ///< Per submit op, in op order.
  std::vector<std::size_t> moved_per_resize;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint32_t final_epoch = 0;
  std::size_t final_shards = 0;
};

/// Runs `ops` on a fresh coordinator over `kind` links.  `blocking`
/// submits wait out backpressure; otherwise a full shard rejects (the
/// ticket is recorded as 0).
Outcome run_schedule(const std::vector<CompressedWindow>& traffic, const std::vector<Op>& ops,
                     LinkKind kind, const EngineConfig& engine, int initial_shards,
                     bool blocking) {
  LinkFactory shards(kind, engine);
  Coordinator coord;
  shards.open(coord, static_cast<std::size_t>(initial_shards));

  Outcome out;
  const auto keep = [&out](WindowResult&& result) {
    const WindowKey key{result.patient_id, result.window_index};
    EXPECT_TRUE(out.results.emplace(key, std::move(result)).second)
        << "duplicate result for patient " << key.first << " window " << key.second;
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kSubmit: {
        CompressedWindow copy = traffic[op.window];
        out.tickets.push_back(coord.submit(copy, blocking).value_or(0));
        break;
      }
      case Op::Kind::kPoll:
        if (auto result = coord.poll()) keep(std::move(*result));
        break;
      case Op::Kind::kDrain:
        for (auto&& result : coord.drain()) keep(std::move(result));
        break;
      case Op::Kind::kResize:
        out.moved_per_resize.push_back(
            shards.resize(coord, static_cast<std::size_t>(op.shards)).moved_patients);
        break;
    }
  }
  for (auto&& result : coord.drain()) keep(std::move(result));

  const ShardCounters books = coord.aggregate();
  out.submitted = books.submitted;
  out.completed = books.completed;
  out.shed = books.shed_routine + books.shed_urgent;
  out.rejected = books.rejected;
  out.final_epoch = coord.epoch();
  out.final_shards = coord.shard_count();

  // Quiesced conservation: nothing unsolved, nothing parked, and every
  // completed window retrieved exactly once.
  EXPECT_EQ(books.unsolved, 0u);
  EXPECT_EQ(books.ready, 0u);
  EXPECT_EQ(books.retrieved, books.completed) << "retrieves must account for every completion";
  EXPECT_EQ(out.completed, out.results.size());
  return out;
}

void expect_equal_outcomes(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [key, expected] : a.results) {
    const auto found = b.results.find(key);
    ASSERT_NE(found, b.results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "replay diverged for patient " << key.first << " window " << key.second;
    EXPECT_EQ(found->second.iterations, expected.iterations);
    EXPECT_EQ(found->second.ticket, expected.ticket) << "ticket assignment must replay";
  }
  EXPECT_EQ(a.tickets, b.tickets);
  EXPECT_EQ(a.moved_per_resize, b.moved_per_resize);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.final_shards, b.final_shards);
}

class ReshardChaos : public ::testing::Test {
 protected:
  void run_scenario(std::uint64_t seed, int initial_shards,
                    const std::vector<std::pair<double, int>>& resizes) {
    const auto traffic = fleet_traffic(/*patients=*/8, /*beats_per_patient=*/4);
    ASSERT_GE(traffic.size(), 16u);

    // The one ground truth every cell of the (link x threads x replay) grid
    // must reproduce bit for bit.
    const auto reference = serial_reference(traffic);
    ASSERT_EQ(reference.size(), traffic.size());

    const auto ops = make_schedule(traffic.size(), seed, resizes);
    for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
      for (const int threads : {0, 1, 3}) {
        SCOPED_TRACE(link_name(kind) + ", threads=" + std::to_string(threads));
        const auto first =
            run_schedule(traffic, ops, kind, fast_engine(threads), initial_shards, true);
        const auto second =
            run_schedule(traffic, ops, kind, fast_engine(threads), initial_shards, true);

        ASSERT_EQ(first.results.size(), traffic.size());
        EXPECT_EQ(first.final_epoch, resizes.size());
        // Blocking submits: nothing shed or rejected, everything completed.
        EXPECT_EQ(first.completed, first.submitted);
        EXPECT_EQ(first.submitted, traffic.size());
        EXPECT_EQ(first.shed, 0u);
        EXPECT_EQ(first.rejected, 0u);
        {
          SCOPED_TRACE("replay determinism");
          expect_equal_outcomes(first, second);
        }
        for (const auto& [key, expected] : reference) {
          const auto found = first.results.find(key);
          ASSERT_NE(found, first.results.end());
          EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
              << "patient " << key.first << " window " << key.second
              << " differs from the serial reference";
          EXPECT_EQ(found->second.iterations, expected.iterations);
          EXPECT_EQ(found->second.snr_db, expected.snr_db);
        }
      }
    }
  }
};

TEST_F(ReshardChaos, GrowSchedule) {
  run_scenario(0xC4A05001ULL, /*initial_shards=*/1,
               {{0.25, 2}, {0.50, 4}, {0.75, 8}});
}

TEST_F(ReshardChaos, ShrinkSchedule) {
  run_scenario(0xC4A05002ULL, /*initial_shards=*/8,
               {{0.25, 4}, {0.50, 2}, {0.75, 1}});
}

TEST_F(ReshardChaos, GrowThenShrinkSchedule) {
  run_scenario(0xC4A05003ULL, /*initial_shards=*/2,
               {{0.20, 3}, {0.45, 8}, {0.70, 3}, {0.90, 2}});
}

// Overload under topology change: serial shards with tiny admission and
// non-blocking submits.  In process, progress happens only at poll/drain
// ops, so the reject pattern is fully deterministic — and must replay
// exactly.  Over the wire a serial shard solves whenever a POLL_MANY
// arrives, which depends on when earlier answers landed, so there the
// pattern varies; on both links attempts must be conserved across rejects
// and completions even as shards come and go.
TEST_F(ReshardChaos, RejectAccountingSurvivesResizes) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/4);
  const auto ops =
      make_schedule(traffic.size(), 0xC4A05004ULL, {{0.30, 3}, {0.60, 8}, {0.85, 2}});
  EngineConfig engine = fast_engine(0);
  engine.queue_capacity = 2;

  for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
    SCOPED_TRACE(link_name(kind));
    const auto first = run_schedule(traffic, ops, kind, engine, 2, /*blocking=*/false);
    // Attempt conservation: every submission either completed or was
    // rejected at admission, across three topology changes.
    EXPECT_EQ(first.completed + first.rejected, traffic.size());
    EXPECT_EQ(first.submitted, first.completed);
    EXPECT_EQ(first.shed, 0u);
    if (kind != LinkKind::kEngine) continue;
    EXPECT_GT(first.rejected, 0u) << "the schedule must actually hit backpressure";
    const auto second = run_schedule(traffic, ops, kind, engine, 2, /*blocking=*/false);
    SCOPED_TRACE("overload replay determinism");
    expect_equal_outcomes(first, second);
  }
}

// A patient moved while its results are still parked on the old owner
// must settle its own books: the coordinator sweeps the old owner's
// parked results between the drain and the SLO extraction, so every
// retrieve lands in the history that moves.  Grow then shrink, threaded
// and serial shards, on both links: once drained, every patient's
// per-patient state shows submitted == retrieved + shed (nothing left in
// flight).
TEST_F(ReshardChaos, MovedPatientsSettleParkedResults) {
  const auto traffic = fleet_traffic(/*patients=*/12, /*beats_per_patient=*/3);
  for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
    for (const int threads : {0, 2}) {
      SCOPED_TRACE(link_name(kind) + ", threads=" + std::to_string(threads));
      LinkFactory shards(kind, fast_engine(threads));
      Coordinator coord;
      shards.open(coord, 2);
      const auto park_everything = [&] {
        for (const auto& window : traffic) {
          CompressedWindow copy = window;
          ASSERT_TRUE(coord.submit(copy, /*blocking=*/true).has_value());
        }
        // Threaded shards finish on their own; nothing is polled, so every
        // result stays parked on the shard that solved it.
        while (threads > 0 && coord.aggregate().unsolved > 0) std::this_thread::yield();
      };

      park_everything();
      const auto grow = shards.resize(coord, 3);
      park_everything();
      const auto shrink = shards.resize(coord, 1);
      EXPECT_GT(grow.moved_patients + shrink.moved_patients, 0u);
      EXPECT_EQ(coord.drain().size(), 2 * traffic.size());

      std::set<std::uint32_t> patients;
      for (const auto& window : traffic) patients.insert(window.patient_id);
      for (const std::uint32_t patient : patients) {
        const auto state = coord.patient_slo_state(patient);
        ASSERT_TRUE(state.has_value()) << "patient " << patient;
        EXPECT_EQ(state->submitted, state->retrieved + state->shed_routine + state->shed_urgent)
            << "patient " << patient << " keeps windows in flight after the drain";
        EXPECT_EQ(state->completed, state->submitted) << "patient " << patient;
      }
    }
  }
}

// A live shard kept at another index: the reorder {0,1,2} -> {1,2,0}
// (every patient's owning link changes while no shard retires) and then
// the shrink {0,1,2} -> {1} (the survivor moves to index 0).  Tickets
// compose the index a window was submitted to, so each result must still
// carry the ticket its submit returned; results, the conservation
// identity and every patient's own books must survive both plans.
TEST_F(ReshardChaos, KeptShardAtAnotherIndexConservesEverything) {
  const auto traffic = fleet_traffic(/*patients=*/8, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);
  ASSERT_EQ(reference.size(), traffic.size());
  std::map<std::uint32_t, std::uint64_t> per_patient;
  for (const auto& window : traffic) ++per_patient[window.patient_id];

  for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
    for (const int threads : {0, 2}) {
      SCOPED_TRACE(link_name(kind) + ", threads=" + std::to_string(threads));
      LinkFactory shards(kind, fast_engine(threads));
      Coordinator coord;
      shards.open(coord, 3);

      std::map<WindowKey, std::uint64_t> tickets;
      std::map<WindowKey, WindowResult> results;
      const auto keep = [&results](WindowResult&& result) {
        const WindowKey key{result.patient_id, result.window_index};
        EXPECT_TRUE(results.emplace(key, std::move(result)).second)
            << "duplicate result for patient " << key.first << " window " << key.second;
      };
      std::size_t next = 0;
      const auto submit_until = [&](std::size_t end) {
        for (; next < end; ++next) {
          CompressedWindow copy = traffic[next];
          const auto ticket = coord.submit(copy, /*blocking=*/true);
          ASSERT_TRUE(ticket.has_value()) << "window " << next;
          tickets[{traffic[next].patient_id, traffic[next].window_index}] = *ticket;
          if (next % 2 == 0) {
            if (auto result = coord.poll()) keep(std::move(*result));
          }
        }
      };

      submit_until(traffic.size() / 3);
      const auto reorder = shards.replan(coord, {1, 2, 0});
      EXPECT_EQ(reorder.retired_shards, 0u);
      EXPECT_GT(reorder.moved_patients, 0u);
      submit_until(2 * traffic.size() / 3);
      const auto shrink = shards.replan(coord, {1});
      EXPECT_EQ(shrink.retired_shards, 2u);
      EXPECT_EQ(coord.shard_count(), 1u);
      submit_until(traffic.size());
      for (auto&& result : coord.drain()) keep(std::move(result));

      ASSERT_EQ(results.size(), traffic.size());
      for (const auto& [key, expected] : reference) {
        const auto found = results.find(key);
        ASSERT_NE(found, results.end());
        EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
            << "patient " << key.first << " window " << key.second
            << " differs from the serial reference";
        EXPECT_EQ(found->second.iterations, expected.iterations);
        EXPECT_EQ(found->second.ticket, tickets.at(key))
            << "patient " << key.first << " window " << key.second
            << " came back under another ticket than its submit returned";
      }

      const ShardCounters books = coord.aggregate();
      EXPECT_EQ(books.submitted, traffic.size());
      EXPECT_EQ(books.submitted,
                books.completed + books.shed_routine + books.shed_urgent + books.rejected +
                    books.lost);
      EXPECT_EQ(books.completed, traffic.size());
      EXPECT_EQ(books.retrieved, books.completed);
      EXPECT_EQ(books.unsolved, 0u);
      EXPECT_EQ(books.ready, 0u);

      for (const auto& [patient, submitted] : per_patient) {
        const auto state = coord.patient_slo_state(patient);
        ASSERT_TRUE(state.has_value()) << "patient " << patient << " lost their tracker";
        EXPECT_EQ(state->submitted, submitted) << "patient " << patient;
        EXPECT_EQ(state->completed, submitted) << "patient " << patient;
        EXPECT_EQ(state->retrieved, submitted) << "patient " << patient;
      }
    }
  }
}

}  // namespace
}  // namespace wbsn::host
