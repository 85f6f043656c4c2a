// host::Coordinator against a scripted ShardLink: the ack bookkeeping of
// pipelined submits, lost and rejected windows, auto-failover re-routing,
// the failover fold, and the resize migration order — the branches real
// links only reach through timing or a crash, pinned deterministically.
#include "host/coordinator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wbsn::host {
namespace {

/// A shard that answers from memory and logs every verb it receives.
class ScriptedLink final : public ShardLink {
 public:
  ScriptedLink(std::string name, std::vector<std::string>& log) : name_(std::move(name)), log_(log) {}

  bool alive = true;
  bool defer_acks = false;  ///< Hold acks until flush(), like a pipelined wire link.
  SubmitAck::Status verdict = SubmitAck::Status::kAccepted;

  bool submit(CompressedWindow& window, bool) override {
    if (!alive) return false;
    staged_.push_back({verdict, next_ticket_});
    if (verdict == SubmitAck::Status::kAccepted) {
      WindowResult result;
      result.patient_id = window.patient_id;
      result.window_index = window.window_index;
      result.route_tag = window.route_tag;
      result.ticket = next_ticket_;
      parked_.push_back(std::move(result));
      ++accepted_;
    }
    ++next_ticket_;
    return defer_acks || flush();
  }
  bool flush() override {
    for (SubmitAck ack : staged_) {
      if (!alive) ack.status = SubmitAck::Status::kLost;
      acks_.push_back(ack);
    }
    staged_.clear();
    return alive;
  }
  bool poll_many(RingDeque<WindowResult>& out, std::uint64_t) override {
    if (!alive) return false;
    hand_over(out);
    return true;
  }
  bool snapshot(ShardCounters& counters, RingDeque<WindowResult>* sweep) override {
    log_.push_back(name_ + (sweep != nullptr ? ":sweep" : ":snapshot"));
    if (sweep != nullptr) hand_over(*sweep);
    counters = {};
    counters.submitted = counters.completed = accepted_;
    counters.ready = parked_.size();
    counters.retrieved = accepted_ - parked_.size();
    return alive;
  }
  bool drain_patient(std::uint32_t patient_id) override {
    log_.push_back(name_ + ":drain " + std::to_string(patient_id));
    return alive;
  }
  bool extract_slo(std::uint32_t patient_id, std::optional<SloTrackerState>& state) override {
    log_.push_back(name_ + ":extract " + std::to_string(patient_id));
    state = SloTrackerState{};
    state->submitted = 1;
    return alive;
  }
  bool adopt_slo(std::uint32_t patient_id, const SloTrackerState&, bool& adopted) override {
    log_.push_back(name_ + ":adopt " + std::to_string(patient_id));
    adopted = true;
    return alive;
  }
  void close(bool bye) override { log_.push_back(name_ + (bye ? ":bye" : ":close")); }

 private:
  void hand_over(RingDeque<WindowResult>& out) {
    for (auto& result : parked_) out.push_back(std::move(result));
    parked_.clear();
  }

  std::string name_;
  std::vector<std::string>& log_;
  std::vector<SubmitAck> staged_;
  std::vector<WindowResult> parked_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t accepted_ = 0;
};

struct Fleet {
  std::vector<std::string> log;
  std::vector<ScriptedLink*> links;
  Coordinator coord;

  explicit Fleet(std::size_t shards, CoordinatorConfig cfg = {}) : coord(std::move(cfg)) {
    std::vector<std::unique_ptr<ShardLink>> owned;
    for (std::size_t i = 0; i < shards; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      owned.push_back(make(std::move(name)));
    }
    coord.open(std::move(owned));
  }
  std::unique_ptr<ShardLink> make(std::string name) {
    auto link = std::make_unique<ScriptedLink>(std::move(name), log);
    links.push_back(link.get());
    return link;
  }
  /// A patient id the current ring places on `shard`.
  std::uint32_t patient_on(std::size_t shard) const {
    std::uint32_t id = 0;
    while (coord.owner(id) != shard) ++id;
    return id;
  }
};

CompressedWindow window_for(std::uint32_t patient, std::uint32_t index = 0) {
  CompressedWindow window;
  window.patient_id = patient;
  window.window_index = index;
  return window;
}

TEST(Coordinator, PipelinedTicketsResolveInSubmissionOrderAcrossShards) {
  Fleet fleet(2);
  for (ScriptedLink* link : fleet.links) link->defer_acks = true;
  const std::uint32_t a = fleet.patient_on(0);
  const std::uint32_t b = fleet.patient_on(1);
  for (const std::uint32_t patient : {a, b, a, b, b}) {
    EXPECT_TRUE(fleet.coord.submit_pipelined(window_for(patient)));
  }
  const auto tickets = fleet.coord.flush_submits();
  ASSERT_EQ(tickets.size(), 5u);
  const std::size_t shard_of[] = {0, 1, 0, 1, 1};
  const std::uint64_t local_of[] = {0, 0, 1, 1, 2};
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].has_value()) << "window " << i;
    EXPECT_EQ(*tickets[i], Coordinator::compose_ticket(0, shard_of[i], local_of[i]));
  }
  EXPECT_TRUE(fleet.coord.flush_submits().empty()) << "each window resolves exactly once";
  // Results come back under the ticket their submission returned.
  std::size_t polled = 0;
  while (auto result = fleet.coord.poll()) {
    EXPECT_EQ(Coordinator::ticket_shard(result->ticket), fleet.coord.owner(result->patient_id));
    ++polled;
  }
  EXPECT_EQ(polled, 5u);
}

TEST(Coordinator, RejectedAndLostWindowsResolveToNulloptAndFoldIntoTheBooks) {
  Fleet fleet(2);
  const std::uint32_t a = fleet.patient_on(0);
  const std::uint32_t b = fleet.patient_on(1);
  CompressedWindow first = window_for(a);
  ASSERT_TRUE(fleet.coord.submit(first, /*blocking=*/false).has_value());
  fleet.links[0]->verdict = SubmitAck::Status::kRejected;
  CompressedWindow bounced = window_for(a, 1);
  EXPECT_FALSE(fleet.coord.submit(bounced, /*blocking=*/false).has_value());
  EXPECT_EQ(fleet.coord.live_shard_count(), 2u) << "a rejection is backpressure, not a death";

  // Shard 0 dies with one window staged and unacknowledged.
  fleet.links[0]->verdict = SubmitAck::Status::kAccepted;
  fleet.links[0]->defer_acks = true;
  EXPECT_TRUE(fleet.coord.submit_pipelined(window_for(a, 2)));
  fleet.links[0]->alive = false;
  const auto tickets = fleet.coord.flush_submits();
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_FALSE(tickets[0].has_value()) << "lost with its link, never retried";

  CompressedWindow other = window_for(b);
  ASSERT_TRUE(fleet.coord.submit(other, /*blocking=*/true).has_value());
  FailoverReport report;
  ASSERT_TRUE(fleet.coord.fail_shard(0, &report));
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.live_shards, 1u);
  EXPECT_EQ(report.lost_windows, 1u) << "the one acknowledged window never retrieved";
  EXPECT_EQ(fleet.coord.owner(a), 1u);
  EXPECT_FALSE(fleet.coord.fail_shard(0)) << "already failed";
  EXPECT_FALSE(fleet.coord.fail_shard(1)) << "the last survivor stays";

  (void)fleet.coord.drain();
  const ShardCounters books = fleet.coord.aggregate();
  EXPECT_EQ(books.submitted, 2u);
  EXPECT_EQ(books.rejected, 1u);
  EXPECT_EQ(books.lost, 1u);
  EXPECT_EQ(books.submitted, books.completed + books.shed_routine + books.shed_urgent + books.lost);
}

TEST(Coordinator, AutoFailoverReroutesAWindowStillInHand) {
  CoordinatorConfig cfg;
  cfg.auto_failover = true;
  Fleet fleet(2, cfg);
  const std::uint32_t a = fleet.patient_on(0);
  fleet.links[0]->alive = false;
  CompressedWindow window = window_for(a);
  const auto ticket = fleet.coord.submit(window, /*blocking=*/true);
  ASSERT_TRUE(ticket.has_value()) << "the survivor takes the window";
  EXPECT_EQ(Coordinator::ticket_shard(*ticket), 1u);
  EXPECT_EQ(Coordinator::ticket_epoch(*ticket), 1u) << "submitted under the failover epoch";
  EXPECT_EQ(fleet.coord.live_shard_count(), 1u);
  EXPECT_TRUE(fleet.coord.submit_pipelined(window_for(a, 1)));
  const auto tickets = fleet.coord.flush_submits();
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_TRUE(tickets[0].has_value());
}

TEST(Coordinator, ResizeDrainsSweepsExtractsAdoptsThenRetires) {
  Fleet fleet(2);
  // One patient per shard, so a shrink to one shard moves exactly the
  // patient of shard 1 and retires shard 1.
  const std::uint32_t stays = fleet.patient_on(0);
  const std::uint32_t moves = fleet.patient_on(1);
  for (const std::uint32_t patient : {stays, moves}) {
    CompressedWindow window = window_for(patient);
    ASSERT_TRUE(fleet.coord.submit(window, /*blocking=*/true).has_value());
  }
  fleet.log.clear();
  std::vector<Coordinator::NextSlot> next(1);
  next[0].keep = 0;
  ResizeReport report;
  std::vector<std::unique_ptr<ShardLink>> retired;
  ASSERT_TRUE(fleet.coord.resize(std::move(next), report, &retired));
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.moved_patients, 1u);
  EXPECT_EQ(report.slo_handoffs, 1u);
  EXPECT_EQ(report.retired_shards, 1u);
  EXPECT_EQ(retired.size(), 1u);
  const std::string m = std::to_string(moves);
  const std::vector<std::string> expected = {"s1:drain " + m, "s1:sweep", "s1:extract " + m,
                                             "s0:adopt " + m, "s1:sweep", "s1:bye"};
  EXPECT_EQ(fleet.log, expected);

  // The swept result kept its epoch-0 ticket; conservation spans the
  // retired shard's folded counters.
  const auto results = fleet.coord.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) EXPECT_EQ(Coordinator::ticket_epoch(result.ticket), 0u);
  const ShardCounters books = fleet.coord.aggregate();
  EXPECT_EQ(books.submitted, 2u);
  EXPECT_EQ(books.retrieved, 2u);
}

}  // namespace
}  // namespace wbsn::host
