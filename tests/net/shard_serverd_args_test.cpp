// shard_serverd flag parsing: every number is consumed whole and range-
// checked, so a bad value is refused instead of wrapping (a port above
// 65535) or aborting the daemon (a negative queue capacity).  The parser
// is driven directly; no daemon is launched.
#include "net/shard_serverd_args.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace wbsn::net {
namespace {

std::optional<ShardServerConfig> parse(std::initializer_list<const char*> args) {
  const std::vector<const char*> argv(args);
  return parse_shard_serverd_args(argv);
}

TEST(ShardServerdArgs, NoFlagsGiveTheDaemonDefaults) {
  const auto cfg = parse({});
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->host, "127.0.0.1");
  EXPECT_EQ(cfg->port, 0u);
  EXPECT_EQ(cfg->engine.threads, 2);
  EXPECT_TRUE(cfg->stop_on_bye);
  EXPECT_FALSE(cfg->engine.deadline_shedding);
  EXPECT_EQ(cfg->hint_backlog_deadlines, 1.0);
}

TEST(ShardServerdArgs, EveryFlagLandsInItsField) {
  const auto net = parse({"--host", "0.0.0.0", "--port", "65535", "--fixed-scale", "0.25"});
  ASSERT_TRUE(net.has_value());
  EXPECT_EQ(net->host, "0.0.0.0");
  EXPECT_EQ(net->port, 65535u);
  EXPECT_EQ(net->wire.fixed_scale, 0.25);

  const auto engine = parse({"--threads", "4", "--queue-capacity", "64"});
  ASSERT_TRUE(engine.has_value());
  EXPECT_EQ(engine->engine.threads, 4);
  EXPECT_EQ(engine->engine.queue_capacity, 64u);

  const auto slo = parse({"--deadline-ms", "1024.5", "--hint-cr", "100"});
  ASSERT_TRUE(slo.has_value());
  EXPECT_EQ(slo->engine.slo.deadline_ms, 1024.5);
  EXPECT_EQ(slo->hint_cr_percent, 100.0);

  const auto hint = parse({"--hint-backlog-deadlines", "0"});
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->hint_backlog_deadlines, 0.0);
}

TEST(ShardServerdArgs, CountsAcceptTheirUpperBounds) {
  const std::string threads = std::to_string(kMaxShardThreads);
  const std::string capacity = std::to_string(kMaxShardQueueCapacity);
  const auto cfg = parse({"--threads", threads.c_str(), "--queue-capacity", capacity.c_str()});
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->engine.threads, kMaxShardThreads);
  EXPECT_EQ(cfg->engine.queue_capacity, kMaxShardQueueCapacity);
}

TEST(ShardServerdArgs, RejectsOutOfRangeCounts) {
  const std::string threads = std::to_string(kMaxShardThreads + 1);
  const std::string capacity = std::to_string(kMaxShardQueueCapacity + 1);
  EXPECT_FALSE(parse({"--port", "70000"}));
  EXPECT_FALSE(parse({"--port", "65536"}));
  EXPECT_FALSE(parse({"--port", "-1"}));
  EXPECT_FALSE(parse({"--threads", "-1"}));
  EXPECT_FALSE(parse({"--threads", threads.c_str()}));
  EXPECT_FALSE(parse({"--queue-capacity", "-1"}));
  EXPECT_FALSE(parse({"--queue-capacity", capacity.c_str()}));
  EXPECT_FALSE(parse({"--queue-capacity", "99999999999999999999999"}));
}

TEST(ShardServerdArgs, RejectsNumbersNotConsumedWhole) {
  EXPECT_FALSE(parse({"--port", ""}));
  EXPECT_FALSE(parse({"--port", "80x"}));
  EXPECT_FALSE(parse({"--port", " 80"}));
  EXPECT_FALSE(parse({"--port", "+80"}));
  EXPECT_FALSE(parse({"--threads", "2.5"}));
  EXPECT_FALSE(parse({"--queue-capacity", "1e3"}));
  EXPECT_FALSE(parse({"--deadline-ms", "ten"}));
  EXPECT_FALSE(parse({"--deadline-ms", "10ms"}));
}

void expect_rejects_bad_reals(const char* flag) {
  EXPECT_FALSE(parse({flag, "-1"})) << flag;
  EXPECT_FALSE(parse({flag, "nan"})) << flag;
  EXPECT_FALSE(parse({flag, "inf"})) << flag;
  EXPECT_FALSE(parse({flag, "1e999"})) << flag;
}

TEST(ShardServerdArgs, RejectsNonFiniteOrNegativeReals) {
  expect_rejects_bad_reals("--deadline-ms");
  expect_rejects_bad_reals("--fixed-scale");
  expect_rejects_bad_reals("--hint-cr");
  expect_rejects_bad_reals("--hint-backlog-deadlines");
  EXPECT_FALSE(parse({"--hint-cr", "100.5"}));
}

TEST(ShardServerdArgs, RejectsUnknownFlagsAndMissingValues) {
  EXPECT_FALSE(parse({"--bogus"}));
  EXPECT_FALSE(parse({"--bogus", "1"}));
  // Deadline shedding acts only on non-blocking admission, and the wire's
  // clients only submit blocking, so the daemon has no flag for it.
  EXPECT_FALSE(parse({"--shedding"}));
  EXPECT_FALSE(parse({"--threads", "4", "--shedding"}));
  EXPECT_FALSE(parse({"--port"}));
  EXPECT_FALSE(parse({"--threads", "1", "--deadline-ms"}));
  EXPECT_FALSE(parse({"--host", ""}));
}

}  // namespace
}  // namespace wbsn::net
