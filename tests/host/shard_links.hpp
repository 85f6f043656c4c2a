// Test harness shared by the suites that run one coordinator schedule over
// both shard links: the in-process EngineLink and the production
// SocketLink, the latter talking wbsn-wire to a ShardServer on its own
// thread in this process.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host/coordinator.hpp"
#include "host/reconstruction_fabric.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"

namespace wbsn::host {

enum class LinkKind { kEngine, kSocket };

inline std::string link_name(LinkKind kind) {
  return kind == LinkKind::kEngine ? "EngineLink" : "SocketLink";
}

/// Builds fresh shards behind links of one kind, and owns whatever keeps
/// them alive (the shard servers and their event-loop threads).
class LinkFactory {
 public:
  LinkFactory(LinkKind kind, EngineConfig engine) : kind_(kind), engine_(std::move(engine)) {}

  ~LinkFactory() {
    for (auto& shard : shards_) {
      shard->server->stop();
      shard->loop.join();
    }
  }

  std::unique_ptr<ShardLink> make() {
    if (kind_ == LinkKind::kEngine) return std::make_unique<EngineLink>(engine_);
    auto shard = std::make_unique<Shard>();
    net::ShardServerConfig cfg;
    cfg.engine = engine_;
    shard->server = std::make_unique<net::ShardServer>(std::move(cfg));
    EXPECT_TRUE(shard->server->start());
    shard->loop = std::thread([s = shard->server.get()] { s->run(); });
    auto link = std::make_unique<net::SocketLink>(
        net::ShardEndpoint{"127.0.0.1", shard->server->port()}, shards_.size(), client_);
    EXPECT_TRUE(link->ensure_connected());
    shards_.push_back(std::move(shard));
    return link;
  }

  /// A coordinator opened on `count` fresh shards.
  void open(Coordinator& coord, std::size_t count) {
    std::vector<std::unique_ptr<ShardLink>> links;
    for (std::size_t i = 0; i < count; ++i) links.push_back(make());
    coord.open(std::move(links));
  }

  /// The fabric's resize plan: surviving indices keep their shards, new
  /// indices and crash holes get fresh ones, indices past `target` retire.
  ResizeReport resize(Coordinator& coord, std::size_t target) {
    std::vector<std::size_t> plan(target, Coordinator::NextSlot::kFresh);
    for (std::size_t i = 0; i < target; ++i) {
      if (coord.link(i) != nullptr) plan[i] = i;
    }
    return replan(coord, plan);
  }

  /// An arbitrary plan: new slot i keeps current slot plan[i] (possibly at
  /// another index), or gets a fresh shard for NextSlot::kFresh.  Current
  /// slots the plan does not name retire.
  ResizeReport replan(Coordinator& coord, const std::vector<std::size_t>& plan) {
    std::vector<Coordinator::NextSlot> next(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      next[i].keep = plan[i];
      if (plan[i] == Coordinator::NextSlot::kFresh) next[i].fresh = make();
    }
    ResizeReport report;
    EXPECT_TRUE(coord.resize(std::move(next), report));
    return report;
  }

 private:
  struct Shard {
    std::unique_ptr<net::ShardServer> server;
    std::thread loop;
  };

  LinkKind kind_;
  EngineConfig engine_;
  net::RoutingClientConfig client_;  ///< Outlives every SocketLink made here.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace wbsn::host
