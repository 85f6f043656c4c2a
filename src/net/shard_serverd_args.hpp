// Command-line parsing for the shard_serverd daemon, kept out of main()
// so it can be unit-tested without launching a process.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "net/shard_server.hpp"

namespace wbsn::net {

/// Upper bounds on the daemon's --threads and --queue-capacity.  The
/// engine reserves two work-item slots per queue entry up front, so an
/// unchecked capacity turns a typo into a huge allocation.
inline constexpr int kMaxShardThreads = 256;
inline constexpr std::size_t kMaxShardQueueCapacity = std::size_t{1} << 20;

/// Parses shard_serverd's flags (argv without the program name) on top of
/// the daemon defaults: stop_on_bye on, 2 engine threads.  Every numeric
/// value must be consumed whole and lie in range: port <= 65535, threads
/// and queue capacity within the bounds above, ms / scale / CR values
/// finite and non-negative, CR at most 100 %.  nullopt on an unknown
/// flag, a missing value, or a rejected one.
std::optional<ShardServerConfig> parse_shard_serverd_args(std::span<const char* const> args);

}  // namespace wbsn::net
