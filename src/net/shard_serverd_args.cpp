#include "net/shard_serverd_args.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace wbsn::net {

namespace {

/// `text` parsed whole by std::from_chars (no sign prefix, whitespace or
/// trailing characters), or nullopt.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<ShardServerConfig> parse_shard_serverd_args(std::span<const char* const> args) {
  ShardServerConfig cfg;
  cfg.stop_on_bye = true;
  cfg.engine.threads = 2;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view flag = args[i];
    if (i + 1 >= args.size()) return std::nullopt;
    const std::string_view value = args[++i];
    // A whole number in [0, max] into `field`.
    const auto count = [&](auto& field, long long max) {
      const auto parsed = parse_whole<long long>(value);
      if (!parsed || *parsed < 0 || *parsed > max) return false;
      field = static_cast<std::remove_reference_t<decltype(field)>>(*parsed);
      return true;
    };
    // A finite real in [0, max] into `field`.
    const auto real = [&](double& field, double max = std::numeric_limits<double>::max()) {
      const auto parsed = parse_whole<double>(value);
      if (!parsed || !std::isfinite(*parsed) || *parsed < 0.0 || *parsed > max) return false;
      field = *parsed;
      return true;
    };
    bool ok = false;
    if (flag == "--host") {
      cfg.host = value;
      ok = !value.empty();
    } else if (flag == "--port") {
      ok = count(cfg.port, 65535);
    } else if (flag == "--threads") {
      ok = count(cfg.engine.threads, kMaxShardThreads);
    } else if (flag == "--queue-capacity") {
      ok = count(cfg.engine.queue_capacity, static_cast<long long>(kMaxShardQueueCapacity));
    } else if (flag == "--deadline-ms") {
      ok = real(cfg.engine.slo.deadline_ms);
    } else if (flag == "--fixed-scale") {
      ok = real(cfg.wire.fixed_scale);
    } else if (flag == "--hint-cr") {
      // CR advisory (percent) each SNAPSHOT carries under pressure.
      ok = real(cfg.hint_cr_percent, 100.0);
    } else if (flag == "--hint-backlog-deadlines") {
      ok = real(cfg.hint_backlog_deadlines);
    }
    if (!ok) return std::nullopt;
  }
  return cfg;
}

}  // namespace wbsn::net
