// replicationd — long-running replication service for opportunistic
// networks (docs/service.md).
//
// Serve mode (default): own the live QCR cache state, ingest protocol
// frames from a Unix socket / file / stdin, expose /metrics, persist
// crash-safe snapshots, support warm restart:
//
//   replicationd --nodes 50 --items 50 --capacity 5
//       --socket /tmp/repl.sock --port 0 --announce /tmp/repl.announce
//       --snapshot /tmp/repl.snap --snapshot-interval 30s --seed 7
//   (one command line, wrapped here)
//   replicationd ... --restore          # warm restart from the snapshot
//
// Generator mode: emit a deterministic synthetic stream for tests and
// load drivers, then exit:
//
//   replicationd --gen-stream 1000 --nodes 50 --items 50 --seed 7 --out -
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "impatience/engine/watchdog.hpp"
#include "impatience/service/daemon.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/util/flags.hpp"

namespace {

using namespace impatience;

// Signal handling: handlers may only touch lock-free atomics, so SIGTERM
// and SIGINT cancel the daemon's token with `shutdown`; the ingest loop's
// token watcher notices within a poll tick and unwinds gracefully.
util::CancellationToken* g_token = nullptr;

void handle_signal(int) {
  if (g_token) g_token->cancel(util::CancelReason::shutdown);
}

/// Upper bound of the counts that land in 32-bit fields (node and item
/// ids, shard and thread counts): what --nodes took as an int before.
constexpr long kMaxInt = std::numeric_limits<int>::max();

/// A size or count flag. These feed unsigned fields, where a negative
/// value would wrap (--ingest-buffer=-1 became ~1.8e19 bytes: unbounded
/// buffering), so it is refused like a value that does not parse.
std::uint64_t get_count(const util::Flags& flags, const std::string& key,
                        long fallback,
                        long max = std::numeric_limits<long>::max()) {
  const long value = flags.get_long(key, fallback);
  if (value < 0 || value > max) {
    throw util::FlagError(
        key, std::to_string(value),
        max == std::numeric_limits<long>::max()
            ? "a non-negative integer"
            : "an integer in [0, " + std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(value);
}

int run_generator(const util::Flags& flags) {
  service::StreamConfig config;
  config.events = get_count(flags, "gen-stream", 1000);
  config.num_nodes =
      static_cast<service::NodeId>(get_count(flags, "nodes", 50, kMaxInt));
  config.num_items =
      static_cast<service::ItemId>(get_count(flags, "items", 50, kMaxInt));
  config.zipf = flags.get_double("zipf", 1.0);
  config.request_fraction = flags.get_double("request-fraction", 0.5);
  config.crash_fraction = flags.get_double("crash-fraction", 0.0);
  config.slots_per_event = flags.get_double("slots-per-event", 0.5);
  config.quit = flags.get_bool("quit", true);
  const auto seed = static_cast<std::uint64_t>(flags.get_long("seed", 1));
  const auto events = service::generate_stream(config, seed);

  const std::string out_path = flags.get_string("out", "-");
  if (out_path == "-") {
    service::write_stream(std::cout, events);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "replicationd: cannot write " << out_path << '\n';
      return 1;
    }
    service::write_stream(out, events);
  }
  return 0;
}

int run_daemon(const util::Flags& flags) {
  service::DaemonConfig config;
  config.store.num_nodes =
      static_cast<service::NodeId>(get_count(flags, "nodes", 50, kMaxInt));
  config.store.num_items =
      static_cast<service::ItemId>(get_count(flags, "items", 50, kMaxInt));
  config.store.cache_capacity = flags.get_int("capacity", 5);
  config.store.sticky_replicas = flags.get_bool("sticky", true);
  config.store.utility_spec = flags.get_string("utility", "step:tau=10");
  config.store.mu = flags.get_double("mu", 0.05);
  config.store.reaction_scale = flags.get_double("scale", 1.0);
  config.store.mandate_routing = flags.get_bool("mandate-routing", true);
  config.seed = static_cast<std::uint64_t>(flags.get_long("seed", 1));
  config.socket_path = flags.get_string("socket", "");
  config.tcp_port = flags.get_int("tcp", -1);
  config.input_path = flags.get_string("input", "-");
  config.follow = flags.get_bool("follow", false);
  config.follow_poll_s = flags.get_duration("follow-poll", 0.05);
  config.ingest_buffer_bytes = get_count(flags, "ingest-buffer", 256 * 1024);
  config.http_port = flags.get_int("port", 0);
  config.snapshot_path = flags.get_string("snapshot", "");
  config.snapshot_interval_s = flags.get_duration("snapshot-interval", 0.0);
  config.snapshot_every = get_count(flags, "snapshot-every", 0);
  config.restore = flags.get_bool("restore", false);
  config.snapshot_deltas = flags.get_bool("snapshot-deltas", false);
  config.snapshot_delta_limit = get_count(flags, "snapshot-delta-limit", 16);
  config.apply.shards =
      static_cast<unsigned>(get_count(flags, "shards", 1, kMaxInt));
  config.apply.threads = static_cast<unsigned>(
      get_count(flags, "apply-threads", 1, kMaxInt));
  config.apply.window = get_count(flags, "apply-window", 256);
  config.announce_path = flags.get_string("announce", "");
  const double deadline_s = flags.get_duration("deadline", 0.0);

  service::ReplicationDaemon daemon(config);

  util::CancellationToken token;
  g_token = &token;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // --deadline rides on the engine's watchdog; its expiry cancels with
  // `deadline`, which run() converts into a CancelledError whose reason
  // the engine manifests as error_kind "timeout" — distinguishable from
  // the SIGTERM path above ("shutdown").
  std::unique_ptr<engine::DeadlineWatchdog> watchdog;
  if (deadline_s > 0.0) {
    watchdog = std::make_unique<engine::DeadlineWatchdog>(deadline_s);
    watchdog->arm(&token);
  }

  std::cerr << "replicationd: serving"
            << (daemon.restored() ? " (restored)" : "") << ", nodes="
            << config.store.num_nodes << " items=" << config.store.num_items
            << (daemon.http_port() != 0
                    ? " http=127.0.0.1:" + std::to_string(daemon.http_port())
                    : "")
            << (config.socket_path.empty() ? "" : " socket=" +
                                                      config.socket_path)
            << (daemon.tcp_port() != 0
                    ? " tcp=127.0.0.1:" + std::to_string(daemon.tcp_port())
                    : "")
            << '\n';

  int status = 0;
  try {
    daemon.run(&token);
  } catch (const util::CancelledError& e) {
    std::cerr << "replicationd: " << e.what() << " (reason "
              << util::to_string(e.reason()) << ")\n";
    status = 3;
  }
  g_token = nullptr;

  const auto counters = daemon.store().counters();
  std::cerr << "replicationd: stopped after " << counters.events_applied
            << " events, " << counters.requests_served()
            << " requests served, version " << daemon.store().version()
            << '\n';
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::cout <<
        "replicationd [mode] [flags]\n"
        "\n"
        "Scenario:   --nodes N --items N --capacity N --utility SPEC\n"
        "            --mu X --scale X --sticky BOOL --mandate-routing BOOL\n"
        "            --seed N\n"
        "Ingest:     --socket PATH | --tcp PORT | --input FILE|- [--follow]\n"
        "            --follow-poll DUR (EOF poll period, default 50ms)\n"
        "            --ingest-buffer BYTES (socket buffer cap)\n"
        "Apply:      --shards N --apply-threads N --apply-window N\n"
        "            (sharded parallel pipeline; byte-identical output)\n"
        "Monitor:    --port N (0 = ephemeral, -1 = off) --announce FILE\n"
        "Snapshots:  --snapshot FILE --snapshot-interval DUR\n"
        "            --snapshot-every N --restore\n"
        "            --snapshot-deltas BOOL --snapshot-delta-limit N\n"
        "Lifecycle:  --deadline DUR (cancel reason: deadline)\n"
        "Generator:  --gen-stream N --out FILE|- [--zipf X]\n"
        "            [--request-fraction X] [--crash-fraction X]\n"
        "            [--slots-per-event X] [--quit BOOL]\n";
    return 0;
  }
  try {
    if (flags.has("gen-stream")) return run_generator(flags);
    return run_daemon(flags);
  } catch (const util::FlagError& e) {
    // A usage error, as in the bench harnesses: exit 2 naming the flag.
    std::cerr << "replicationd: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "replicationd: " << e.what() << '\n';
    return 1;
  }
}
