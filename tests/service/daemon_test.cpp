// Daemon integration tests. The suite name (Replicationd) is load-bearing:
// scripts/check_engine_tsan.sh sweeps `-R "^(Simulator|Replicationd)\."`
// so the ingest/monitor/snapshot threads run under ThreadSanitizer.
#include "impatience/service/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/util/errors.hpp"
#include "bounded_run.hpp"

namespace impatience::service {
namespace {

StoreConfig small_config() {
  StoreConfig config;
  config.num_nodes = 16;
  config.num_items = 12;
  config.cache_capacity = 3;
  return config;
}

std::string stream_text(std::uint64_t events, std::uint64_t seed,
                        bool quit) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.quit = quit;
  std::ostringstream out;
  write_stream(out, generate_stream(config, seed));
  return out.str();
}

class TempPath {
 public:
  explicit TempPath(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Feeds raw bytes into a Unix-domain socket, like a live event source.
void feed_socket(const std::string& socket_path, const std::string& data) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // The daemon binds the socket in its constructor, so connect() succeeds
  // immediately; retry briefly anyway to absorb scheduler noise.
  int connected = -1;
  for (int i = 0; i < 100 && connected < 0; ++i) {
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (connected < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(connected, 0) << "cannot connect to " << socket_path;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

/// Opens a raw connection to the daemon's socket (retrying connect).
int connect_socket(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  int connected = -1;
  for (int i = 0; i < 100 && connected < 0; ++i) {
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (connected < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(connected, 0) << "cannot connect to " << socket_path;
  return fd;
}

void send_raw(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads one newline-terminated line (without the newline), with timeout.
std::string recv_line(int fd, double timeout_s = 5.0) {
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) return buffer.substr(0, nl);
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return buffer;
}

void wait_for_seq(const ReplicationDaemon& daemon, std::uint64_t seq) {
  for (int i = 0; i < 1000 && daemon.store().seq() < seq; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(daemon.store().seq(), seq);
}

// Ingest counters lag the store seq: a fragment is registered when the
// ingest thread processes the connection EOF, which can land after the
// last complete line was applied. Poll instead of asserting instantly.
void wait_for_counter(const std::atomic<std::uint64_t>& counter,
                      std::uint64_t expected) {
  for (int i = 0; i < 1000 && counter.load() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(counter.load(), expected);
}

TEST(Replicationd, HelloHandshakeAnswersSeqCursor) {
  TempPath socket("repl_hello");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 31;
  config.socket_path = socket.path();
  config.http_port = 0;
  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });

  const int fd = connect_socket(socket.path());
  send_raw(fd, "H\n");
  EXPECT_EQ(recv_line(fd), "S 0");  // fresh store: cursor at zero
  send_raw(fd, "C 1 2\nnonsense\nR 3 5\nH\n");
  // Malformed lines occupy a seq slot too — the cursor is a count of
  // countable lines, exactly what a resuming feeder must skip.
  EXPECT_EQ(recv_line(fd), "S 3");
  ::close(fd);

  wait_for_seq(daemon, 3);
  EXPECT_EQ(daemon.ingest().hellos.load(), 2u);
  EXPECT_EQ(daemon.ingest().connections.load(), 1u);
  const std::string metrics = http_get(daemon.http_port(), "/metrics");
  EXPECT_NE(metrics.find("replicationd_ingest_hellos_total 2\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_ingest_connections_total 1\n"),
            std::string::npos);
  daemon.stop();
  runner.join();
}

TEST(Replicationd, PartialLineIsHeldAndCompletedByNextConnection) {
  TempPath socket("repl_partial_hold");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 32;
  config.socket_path = socket.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  BoundedRun runner(daemon, "held fragment completed");

  // Connection 1 dies mid-frame: "R 3" is an unterminated fragment. The
  // old behavior flushed it as a line (a spurious malformed event); now
  // it must be held.
  feed_socket(socket.path(), "C 1 2\nR 3");
  wait_for_seq(daemon, 1);
  EXPECT_EQ(daemon.store().seq(), 1u);
  wait_for_counter(daemon.ingest().frames_partial, 1u);

  // Connection 2 (a dumb continuation feeder, no handshake) completes
  // the cut frame exactly where it left off.
  feed_socket(socket.path(), " 5\nQ\n");
  runner.join();
  const StoreCounters k = daemon.store().counters();
  EXPECT_EQ(daemon.store().seq(), 2u);
  EXPECT_EQ(k.events_malformed, 0u);
  EXPECT_EQ(k.requests_created, 1u);  // "R 3 5" was reassembled
  EXPECT_EQ(daemon.ingest().frames_partial_discarded.load(), 0u);
}

TEST(Replicationd, HeldFragmentIsDiscardedWhenNextConnectionHandshakes) {
  TempPath socket("repl_partial_drop");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 33;
  config.socket_path = socket.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  BoundedRun runner(daemon, "held fragment discarded");

  feed_socket(socket.path(), "C 1 2\nR 3");
  wait_for_seq(daemon, 1);

  // A resuming feeder opens with H: it will re-send the cut frame
  // itself, so gluing its bytes onto the fragment would corrupt the
  // stream — the fragment must be dropped instead.
  const int fd = connect_socket(socket.path());
  send_raw(fd, "H\n");
  EXPECT_EQ(recv_line(fd), "S 1");
  send_raw(fd, "R 3 5\nQ\n");
  ::close(fd);
  runner.join();

  const StoreCounters k = daemon.store().counters();
  EXPECT_EQ(daemon.store().seq(), 2u);
  EXPECT_EQ(k.events_malformed, 0u);
  EXPECT_EQ(k.requests_created, 1u);
  EXPECT_EQ(daemon.ingest().frames_partial.load(), 1u);
  EXPECT_EQ(daemon.ingest().frames_partial_discarded.load(), 1u);
}

TEST(Replicationd, BoundedIngestBufferCountsBackpressure) {
  TempPath socket("repl_backpressure");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 34;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.ingest_buffer_bytes = 1;  // clamped up to the 4096 floor
  ReplicationDaemon daemon(config);

  // Queue well over the buffer cap in the kernel socket buffer *before*
  // the ingest loop starts reading: the first greedy drain must stop at
  // the cap and the lines served while capped count as deferred.
  feed_socket(socket.path(), stream_text(2000, 35, /*quit=*/true));
  BoundedRun(daemon, "backpressure stream @cap 4096").join();

  EXPECT_GE(daemon.ingest().buffer_high_water.load(), 4096u);
  EXPECT_GT(daemon.ingest().events_deferred.load(), 0u);
  EXPECT_GT(daemon.store().seq(), 1000u);  // the stream still all applied
}

// More than a mebibyte through the 4 KiB floor: every line is served from
// a moving head over a buffer that is refilled and compacted ~250 times.
// Nothing may be lost or applied twice, and buffering stays bounded.
TEST(Replicationd, MebibyteStreamAtTheBufferFloorAppliesExactly) {
  TempPath socket("repl_floor");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 36;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.ingest_buffer_bytes = 4096;
  ReplicationDaemon daemon(config);

  const std::string text = stream_text(120000, 37, /*quit=*/true);
  ASSERT_GE(text.size(), std::size_t{1} << 20);
  // In-process replay of the same lines: the daemon must end in the
  // same state byte for byte, so a corrupted line fails even where it
  // would still count.
  StateStore replay(config.store, config.seed);
  std::size_t longest = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    longest = std::max(longest, line.size() + 1);
    Event event;
    const LineClass cls = classify_line(line, &event);
    if (cls == LineClass::event) replay.apply(event);
    if (cls == LineClass::malformed) replay.apply_malformed();
  }

  std::thread feeder([&] { feed_socket(socket.path(), text); });
  BoundedRun(daemon, "mebibyte stream @cap 4096").join();  // Q ends it
  feeder.join();

  EXPECT_EQ(daemon.store().seq(), replay.seq());
  EXPECT_EQ(daemon.store().counters().events_malformed, 0u);
  std::ostringstream served, expected;
  write_image(served, daemon.store().image());
  write_image(expected, replay.image());
  EXPECT_EQ(served.str(), expected.str());
  EXPECT_GT(daemon.ingest().events_deferred.load(), 0u);
  // The cap, plus at most one recv past it, plus one unterminated line.
  EXPECT_LE(daemon.ingest().buffer_high_water.load(),
            config.ingest_buffer_bytes + 4096 + longest);
}

TEST(Replicationd, IngestsSocketStreamAndServesMetrics) {
  TempPath socket("repl_sock");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 21;
  config.socket_path = socket.path();
  config.http_port = 0;  // ephemeral

  ReplicationDaemon daemon(config);
  ASSERT_NE(daemon.http_port(), 0);

  std::thread feeder([&] {
    feed_socket(socket.path(), stream_text(1000, 31, /*quit=*/true));
  });
  BoundedRun(daemon, "socket stream @cap default").join();  // Q ends it
  feeder.join();

  const StoreCounters k = daemon.store().counters();
  EXPECT_GT(k.events_applied, 1000u);  // T frames ride along
  EXPECT_GT(k.requests_served(), 0u);
  EXPECT_TRUE(daemon.store().mandate_conservation_ok());

  // Scrape while the monitor thread is still up.
  const std::string metrics = http_get(daemon.http_port(), "/metrics");
  EXPECT_NE(metrics.find("replicationd_events_total " +
                         std::to_string(k.events_applied)),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_mandate_conservation_ok 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_apply_latency_us_p99"),
            std::string::npos);
  EXPECT_EQ(http_get(daemon.http_port(), "/healthz"), "ok\n");
  EXPECT_THROW(http_get(daemon.http_port(), "/nope"), util::IoError);
}

TEST(Replicationd, ConcurrentScrapesDuringIngestAreClean) {
  TempPath socket("repl_scrape");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 22;
  config.socket_path = socket.path();
  config.http_port = 0;

  ReplicationDaemon daemon(config);
  std::thread feeder([&] {
    feed_socket(socket.path(), stream_text(3000, 32, /*quit=*/true));
  });
  // Hammer /metrics from two clients while the ingest thread applies
  // events — the TSan sweep turns any store/metrics race into a failure.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string body = http_get(daemon.http_port(), "/metrics");
      EXPECT_NE(body.find("replicationd_version"), std::string::npos);
    }
  });
  BoundedRun(daemon, "stream under scrapes @cap default").join();
  done.store(true);
  scraper.join();
  feeder.join();
  EXPECT_TRUE(daemon.store().mandate_conservation_ok());
}

TEST(Replicationd, ShutdownTokenStopsGracefullyWithFinalSnapshot) {
  TempPath socket("repl_shutdown");
  TempPath snap("repl_shutdown_snap");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 23;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.snapshot_path = snap.path();

  ReplicationDaemon daemon(config);
  util::CancellationToken token;
  std::thread runner([&] {
    // SIGTERM path: shutdown reason, run() returns normally.
    EXPECT_NO_THROW(daemon.run(&token));
  });
  feed_socket(socket.path(), stream_text(500, 33, /*quit=*/false));
  while (daemon.store().counters().events_applied == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  token.cancel(util::CancelReason::shutdown);
  runner.join();

  // The graceful stop persisted a final snapshot matching the store.
  const StateImage image = load_image(snap.path());
  EXPECT_EQ(image.seq, daemon.store().seq());
  EXPECT_EQ(image.version, daemon.store().version());
}

TEST(Replicationd, DeadlineTokenSurfacesAsCancelledError) {
  TempPath socket("repl_deadline");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 24;
  config.socket_path = socket.path();
  config.http_port = -1;

  ReplicationDaemon daemon(config);
  util::CancellationToken token;
  token.cancel(util::CancelReason::deadline);
  try {
    daemon.run(&token);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::deadline);
  }
}

TEST(Replicationd, SnapshotEveryNEventsIsDeterministicallyReplayable) {
  const std::string text = stream_text(600, 34, /*quit=*/false);

  // Uninterrupted reference over a file source.
  TempPath input("repl_input");
  {
    std::ofstream out(input.path());
    out << text;
  }
  TempPath ref_snap("repl_ref_snap");
  DaemonConfig ref;
  ref.store = small_config();
  ref.seed = 25;
  ref.socket_path.clear();
  ref.input_path = input.path();
  ref.http_port = -1;
  ref.snapshot_path = ref_snap.path();
  ReplicationDaemon ref_daemon(ref);
  ref_daemon.run(nullptr);
  const std::uint64_t total_events = ref_daemon.store().seq();

  // Same stream with --snapshot-every; the last by-seq snapshot plus the
  // final graceful one must both exist; the final must match the
  // reference byte-for-byte.
  TempPath every_snap("repl_every_snap");
  DaemonConfig every = ref;
  every.snapshot_path = every_snap.path();
  every.snapshot_every = 250;
  ReplicationDaemon every_daemon(every);
  every_daemon.run(nullptr);
  EXPECT_EQ(every_daemon.store().seq(), total_events);
  EXPECT_GE(every_daemon.metrics().snapshots_total(), 3u);  // 2 by-seq + final

  std::ostringstream a, b;
  write_image(a, load_image(ref_snap.path()));
  write_image(b, load_image(every_snap.path()));
  EXPECT_EQ(a.str(), b.str());
}

TEST(Replicationd, MalformedLinesAreCountedNotFatal) {
  TempPath input("repl_bad_input");
  {
    std::ofstream out(input.path());
    out << "# comment\n\nC 1 2\nnonsense here\nC 1 1\nR 3 5\nQ\n";
  }
  DaemonConfig config;
  config.store = small_config();
  config.seed = 26;
  config.input_path = input.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  daemon.run(nullptr);
  const StoreCounters k = daemon.store().counters();
  // "nonsense here" and the self-contact "C 1 1" are malformed (counted,
  // state untouched) but still occupy a seq slot each — the seq cursor
  // counts every countable line so the H/S resume protocol is exact.
  // Comments/blanks are noise; Q ends the stream unapplied.
  EXPECT_EQ(k.events_malformed, 2u);
  EXPECT_EQ(k.events_applied, 4u);  // C 1 2, nonsense, C 1 1, R 3 5
  EXPECT_EQ(daemon.store().seq(), 4u);
}

TEST(Replicationd, HttpSnapshotEndpointTriggersPersistence) {
  TempPath socket("repl_httpsnap");
  TempPath snap("repl_httpsnap_file");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 27;
  config.socket_path = socket.path();
  config.http_port = 0;
  config.snapshot_path = snap.path();

  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });
  feed_socket(socket.path(), stream_text(200, 35, /*quit=*/false));
  while (daemon.store().counters().events_applied == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string body = http_get(daemon.http_port(), "/snapshot");
  EXPECT_EQ(body.rfind("ok version ", 0), 0u) << body;
  EXPECT_GE(daemon.metrics().snapshots_total(), 1u);
  const StateImage image = load_image(snap.path());
  EXPECT_GT(image.seq, 0u);
  daemon.stop();
  runner.join();
}

}  // namespace
}  // namespace impatience::service
