// Byte-level protocol fuzzing for replicationd's socket ingest — both
// Unix-domain and TCP transports share the framing rules (suite
// ReplicationdFuzz; swept under ThreadSanitizer by
// scripts/check_engine_tsan.sh). Seeded mutations — truncations, splices,
// duplicated chunks, interleaved garbage (newlines included) — are
// streamed at the daemon, which must never throw, never double-apply,
// and account for every rejected frame: its seq / malformed / hello /
// fragment counters are checked against an independent reference
// tokenizer that models the framing rules directly.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "impatience/service/daemon.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/util/rng.hpp"
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

class TempPath {
 public:
  explicit TempPath(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Best-effort raw send over a connected fd: the daemon may quit (a
/// fuzzed 'Q' line) while bytes are still in flight, so EPIPE just ends
/// the feed.
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void feed_bytes(const std::string& socket_path, const std::string& data) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
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
  if (connected < 0) {
    ::close(fd);
    return;
  }
  send_all(fd, data);
}

/// TCP twin of feed_bytes, for the --tcp ingest endpoint.
void feed_bytes_tcp(std::uint16_t port, const std::string& data) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int connected = -1;
  for (int i = 0; i < 100 && connected < 0; ++i) {
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (connected < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (connected < 0) {
    ::close(fd);
    return;
  }
  send_all(fd, data);
}

/// What the daemon must account for a byte stream fed over a sequence of
/// connections.
struct ExpectedIngest {
  std::uint64_t seq = 0;        ///< countable lines applied
  std::uint64_t malformed = 0;  ///< of which unparseable
  std::uint64_t hellos = 0;
  std::uint64_t frames_partial = 0;
  std::uint64_t frames_partial_discarded = 0;
  bool quit = false;         ///< a Q line ended the stream
  std::size_t quit_conn = 0; ///< index of the connection carrying the Q
};

/// Independent reference tokenizer: replays the daemon's framing rules
/// (hold fragment at disconnect; next connection's first complete line
/// decides glue-vs-discard; processing stops at the first Q) over the
/// exact bytes of each connection.
ExpectedIngest reference_ingest(const std::vector<std::string>& conns) {
  ExpectedIngest expected;
  std::string fragment;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    if (expected.quit) break;
    expected.quit_conn = ci;
    std::string buffer = conns[ci];
    bool deciding = !fragment.empty();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', pos);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(pos, nl - pos);
      pos = nl + 1;
      if (deciding) {
        deciding = false;
        if (classify_line(line) == LineClass::hello) {
          fragment.clear();
          ++expected.frames_partial_discarded;
        } else {
          line = fragment + line;
          fragment.clear();
        }
      }
      const LineClass cls = classify_line(line);
      if (cls == LineClass::noise) continue;
      if (cls == LineClass::hello) {
        ++expected.hellos;
        continue;
      }
      if (cls == LineClass::quit) {
        expected.quit = true;
        break;
      }
      ++expected.seq;
      if (cls == LineClass::malformed) ++expected.malformed;
    }
    if (expected.quit) break;
    if (pos < buffer.size()) {
      fragment += buffer.substr(pos);
      ++expected.frames_partial;
    }
  }
  return expected;
}

/// Transport under fuzz: the framing rules (and hence the reference
/// tokenizer) are transport-agnostic, so the same checks run over both.
enum class Transport { unix_socket, tcp };

/// Runs the daemon over the connection blobs at one ingest buffer cap
/// and checks every counter against the reference tokenizer.
void run_and_check_at(const std::vector<std::string>& conns,
                      std::uint64_t seed, const std::string& what,
                      Transport transport, std::size_t buffer_bytes) {
  const ExpectedIngest expected = reference_ingest(conns);
  TempPath socket("repl_fuzz_sock");
  DaemonConfig config;
  config.store = small_config();
  config.seed = seed;
  config.ingest_buffer_bytes = buffer_bytes;
  if (transport == Transport::unix_socket) {
    config.socket_path = socket.path();
  } else {
    config.tcp_port = 0;  // ephemeral; exercise the sharded pipeline too
    config.apply.shards = 4;
    config.apply.threads = 2;
    config.apply.window = 16;
  }
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  // The contract under fuzz: ingest never throws, and ends once the
  // stream's Q frame (or the stop below) arrives.
  BoundedRun runner(daemon, what);
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    if (transport == Transport::unix_socket) {
      feed_bytes(socket.path(), conns[ci]);
    } else {
      feed_bytes_tcp(daemon.tcp_port(), conns[ci]);
    }
    // Connections past the quit-carrying one may never be accepted.
    if (expected.quit && ci >= expected.quit_conn) break;
  }
  if (!expected.quit) {
    // No Q reached the daemon: wait (bounded) for the stream to be fully
    // accounted, then stop the run.
    for (int i = 0; i < 2500 && daemon.store().seq() < expected.seq; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    daemon.stop();
  }
  runner.join();

  const StoreCounters k = daemon.store().counters();
  EXPECT_EQ(daemon.store().seq(), expected.seq) << what;
  EXPECT_EQ(k.events_applied, expected.seq) << what;  // never double-applied
  EXPECT_EQ(k.events_malformed, expected.malformed) << what;
  EXPECT_EQ(daemon.ingest().hellos.load(), expected.hellos) << what;
  // The quit on the final connection means every disconnect-held
  // fragment was already accounted when the run ended.
  EXPECT_EQ(daemon.ingest().frames_partial.load(), expected.frames_partial)
      << what;
  EXPECT_EQ(daemon.ingest().frames_partial_discarded.load(),
            expected.frames_partial_discarded)
      << what;
}

/// Every stream runs twice: at the default ingest buffer cap and at the
/// 4 KiB floor, where the served-line head moves through the buffer and
/// is compacted while fragments are held, glued and discarded.
void run_and_check(const std::vector<std::string>& conns,
                   std::uint64_t seed, const char* what,
                   Transport transport = Transport::unix_socket) {
  for (const std::size_t cap : {DaemonConfig{}.ingest_buffer_bytes,
                                std::size_t{4096}}) {
    run_and_check_at(conns, seed,
                     std::string(what) + " @cap " + std::to_string(cap),
                     transport, cap);
  }
}

std::string clean_stream(std::uint64_t events, std::uint64_t seed) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.quit = false;
  std::ostringstream out;
  write_stream(out, generate_stream(config, seed));
  return out.str();
}

/// Cuts `base` at two random bytes into three connections, `rounds`
/// times. The middle connection may open with a handshake (discarding
/// the held cut fragment) or not (gluing it); the last one ends with Q.
void run_three_way_cuts(const std::string& base, util::Rng& rng,
                        int rounds, std::uint64_t seed, const char* what,
                        Transport transport = Transport::unix_socket) {
  for (int round = 0; round < rounds; ++round) {
    std::size_t c1 = rng.uniform_index(base.size());
    std::size_t c2 = rng.uniform_index(base.size());
    if (c1 > c2) std::swap(c1, c2);
    const bool handshake = rng.bernoulli(0.5);
    std::vector<std::string> conns;
    conns.push_back(base.substr(0, c1));
    conns.push_back((handshake ? std::string("H\n") : std::string()) +
                    base.substr(c1, c2 - c1));
    conns.push_back(base.substr(c2) + "\nQ\n");
    run_and_check(conns, seed + static_cast<std::uint64_t>(round),
                  (std::string(what) + (handshake ? " + handshake" : ""))
                      .c_str(),
                  transport);
  }
}

TEST(ReplicationdFuzz, TruncatedStreamsNeverThrowAndAccountExactly) {
  util::Rng rng(2024);
  const std::string base = clean_stream(120, 7);
  for (int round = 0; round < 8; ++round) {
    const std::size_t cut = rng.uniform_index(base.size());
    // Truncated stream, then a terminating Q on the same connection.
    run_and_check({base.substr(0, cut) + "\nQ\n"}, 100 + round,
                  "truncation");
  }
}

TEST(ReplicationdFuzz, SplicedAndGarbledStreamsAccountExactly) {
  util::Rng rng(4048);
  const std::string a = clean_stream(100, 11);
  const std::string b = clean_stream(100, 13);
  const char garbage_alphabet[] = "\nQX \t#HC R0123456789\x01\x7f;";
  for (int round = 0; round < 8; ++round) {
    // Splice two streams at random byte offsets (tearing lines), then
    // interleave a burst of garbage that may itself contain newlines,
    // 'Q' and 'H' bytes — the oracle models whatever lines result.
    std::string mutated = a.substr(0, rng.uniform_index(a.size())) +
                          b.substr(rng.uniform_index(b.size()));
    std::string burst;
    const std::size_t len = 1 + rng.uniform_index(40);
    for (std::size_t i = 0; i < len; ++i) {
      burst += garbage_alphabet[rng.uniform_index(
          sizeof(garbage_alphabet) - 1)];
    }
    mutated.insert(rng.uniform_index(mutated.size()), burst);
    run_and_check({mutated + "\nQ\n"}, 200 + round, "splice+garbage");
  }
}

TEST(ReplicationdFuzz, MultiConnectionCutsWithAndWithoutHandshake) {
  util::Rng rng(9090);
  run_three_way_cuts(clean_stream(150, 17), rng, 6, 300, "3-way cut");
}

TEST(ReplicationdFuzz, LongStreamCutsCrossTheBufferCap) {
  // Cuts far past the first recv: at the 4 KiB floor the held fragment
  // is taken from a buffer whose head has moved and compacted many times.
  util::Rng rng(8118);
  const std::string base = clean_stream(4000, 31);
  ASSERT_GT(base.size(), 8u * 4096u);
  run_three_way_cuts(base, rng, 4, 700, "long 3-way cut");
}

TEST(ReplicationdFuzz, DuplicatedChunksAreAppliedAsSent) {
  util::Rng rng(5150);
  const std::string base = clean_stream(80, 19);
  for (int round = 0; round < 4; ++round) {
    // A duplicated byte range models a feeder resending too much: the
    // daemon applies what arrives (duplicate frames are the feeder's
    // cursor bug, not the daemon's) but must still account exactly.
    std::size_t from = rng.uniform_index(base.size());
    std::size_t to = rng.uniform_index(base.size());
    if (from > to) std::swap(from, to);
    std::string mutated = base;
    mutated.insert(to, base.substr(from, to - from));
    run_and_check({mutated + "\nQ\n"}, 400 + round, "duplicated chunk");
  }
}

TEST(ReplicationdFuzz, TcpTruncatedStreamsAccountExactly) {
  util::Rng rng(6006);
  const std::string base = clean_stream(120, 23);
  for (int round = 0; round < 6; ++round) {
    const std::size_t cut = rng.uniform_index(base.size());
    run_and_check({base.substr(0, cut) + "\nQ\n"}, 500 + round,
                  "tcp truncation", Transport::tcp);
  }
}

TEST(ReplicationdFuzz, TcpMultiConnectionCutsAccountExactly) {
  util::Rng rng(7007);
  run_three_way_cuts(clean_stream(150, 29), rng, 4, 600, "tcp 3-way cut",
                     Transport::tcp);
}

}  // namespace
}  // namespace impatience::service
