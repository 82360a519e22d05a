#include "impatience/service/daemon.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "impatience/engine/artifacts.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/snapshot_chain.hpp"

namespace impatience::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

class FileSource final : public LineSource {
 public:
  FileSource(const std::string& path, bool follow, double poll_seconds)
      : follow_(follow), poll_seconds_(std::max(poll_seconds, 0.001)) {
    if (path == "-") {
      stream_ = &std::cin;
    } else {
      file_.open(path);
      if (!file_) {
        throw util::IoError("replicationd: cannot open input " + path);
      }
      stream_ = &file_;
    }
  }

  std::optional<std::string> next_line(
      const std::atomic<bool>& stop) override {
    std::string line;
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return std::nullopt;
      if (std::getline(*stream_, line)) return line;
      if (!follow_ || stream_ == &std::cin) return std::nullopt;
      // tail -f: clear the EOF condition and wait for the file to grow.
      // The wait is sliced so a stop request (SIGTERM under --follow)
      // unblocks within ~10 ms instead of a full poll period.
      stream_->clear();
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(poll_seconds_);
      while (Clock::now() < deadline) {
        if (stop.load(std::memory_order_relaxed)) return std::nullopt;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  bool has_buffered_line() override {
    // in_avail() never blocks: it reports bytes already sitting in the
    // stream buffer. An approximation (the buffered bytes may lack a
    // newline), but getline on a regular file refills cheaply and a
    // half-line on stdin only delays the flush, never correctness.
    return stream_->good() && stream_->rdbuf()->in_avail() > 0;
  }

 private:
  bool follow_;
  double poll_seconds_;
  std::ifstream file_;
  std::istream* stream_ = nullptr;
};

/// Stream-socket line source over an already-listening fd. Everything
/// past accept() is address-family agnostic: the Unix-domain and TCP
/// factories below differ only in how they produce the listening socket.
class SocketSource final : public LineSource {
 public:
  /// Takes ownership of `listen_fd` (already bound + listening).
  /// `unlink_path`, when non-empty, is removed at destruction (the
  /// Unix-domain socket file).
  SocketSource(int listen_fd, std::string unlink_path,
               IngestCounters* counters, std::size_t buffer_bytes)
      : unlink_path_(std::move(unlink_path)),
        listen_fd_(listen_fd),
        counters_(counters),
        cap_(std::max<std::size_t>(buffer_bytes, 4096)) {}

  ~SocketSource() override {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }

  std::optional<std::string> next_line(
      const std::atomic<bool>& stop) override {
    for (;;) {
      const std::size_t nl = find_newline();
      if (nl != kNone) {
        // A fresh connection while a fragment is held: the first complete
        // line decides whether the fragment glues or drops (see resolve),
        // so nothing is served until that line exists.
        if (deciding_) {
          resolve_fragment(nl);
          continue;
        }
        // Backpressure accounting: lines served while the buffer sits
        // at/above its cap are events the transport deferred reads for.
        if (counters_ && buffered() >= cap_) {
          counters_->events_deferred.fetch_add(1, std::memory_order_relaxed);
        }
        std::string line(storage_.data() + head_, nl - head_);
        head_ = nl + 1;
        scan_ = head_;
        return line;
      }
      if (stop.load(std::memory_order_relaxed)) return std::nullopt;
      if (conn_fd_ < 0) {
        // Feeders connect sequentially: accept the next one.
        struct pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno != EINTR) return std::nullopt;
        if (ready <= 0) continue;
        conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
        if (conn_fd_ < 0) continue;
        if (counters_) {
          counters_->connections.fetch_add(1, std::memory_order_relaxed);
        }
        deciding_ = !fragment_.empty();
        continue;
      }
      struct pollfd pfd{conn_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) return std::nullopt;
      if (ready <= 0) continue;
      // Drain greedily up to the cap so the buffer is what holds queued
      // frames and the cap is meaningful. The cap bounds multi-line
      // queueing only: a single unterminated line keeps reading past it
      // (else ingest would deadlock — the same unboundedness the file
      // source's getline has).
      while (find_newline() == kNone || buffered() < cap_) {
        const std::size_t want =
            std::max(cap_ - std::min(buffered(), cap_), kMinRecv);
        reserve_tail(want);
        const ssize_t n =
            ::recv(conn_fd_, storage_.data() + tail_, want, MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            break;
          }
          close_conn();
          break;
        }
        if (n == 0) {
          close_conn();
          break;
        }
        tail_ += static_cast<std::size_t>(n);
      }
      if (counters_) {
        const std::uint64_t now = buffered();
        std::uint64_t hw =
            counters_->buffer_high_water.load(std::memory_order_relaxed);
        while (hw < now &&
               !counters_->buffer_high_water.compare_exchange_weak(
                   hw, now, std::memory_order_relaxed)) {
        }
      }
    }
  }

  void reply(const std::string& line) override {
    if (conn_fd_ < 0) return;
    // Non-blocking, SIGPIPE-free: a feeder that never reads its S
    // replies must not be able to stall ingest.
    (void)::send(conn_fd_, line.data(), line.size(),
                 MSG_NOSIGNAL | MSG_DONTWAIT);
  }

  bool has_buffered_line() override {
    // Exact for sockets: a complete line is already drained into the
    // buffer (a fragment under decision is not servable yet).
    return !deciding_ && find_newline() != kNone;
  }

 private:
  static constexpr std::size_t kNone = std::string::npos;
  /// Smallest recv: what a single unterminated line over the cap grows by.
  static constexpr std::size_t kMinRecv = 4096;

  std::size_t buffered() const { return tail_ - head_; }

  /// Offset of the first '\n' at or after the head, or kNone. Bytes
  /// [head_, scan_) are known to hold none, so each byte is searched once
  /// however often the drain loop and the batching hint ask.
  std::size_t find_newline() {
    if (scan_ == tail_) return kNone;
    const void* nl =
        std::memchr(storage_.data() + scan_, '\n', tail_ - scan_);
    if (nl == nullptr) {
      scan_ = tail_;
      return kNone;
    }
    scan_ = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                     storage_.data());
    return scan_;
  }

  /// Moves the buffered bytes to the front of the storage.
  void compact() {
    std::memmove(storage_.data(), storage_.data() + head_, buffered());
    tail_ -= head_;
    scan_ -= head_;
    head_ = 0;
  }

  /// Room for `n` more bytes at the tail. Served bytes are reclaimed only
  /// once the head has passed half the filled storage, so each compaction
  /// moves fewer bytes than were served since the last one (O(1) per
  /// byte); otherwise the storage doubles.
  void reserve_tail(std::size_t n) {
    if (storage_.size() - tail_ >= n) return;
    if (head_ > tail_ / 2) {
      compact();
      if (storage_.size() - tail_ >= n) return;
    }
    storage_.resize(std::max(2 * storage_.size(), tail_ + n));
  }

  void close_conn() {
    ::close(conn_fd_);
    conn_fd_ = -1;
    // A dying connection that did deliver its first complete line still
    // gets its fragment decision (the greedy drain can learn of the
    // close with complete lines already buffered).
    if (deciding_) {
      const std::size_t nl = find_newline();
      if (nl != kNone) resolve_fragment(nl);
    }
    if (deciding_) {
      // Died before its first complete line: its bytes chain onto the
      // held fragment (arrival order) and the decision passes to the
      // next connection (accept re-derives deciding_ from fragment_).
      if (buffered() > 0) {
        fragment_.append(storage_.data() + head_, buffered());
        head_ = tail_ = scan_ = 0;
        if (counters_) {
          counters_->frames_partial.fetch_add(1, std::memory_order_relaxed);
        }
      }
      deciding_ = false;
      return;
    }
    // Hold (never flush) the unterminated trailing line: the next
    // connection decides its fate. Complete lines stay buffered and
    // keep being served.
    const std::string_view rest(storage_.data() + head_, buffered());
    const std::size_t last = rest.rfind('\n');
    const std::size_t keep = last == kNone ? 0 : last + 1;
    if (keep < rest.size()) {
      fragment_.append(rest.substr(keep));
      tail_ = head_ + keep;
      scan_ = std::min(scan_, tail_);
      if (counters_) {
        counters_->frames_partial.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Decides the held fragment on the new connection's first complete
  /// line, which ends at `nl`.
  void resolve_fragment(std::size_t nl) {
    const std::string_view first(storage_.data() + head_, nl - head_);
    if (classify_line(first) == LineClass::hello) {
      // A new/resuming feeder opens with a hello and will re-send the
      // cut frame itself after seeking to the acked cursor — gluing its
      // bytes onto the fragment would corrupt the stream. Drop it.
      if (counters_) {
        counters_->frames_partial_discarded.fetch_add(
            1, std::memory_order_relaxed);
      }
    } else {
      // A continuation feeder (no handshake): its bytes complete the
      // cut frame exactly where it left off. The fragment holds no
      // newline, so the scan resumes past it.
      storage_.insert(storage_.begin() + static_cast<std::ptrdiff_t>(head_),
                      fragment_.begin(), fragment_.end());
      tail_ += fragment_.size();
      scan_ += fragment_.size();
    }
    fragment_.clear();
    deciding_ = false;
  }

  std::string unlink_path_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  /// Bytes from the current connection: [head_, tail_) are buffered,
  /// [0, head_) were served, [tail_, size) is room for the next recv.
  std::vector<char> storage_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t scan_ = 0;  ///< [head_, scan_) holds no '\n'
  std::string fragment_;  ///< unterminated tail of previous connection(s)
  bool deciding_ = false;
  IngestCounters* counters_ = nullptr;
  std::size_t cap_;
};

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

std::unique_ptr<LineSource> make_file_source(const std::string& path,
                                             bool follow,
                                             double poll_seconds) {
  return std::make_unique<FileSource>(path, follow, poll_seconds);
}

std::unique_ptr<LineSource> make_socket_source(const std::string& path,
                                               IngestCounters* counters,
                                               std::size_t buffer_bytes) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::IoError("replicationd: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw util::IoError("replicationd: socket() failed: " +
                        std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw util::IoError("replicationd: cannot listen on " + path + ": " +
                        what);
  }
  return std::make_unique<SocketSource>(fd, path, counters, buffer_bytes);
}

std::unique_ptr<LineSource> make_tcp_source(int port,
                                            IngestCounters* counters,
                                            std::size_t buffer_bytes,
                                            std::uint16_t* bound_port) {
  if (port < 0 || port > 65535) {
    throw util::IoError("replicationd: invalid TCP port " +
                        std::to_string(port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw util::IoError("replicationd: socket() failed: " +
                        std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: replicationd has no authentication; exposing the
  // ingest stream beyond the host is an operator decision (a tunnel),
  // not a default.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw util::IoError("replicationd: cannot listen on 127.0.0.1:" +
                        std::to_string(port) + ": " + what);
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const std::string what = std::strerror(errno);
      ::close(fd);
      throw util::IoError("replicationd: getsockname failed: " + what);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return std::make_unique<SocketSource>(fd, std::string(), counters,
                                        buffer_bytes);
}

ReplicationDaemon::ReplicationDaemon(const DaemonConfig& config)
    : config_(config) {
  const bool chain_avail =
      !config_.snapshot_path.empty() &&
      SnapshotChain::chain_available(config_.snapshot_path);
  if (config_.restore && !config_.snapshot_path.empty() &&
      (chain_avail || file_exists(config_.snapshot_path))) {
    // A SIGKILL mid-snapshot leaves a stale `<path>.tmp`; the atomic
    // rename discipline means `<path>` itself — or the chain manifest —
    // is always the last consistent snapshot, so the temp file is simply
    // ignored. restore_image prefers the chain, falls back to the plain
    // file.
    store_ = std::make_unique<StateStore>(
        config_.store, config_.seed,
        SnapshotChain::restore_image(config_.snapshot_path), config_.apply);
    restored_ = true;
  } else {
    store_ = std::make_unique<StateStore>(config_.store, config_.seed,
                                          config_.apply);
  }
  if (config_.snapshot_deltas && !config_.snapshot_path.empty()) {
    chain_ = std::make_unique<SnapshotChain>(SnapshotChain::Options{
        config_.snapshot_path, config_.snapshot_delta_limit});
  }

  if (!config_.socket_path.empty()) {
    source_ = make_socket_source(config_.socket_path, &ingest_,
                                 config_.ingest_buffer_bytes);
  } else if (config_.tcp_port >= 0) {
    source_ = make_tcp_source(config_.tcp_port, &ingest_,
                              config_.ingest_buffer_bytes, &tcp_port_);
  } else {
    source_ = make_file_source(config_.input_path, config_.follow,
                               config_.follow_poll_s);
  }

  start_time_ = Clock::now();
  rate_time_ = start_time_;
  rate_version_ = store_->version();

  if (config_.http_port >= 0) {
    http_ = std::make_unique<HttpServer>(
        [this](const std::string& path) -> HttpResponse {
          if (path == "/metrics") {
            return {200, "text/plain; charset=utf-8", render()};
          }
          if (path == "/healthz") {
            return {200, "text/plain; charset=utf-8", "ok\n"};
          }
          if (path == "/snapshot") {
            if (config_.snapshot_path.empty()) {
              return {400, "text/plain; charset=utf-8",
                      "no --snapshot path configured\n"};
            }
            snapshot_now();
            return {200, "text/plain; charset=utf-8",
                    "ok version " +
                        std::to_string(metrics_.snapshot_last_version()) +
                        "\n"};
          }
          return {404, "text/plain; charset=utf-8", "not found\n"};
        },
        static_cast<std::uint16_t>(config_.http_port));
  }

  if (!config_.announce_path.empty()) write_announce_file();

  if (!config_.snapshot_path.empty() && config_.snapshot_interval_s > 0.0) {
    snapshot_thread_ = std::thread([this] { snapshot_loop(); });
  }
}

ReplicationDaemon::~ReplicationDaemon() {
  stop();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  if (http_) http_->stop();
}

std::uint16_t ReplicationDaemon::http_port() const noexcept {
  return http_ ? http_->port() : 0;
}

void ReplicationDaemon::stop() {
  stop_.store(true, std::memory_order_relaxed);
  snapshot_cv_.notify_all();
}

void ReplicationDaemon::run(const util::CancellationToken* token) {
  // Bridge the token into the stop flag so a cancel unblocks the source
  // polls promptly even when no frames are arriving.
  std::atomic<bool> run_done{false};
  std::thread token_watch;
  if (token) {
    token_watch = std::thread([this, token, &run_done] {
      while (!run_done.load(std::memory_order_relaxed)) {
        if (token->cancelled()) {
          stop();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  // Countable lines are batched so the sharded pipeline sees windows
  // worth planning: the batch grows while the source has more buffered
  // (never waiting for input), flushes through apply_batch — which is
  // byte-identical to per-line apply for any batch split — and is forced
  // down at every point the per-line loop would observe the store:
  // hello replies (the seq cursor), by-sequence snapshot boundaries, and
  // end of stream.
  std::vector<IngestLine> batch;
  const std::size_t batch_cap = std::max<std::size_t>(config_.apply.window, 1);
  const auto flush = [&] {
    if (batch.empty()) return;
    const auto t0 = Clock::now();
    store_->apply_batch(batch);
    // One sample per line, so latency percentiles stay comparable with
    // the per-line path: the batch's wall time amortized over its lines.
    metrics_.record_apply_latency(1e6 * seconds_since(t0, Clock::now()) /
                                  static_cast<double>(batch.size()));
    batch.clear();
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    const auto line = source_->next_line(stop_);
    if (!line) break;  // end of stream or stop
    Event event;
    const LineClass cls = classify_line(*line, &event);
    if (cls == LineClass::noise) continue;
    if (cls == LineClass::hello) {
      // Handshake: answer with the seq cursor (the count of countable
      // lines applied so far) so a resuming feeder can seek to seq + 1.
      // Pending lines flush first — they precede the hello in the stream
      // and must be inside the acked cursor.
      flush();
      ingest_.hellos.fetch_add(1, std::memory_order_relaxed);
      source_->reply(format_seq_reply(store_->seq()) + "\n");
      continue;
    }
    if (cls == LineClass::quit) break;
    IngestLine ingest_line;
    ingest_line.malformed = cls == LineClass::malformed;
    if (!ingest_line.malformed) ingest_line.event = event;
    batch.push_back(ingest_line);
    // Cadence keys on seq, which malformed lines advance too — the
    // by-sequence snapshot schedule must replay identically, so the
    // batch is cut exactly at the boundary.
    const bool boundary =
        config_.snapshot_every > 0 &&
        (store_->seq() + batch.size()) % config_.snapshot_every == 0;
    if (boundary || batch.size() >= batch_cap ||
        !source_->has_buffered_line()) {
      flush();
      if (boundary) snapshot_now();
    }
  }
  flush();

  stop();
  run_done.store(true, std::memory_order_relaxed);
  if (token_watch.joinable()) token_watch.join();

  // Graceful exit always persists a final snapshot — including the
  // deadline path, where the state is still consistent (events are
  // applied atomically) and worth keeping. In delta mode the chain is
  // collapsed into a single fresh base.
  if (!config_.snapshot_path.empty()) {
    if (chain_) {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      chain_->finalize(*store_);
      metrics_.record_snapshot(store_->version());
    } else {
      snapshot_now();
    }
  }

  if (token && token->cancelled() &&
      token->reason() == util::CancelReason::deadline) {
    throw util::cancelled_error(*token, "replicationd: deadline exceeded");
  }
}

void ReplicationDaemon::snapshot_now() {
  if (config_.snapshot_path.empty()) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (chain_) {
    // Incremental checkpoint: delta of the dirty nodes (or a fresh base
    // at the delta limit); the manifest write is the commit point.
    chain_->snapshot(*store_);
    metrics_.record_snapshot(store_->version());
    return;
  }
  // Record the version the image actually carries, not the store's
  // (possibly newer) live version.
  const StateImage image = store_->image();
  save_image(config_.snapshot_path, image);
  metrics_.record_snapshot(image.version);
}

void ReplicationDaemon::snapshot_loop() {
  const auto interval = std::chrono::duration<double>(
      config_.snapshot_interval_s);
  std::mutex wait_mu;
  std::unique_lock<std::mutex> lock(wait_mu);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (snapshot_cv_.wait_for(lock, interval) == std::cv_status::timeout &&
        !stop_.load(std::memory_order_relaxed)) {
      snapshot_now();
    }
  }
}

std::string ReplicationDaemon::render() const {
  const auto now = Clock::now();
  double rate = 0.0;
  {
    std::lock_guard<std::mutex> lock(rate_mu_);
    const std::uint64_t version = store_->version();
    const double dt = seconds_since(rate_time_, now);
    if (dt > 0.0) rate = static_cast<double>(version - rate_version_) / dt;
    rate_time_ = now;
    rate_version_ = version;
  }
  return render_metrics(*store_, metrics_, seconds_since(start_time_, now),
                        rate, &ingest_);
}

void ReplicationDaemon::write_announce_file() const {
  const std::uint16_t port = http_port();
  engine::atomic_write_file(
      config_.announce_path, [this, port](std::ostream& out) {
        out << "http_port " << port << '\n'
            << "socket " << config_.socket_path << '\n'
            << "tcp_port " << tcp_port_ << '\n'
            << "pid " << ::getpid() << '\n';
      });
}

}  // namespace impatience::service
