// ingest_stream / ingest_snapshot: the real replicationd, spawned per
// pass and fed over one Unix-socket connection by the benchmark's own
// load generator (loadgen.hpp), with the paper's QCR online rule applied
// to live traffic.
//
//  * saturated pass: the whole generate_stream output as fast as the
//    socket takes it, then one H probe; throughput runs from the first
//    byte sent to the S reply that acks every countable line.
//  * paced pass: an open loop at a fixed offered rate below saturation,
//    an H probe every few hundred lines; each ack sample runs from
//    the due time of the probe's last line to its S reply.
//
// Both passes end with Q; the daemon's final snapshot must then equal,
// byte for byte, an in-process StateStore::apply replay of the lines it
// was sent. A traced run (--trace 1) additionally replays the daemon's
// ingest loop in-process on the same socket input and cadence, with
// spans around each library call.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "impatience/service/daemon.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/metrics.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/state_store.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace impatience;
namespace fs = std::filesystem;

constexpr std::uint64_t kEvents = 1000000;
constexpr service::ItemId kItems = 1000;
constexpr int kCapacity = 5;
constexpr const char* kUtility = "power:alpha=0";
constexpr double kPacedShare = 0.5;  ///< of --seconds spent in the paced pass
constexpr double kScrapeTailPercentile = 90.0;
constexpr int kSpawnOnlySetups = 7;  ///< extra set-up samples per run
constexpr double kLagBoundMs = 2.0;  ///< generator p99 lateness bound
constexpr std::size_t kTraceBatch = 8192;  ///< lines per traced batch span

struct Shape {
  std::string name;
  service::NodeId nodes;
  std::uint64_t snapshot_every;  ///< by-sequence cadence; 0 = final only
  double scrape_interval;        ///< seconds between scrapes; 0 = none
  double paced_rate;             ///< offered lines/s, below saturation
  std::size_t probe_every;       ///< lines between H probes
};

Shape shape_for(bool snapshots) {
  if (snapshots) return {"ingest_snapshot", 50000, 100000, 0.05, 100000, 250};
  return {"ingest_stream", 10000, 0, 0.0, 140000, 100};
}

service::StoreConfig store_config(const Shape& shape) {
  service::StoreConfig config;
  config.num_nodes = shape.nodes;
  config.num_items = kItems;
  config.cache_capacity = kCapacity;
  config.utility_spec = kUtility;
  return config;
}

LineBuffer make_stream(const Shape& shape, std::uint64_t seed) {
  service::StreamConfig config;
  config.events = kEvents;
  config.num_nodes = shape.nodes;
  config.num_items = kItems;
  config.quit = false;  // each pass sends its own Q
  LineBuffer out;
  const auto events = service::generate_stream(config, seed);
  out.ends.reserve(events.size());
  for (const auto& e : events) {
    out.text += service::format_event(e);
    out.text.push_back('\n');
    out.ends.push_back(out.text.size());
  }
  return out;
}

std::string serialize(const service::StateImage& image) {
  std::ostringstream os;
  service::write_image(os, image);
  return os.str();
}

/// The reference: every countable line applied in order through
/// StateStore::apply, imaged after `prefix` lines and after all of them.
struct Replay {
  std::string prefix_image;
  std::string full_image;
  service::StoreCounters counters;
};

Replay replay(const service::StoreConfig& config, std::uint64_t seed,
              const LineBuffer& stream, std::size_t prefix) {
  Replay out;
  service::StateStore store(config, seed);
  for (std::size_t i = 0; i < stream.lines(); ++i) {
    service::Event event;
    const auto cls = service::classify_line(stream.line(i), &event);
    if (cls == service::LineClass::event) {
      store.apply(event);
    } else if (cls == service::LineClass::malformed) {
      store.apply_malformed();
    }
    if (i + 1 == prefix) out.prefix_image = serialize(store.image());
  }
  out.full_image = serialize(store.image());
  out.counters = store.counters();
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A helper process, forked before the benchmark builds its stream and
/// replay, that forks, polls and reaps every replicationd on request.
/// Linux carries a forked process's resident set into the child's
/// ru_maxrss (across exec too), so a daemon forked from this small
/// helper reports its own peak, not the benchmark's footprint.
class Spawner {
 public:
  Spawner() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The helper dies with the benchmark; the benchmark is still
      // single-threaded here, so the helper may allocate freely.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::close(fds[0]);
      serve(fds[1]);
    }
    ::close(fds[1]);
    fd_ = fds[0];
  }

  /// Closing the channel makes the helper kill and reap any daemon it
  /// still runs, then exit; the helper is reaped here.
  ~Spawner() {
    ::close(fd_);
    ::waitpid(pid_, nullptr, 0);
  }

  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Starts `args` (args[0] is the binary) in `dir` with standard output
  /// and error appended to `log`. Returns the pid; `forked` is when the
  /// helper forked it.
  pid_t spawn(const std::vector<std::string>& args, const std::string& dir,
              const std::string& log, Clock::time_point* forked) {
    std::string payload = dir + '\0' + log + '\0';
    for (const auto& a : args) payload += a + '\0';
    const Reply reply = call('S', 0, payload);
    if (reply.pid <= 0) throw std::runtime_error("spawn failed");
    *forked = Clock::time_point(Clock::duration(reply.forked_ticks));
    return static_cast<pid_t>(reply.pid);
  }

  /// Reaps `pid` if it has ended. Returns false while it runs; true once
  /// it ended (then `status` and `peak_rss_mb`, from wait4, are set).
  bool poll(pid_t pid, int* status, double* peak_rss_mb) {
    const Reply reply = call('P', pid, {});
    if (reply.state < 0) throw std::runtime_error("wait4 failed");
    if (reply.state == 0) return false;
    *status = reply.status;
    *peak_rss_mb = static_cast<double>(reply.maxrss_kib) / 1024.0;
    return true;
  }

  /// SIGKILLs and reaps `pid`.
  void kill(pid_t pid) { call('K', pid, {}); }

 private:
  struct Request {
    char op;  ///< S spawn, P poll, K kill
    std::int64_t pid;
  };
  struct Reply {
    std::int64_t pid = -1;
    std::int64_t forked_ticks = 0;
    std::int32_t state = 0;  ///< poll: 0 running, 1 ended, -1 error
    std::int32_t status = 0;
    std::int64_t maxrss_kib = 0;
  };

  Reply call(char op, pid_t pid, const std::string& payload) {
    const Request request{op, pid};
    std::string message(reinterpret_cast<const char*>(&request),
                        sizeof(request));
    message += payload;
    Reply reply;
    if (::send(fd_, message.data(), message.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(message.size()) ||
        ::recv(fd_, &reply, sizeof(reply), 0) !=
            static_cast<ssize_t>(sizeof(reply))) {
      throw std::runtime_error("daemon spawner is gone");
    }
    return reply;
  }

  [[noreturn]] static void serve(int fd) {
    std::vector<pid_t> running;
    std::vector<char> buffer(64 * 1024);
    for (;;) {
      const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
      if (n < static_cast<ssize_t>(sizeof(Request))) break;
      Request request;
      std::memcpy(&request, buffer.data(), sizeof(request));
      const auto pid = static_cast<pid_t>(request.pid);
      Reply reply;
      if (request.op == 'S') {
        std::vector<std::string> fields;
        const char* p = buffer.data() + sizeof(request);
        const char* end = buffer.data() + n;
        while (p < end) {
          fields.emplace_back(p);
          p += fields.back().size() + 1;
        }
        std::vector<char*> argv;
        for (std::size_t i = 2; i < fields.size(); ++i) {
          argv.push_back(fields[i].data());
        }
        argv.push_back(nullptr);
        reply.forked_ticks = Clock::now().time_since_epoch().count();
        reply.pid = ::fork();
        if (reply.pid == 0) {
          // Async-signal-safe calls only, then exec. The daemon dies
          // with the helper even if the helper is killed.
          ::prctl(PR_SET_PDEATHSIG, SIGKILL);
          const int log = ::open(fields[1].c_str(),
                                 O_WRONLY | O_CREAT | O_APPEND, 0644);
          if (log >= 0) {
            ::dup2(log, 1);
            ::dup2(log, 2);
          }
          if (::chdir(fields[0].c_str()) == 0) ::execv(argv[0], argv.data());
          ::_exit(127);
        }
        if (reply.pid > 0) running.push_back(static_cast<pid_t>(reply.pid));
      } else if (request.op == 'P') {
        int status = 0;
        struct rusage usage {};
        const pid_t r = ::wait4(pid, &status, WNOHANG, &usage);
        reply.state = r == pid ? 1 : (r == 0 ? 0 : -1);
        reply.status = status;
        reply.maxrss_kib = usage.ru_maxrss;
      } else if (request.op == 'K') {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
      if (reply.state != 0 || request.op == 'K') {
        running.erase(std::remove(running.begin(), running.end(), pid),
                      running.end());
      }
      if (::send(fd, &reply, sizeof(reply), MSG_NOSIGNAL) < 0) break;
    }
    for (const pid_t pid : running) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    ::_exit(0);
  }

  int fd_ = -1;
  pid_t pid_ = -1;
};

/// A replicationd started through the Spawner. The destructor kills and
/// reaps a daemon that is still running, so no process outlives the
/// benchmark.
class DaemonProcess {
 public:
  DaemonProcess(Spawner& spawner, const std::string& binary,
                const Shape& shape, std::uint64_t seed,
                const std::string& dir)
      : spawner_(spawner), dir_(dir) {
    fs::remove(dir + "/d.announce");
    fs::remove(dir + "/d.snap");
    std::vector<std::string> args{fs::absolute(binary).string(),
                                  "--nodes", std::to_string(shape.nodes),
                                  "--items", std::to_string(kItems),
                                  "--capacity", std::to_string(kCapacity),
                                  "--utility", kUtility,
                                  "--seed", std::to_string(seed),
                                  "--socket", "d.sock",
                                  "--port", "0",
                                  "--announce", "d.announce",
                                  "--snapshot", "d.snap"};
    if (shape.snapshot_every > 0) {
      args.push_back("--snapshot-every");
      args.push_back(std::to_string(shape.snapshot_every));
    }
    pid_ = spawner_.spawn(args, dir, dir + "/daemon.log", &spawned_);
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      try {
        spawner_.kill(pid_);
      } catch (const std::exception&) {
        // The spawner is gone, and with it the daemon (PR_SET_PDEATHSIG).
      }
    }
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Seconds from fork until the announce file appears (the daemon's
  /// set-up time); reads the bound HTTP port from it.
  double wait_ready(double timeout_s) {
    const std::string path = dir_ + "/d.announce";
    for (;;) {
      if (::access(path.c_str(), F_OK) == 0) {
        const double setup = seconds_between(spawned_, Clock::now());
        std::ifstream in(path);
        std::string key;
        unsigned port = 0;
        while (in >> key) {
          if (key == "http_port") in >> port;
        }
        http_port_ = static_cast<std::uint16_t>(port);
        return setup;
      }
      int status = 0;
      double rss = 0.0;
      if (spawner_.poll(pid_, &status, &rss)) {
        pid_ = -1;
        throw std::runtime_error("replicationd exited during start-up; see " +
                                 dir_ + "/daemon.log");
      }
      if (seconds_between(spawned_, Clock::now()) > timeout_s) {
        throw std::runtime_error("replicationd did not announce in time");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::string socket_path() const { return dir_ + "/d.sock"; }
  std::string snapshot_path() const { return dir_ + "/d.snap"; }
  std::uint16_t http_port() const { return http_port_; }

  /// Reaps the daemon; returns true on a clean exit and its peak RSS
  /// (wait4 ru_maxrss) in MiB.
  bool wait_exit(double timeout_s, double* peak_rss_mb) {
    const auto t0 = Clock::now();
    int status = 0;
    while (!spawner_.poll(pid_, &status, peak_rss_mb)) {
      if (seconds_between(t0, Clock::now()) > timeout_s) {
        spawner_.kill(pid_);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  Spawner& spawner_;
  std::string dir_;
  Clock::time_point spawned_{};
  pid_t pid_ = -1;
  std::uint16_t http_port_ = 0;
};

/// The daemon's ingest loop (ReplicationDaemon::run with the default
/// sequential apply), replayed in-process from the benchmark's own code
/// so each library call can be timed: LineSource::next_line on
/// make_socket_source, classify_line, StateStore::apply, and the
/// by-sequence snapshot (image, write_image, save_image). Spans are kept
/// per batch of kTraceBatch lines: the batch span's children are its
/// per-layer totals, packed end to end from the batch start, so a
/// batch's self time is the loop's own bookkeeping. With a disabled
/// tracer the loop takes no timestamps and serializes no extra image, so
/// traced minus untraced replay is the cost of tracing.
class TracedLoop {
 public:
  TracedLoop(const service::StoreConfig& config, std::uint64_t seed,
             const Shape& shape, const std::string& dir, Tracer& tracer)
      : shape_(shape),
        dir_(dir),
        tracer_(tracer),
        store_(config, seed),
        source_(service::make_socket_source(dir + "/t.sock", &counters_,
                                            256 * 1024)),
        started_(Clock::now()) {
    fs::remove(snapshot_path());
    if (shape.scrape_interval > 0) {
      http_ = std::make_unique<service::HttpServer>(
          [this](const std::string& path) -> service::HttpResponse {
            if (path != "/metrics") return {404, "text/plain", "not found\n"};
            const auto t0 = Clock::now();
            std::string body = service::render_metrics(
                store_, metrics_, seconds_between(started_, t0), 0.0,
                &counters_);
            tracer_.add(Span{"service.render", tracer_.at(t0), tracer_.now(),
                             -1, 0});
            return {200, "text/plain; charset=utf-8", std::move(body)};
          },
          0);
    }
    thread_ = std::thread([this] { run(); });
  }

  ~TracedLoop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (http_) http_->stop();
  }

  TracedLoop(const TracedLoop&) = delete;
  TracedLoop& operator=(const TracedLoop&) = delete;

  std::string socket_path() const { return dir_ + "/t.sock"; }
  std::string snapshot_path() const { return dir_ + "/t.snap"; }
  std::uint16_t http_port() const { return http_ ? http_->port() : 0; }

  /// Waits for the loop to end (on Q); false on timeout or failure.
  bool join(double timeout_s) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    while (!done_.load() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_.store(true);
    thread_.join();
    if (http_) http_->stop();
    return done_.load() && error_.empty();
  }

  const std::string& error() const { return error_; }
  std::uint64_t read_bytes() const { return read_bytes_; }
  const std::vector<double>& apply_us() const { return apply_us_; }
  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }
  service::StoreCounters counters() const { return store_.counters(); }

 private:
  void run() {
    try {
      loop();
      snapshot();
      done_.store(true);
    } catch (const std::exception& e) {
      error_ = e.what();
      done_.store(true);
    }
  }

  void loop() {
    const bool timed = tracer_.enabled();
    const auto stamp = [timed] {
      return timed ? Clock::now() : Clock::time_point{};
    };
    double read = 0.0;
    double classify = 0.0;
    double apply = 0.0;
    std::size_t in_batch = 0;
    auto batch_start = stamp();
    const auto close_batch = [&] {
      const double s = tracer_.at(batch_start);
      const std::int64_t parent = tracer_.add(
          Span{"service.batch", s, tracer_.now(), -1, ++batch_});
      tracer_.add(Span{"service.read", s, s + read, parent, batch_});
      tracer_.add(Span{"service.classify", s + read, s + read + classify,
                       parent, batch_});
      tracer_.add(Span{"service.apply", s + read + classify,
                       s + read + classify + apply, parent, batch_});
      read = classify = apply = 0.0;
      in_batch = 0;
      batch_start = Clock::now();
    };
    for (;;) {
      const auto t0 = stamp();
      const auto line = source_->next_line(stop_);
      const auto t1 = stamp();
      read += seconds_between(t0, t1);
      if (!line) break;
      read_bytes_ += line->size() + 1;
      service::Event event;
      const auto cls = service::classify_line(*line, &event);
      const auto t2 = stamp();
      classify += seconds_between(t1, t2);
      if (cls == service::LineClass::noise) continue;
      if (cls == service::LineClass::hello) {
        source_->reply(service::format_seq_reply(store_.seq()) + "\n");
        continue;
      }
      if (cls == service::LineClass::quit) break;
      if (cls == service::LineClass::event) {
        store_.apply(event);
      } else {
        store_.apply_malformed();
      }
      if (timed) {
        const double d = seconds_between(t2, Clock::now());
        apply += d;
        apply_us_.push_back(1e6 * d);
        if (++in_batch == kTraceBatch) {
          metrics_.record_apply_latency(1e6 * apply / in_batch);
          close_batch();
        }
      }
      if (shape_.snapshot_every > 0 &&
          store_.seq() % shape_.snapshot_every == 0) {
        // The snapshot is its own span, outside any batch.
        if (in_batch > 0) close_batch();
        snapshot();
        batch_start = stamp();
      }
    }
    if (in_batch > 0) close_batch();
  }

  void snapshot() {
    const std::int64_t parent = tracer_.begin("service.snapshot");
    const std::int64_t image_span = tracer_.begin("service.image", parent);
    const service::StateImage image = store_.image();
    tracer_.end(image_span);
    if (tracer_.enabled()) {
      const std::int64_t ser = tracer_.begin("service.serialize", parent);
      snapshot_bytes_ = serialize(image).size();
      tracer_.end(ser);
    }
    const std::int64_t persist = tracer_.begin("service.persist", parent);
    service::save_image(snapshot_path(), image);
    tracer_.end(persist);
    tracer_.end(parent);
    metrics_.record_snapshot(image.version);
  }

  Shape shape_;
  std::string dir_;
  Tracer& tracer_;
  service::StateStore store_;
  service::IngestCounters counters_;
  service::ServiceMetrics metrics_;
  std::unique_ptr<service::LineSource> source_;
  std::unique_ptr<service::HttpServer> http_;
  Clock::time_point started_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::string error_;
  std::uint64_t batch_ = 0;
  std::uint64_t read_bytes_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
  std::vector<double> apply_us_;
  std::thread thread_;  // last: started after the members it uses
};

struct SaturatedPass {
  double events_per_s = 0.0;
  bool acked = false;
  std::vector<double> scrape_ms;
  std::uint64_t scrape_failures = 0;
};

/// Sends the whole stream as fast as the socket takes it, then one H
/// probe; scrapes /metrics meanwhile when the shape asks for it.
SaturatedPass saturated_pass(const std::string& socket,
                             std::uint16_t http_port, const Shape& shape,
                             const LineBuffer& stream) {
  SaturatedPass out;
  const int fd = connect_unix(socket);
  {
    ReplyReader reader(fd);
    std::optional<Scraper> scraper;
    if (shape.scrape_interval > 0) {
      scraper.emplace(http_port, shape.scrape_interval);
    }
    const auto t0 = Clock::now();
    send_all(fd, stream.text.data(), stream.text.size());
    send_all(fd, "H\n", 2);
    const auto ack = reader.wait_for(stream.lines(), 120.0);
    if (ack) {
      out.acked = true;
      out.events_per_s =
          static_cast<double>(stream.lines()) / seconds_between(t0, *ack);
    }
    if (scraper) {
      scraper->stop();
      for (const double s : scraper->rtt_s()) out.scrape_ms.push_back(1e3 * s);
      out.scrape_failures = scraper->failures();
    }
    send_all(fd, "Q\n", 2);
  }
  ::close(fd);
  return out;
}

struct PacedPass {
  std::vector<double> ack_ms;
  std::size_t probes = 0;
  std::size_t unacked = 0;
  std::vector<double> lag_ms;
  std::vector<double> scrape_ms;
  std::uint64_t scrape_failures = 0;
};

PacedPass paced_pass(const std::string& socket, std::uint16_t http_port,
                     const Shape& shape, const LineBuffer& stream,
                     std::size_t lines) {
  PacedPass out;
  const int fd = connect_unix(socket);
  {
    ReplyReader reader(fd);
    std::optional<Scraper> scraper;
    if (shape.scrape_interval > 0) {
      scraper.emplace(http_port, shape.scrape_interval);
    }
    const PacedResult sent =
        send_paced(fd, stream, lines, shape.paced_rate, shape.probe_every);
    reader.wait_for(lines, 60.0);
    if (scraper) {
      scraper->stop();
      for (const double s : scraper->rtt_s()) out.scrape_ms.push_back(1e3 * s);
      out.scrape_failures = scraper->failures();
    }
    std::map<std::uint64_t, Clock::time_point> arrivals;
    for (const auto& [seq, t] : reader.replies()) arrivals.emplace(seq, t);
    out.probes = sent.probes.size();
    for (const auto& probe : sent.probes) {
      const auto it = arrivals.find(probe.seq);
      if (it == arrivals.end()) {
        ++out.unacked;
      } else {
        out.ack_ms.push_back(1e3 * seconds_between(probe.due, it->second));
      }
    }
    for (const double s : sent.lag_s) out.lag_ms.push_back(1e3 * s);
    send_all(fd, "Q\n", 2);
  }
  ::close(fd);
  return out;
}

void check_snapshot(Outcome& outcome, const std::string& what,
                    const std::string& path, const std::string& expected) {
  const std::string actual = read_file(path);
  outcome.check(!actual.empty() && actual == expected,
                what + ": final snapshot " + path +
                    " differs from the in-process StateStore::apply replay");
}

}  // namespace

Outcome run_ingest(const RunOptions& options, bool snapshots,
                   Tracer& tracer) {
  // First, while this process is still small and single-threaded.
  Spawner spawner;
  Outcome outcome;
  const Shape shape = shape_for(snapshots);
  const service::StoreConfig config = store_config(shape);
  const std::string dir = options.out_dir + "/" + shape.name;
  fs::create_directories(dir);

  const LineBuffer stream = make_stream(shape, options.seed);
  const std::size_t paced_lines = std::min<std::size_t>(
      stream.lines(),
      static_cast<std::size_t>(shape.paced_rate * kPacedShare *
                               options.seconds));
  const Replay ref = replay(config, options.seed, stream, paced_lines);
  outcome.check(ref.counters.events_malformed == 0,
                "generated stream has malformed lines");
  if (!snapshots) {
    outcome.check(ref.counters.mandates_created > 0,
                  "ingest_stream created no mandates");
  }
  const double sink = sink_lines_per_s(stream);
  outcome.notes.push_back(
      shape.name + ": " + std::to_string(stream.lines()) + " lines (" +
      std::to_string(stream.text.size()) + " bytes), paced prefix " +
      std::to_string(paced_lines) + ", replay: " +
      std::to_string(ref.counters.requests_served()) + " requests served, " +
      std::to_string(ref.counters.mandates_created) + " mandates created");

  std::vector<double> setup_samples;
  // Spawn-only samples: start, announce, then the destructor's SIGKILL
  // (nothing was ingested, so there is no state worth a final snapshot).
  for (int i = 0; i < kSpawnOnlySetups; ++i) {
    DaemonProcess daemon(spawner, options.replicationd, shape, options.seed,
                         dir);
    setup_samples.push_back(daemon.wait_ready(30.0));
  }

  const auto account_saturated = [&](const SaturatedPass& pass,
                                     const std::string& what) {
    outcome.attempted +=
        stream.lines() + 1 + pass.scrape_ms.size() + pass.scrape_failures;
    outcome.failed += ref.counters.events_malformed + (pass.acked ? 0 : 1) +
                      pass.scrape_failures;
    outcome.check(pass.acked, what + ": final H probe unacked");
    outcome.check(pass.scrape_failures == 0, what + ": scrapes failed");
  };
  const auto account_paced = [&](const PacedPass& pass,
                                 const std::string& what) {
    outcome.attempted += paced_lines + pass.probes + pass.scrape_ms.size() +
                         pass.scrape_failures;
    outcome.failed += pass.unacked + pass.scrape_failures;
    outcome.check(pass.unacked == 0, what + ": " +
                                         std::to_string(pass.unacked) +
                                         " probes unacked");
    outcome.check(pass.scrape_failures == 0, what + ": scrapes failed");
    const double lag = percentile(pass.lag_ms, 99);
    outcome.check(lag <= kLagBoundMs,
                  "run invalid: generator lag p99 " + std::to_string(lag) +
                      " ms exceeds " + std::to_string(kLagBoundMs) + " ms");
  };

  // Saturated pass against the real daemon.
  SaturatedPass saturated;
  double peak_rss = 0.0;
  {
    DaemonProcess daemon(spawner, options.replicationd, shape, options.seed,
                         dir);
    setup_samples.push_back(daemon.wait_ready(30.0));
    saturated = saturated_pass(daemon.socket_path(), daemon.http_port(),
                               shape, stream);
    outcome.check(daemon.wait_exit(60.0, &peak_rss),
                  "saturated pass: replicationd did not exit cleanly");
    check_snapshot(outcome, "saturated pass", daemon.snapshot_path(),
                   ref.full_image);
  }
  account_saturated(saturated, "saturated pass");
  outcome.check(sink >= 2.0 * saturated.events_per_s,
                "run invalid: generator null-sink rate " +
                    std::to_string(sink) + " lines/s is below 2x the "
                    "daemon's saturated rate");

  if (!options.trace) {
    PacedPass paced;
    {
      DaemonProcess daemon(spawner, options.replicationd, shape, options.seed,
                         dir);
      setup_samples.push_back(daemon.wait_ready(30.0));
      paced = paced_pass(daemon.socket_path(), daemon.http_port(), shape,
                         stream, paced_lines);
      double rss = 0.0;
      outcome.check(daemon.wait_exit(60.0, &rss),
                    "paced pass: replicationd did not exit cleanly");
      check_snapshot(outcome, "paced pass", daemon.snapshot_path(),
                     ref.prefix_image);
    }
    account_paced(paced, "paced pass");
    outcome.set("setup_s", median(setup_samples), "s");
    outcome.set("sweep_s",
                static_cast<double>(stream.lines()) / saturated.events_per_s,
                "s");
    outcome.set("ingest_events_per_s", saturated.events_per_s, "1/s");
    outcome.set("peak_rss_mb", peak_rss, "MiB");
    std::ostringstream note;
    note << shape.name << " paced pass at " << shape.paced_rate
         << " lines/s: " << paced.ack_ms.size() << " acks, p50 "
         << percentile(paced.ack_ms, 50) << " p90 "
         << percentile(paced.ack_ms, 90) << " p99 "
         << percentile(paced.ack_ms, 99) << " ms; generator lag p99 "
         << percentile(paced.lag_ms, 99) << " ms; null sink " << sink
         << " lines/s";
    if (!saturated.scrape_ms.empty()) {
      note << "; saturated-pass scrapes " << saturated.scrape_ms.size()
           << ", p50 " << percentile(saturated.scrape_ms, 50) << " p"
           << kScrapeTailPercentile << ' '
           << percentile(saturated.scrape_ms, kScrapeTailPercentile) << " ms";
    }
    outcome.notes.push_back(note.str());
    return outcome;
  }

  // Traced run: the saturated pass against the in-process loop, first
  // untraced (the baseline of the tracing overhead), then traced, and
  // the paced pass traced.
  SaturatedPass untraced;
  {
    Tracer off(false);
    TracedLoop loop(config, options.seed, shape, dir, off);
    untraced = saturated_pass(loop.socket_path(), loop.http_port(), shape,
                              stream);
    outcome.check(loop.join(60.0), "untraced loop failed: " + loop.error());
    check_snapshot(outcome, "untraced replay pass", loop.snapshot_path(),
                   ref.full_image);
  }
  account_saturated(untraced, "untraced replay pass");
  SaturatedPass traced;
  double sat_from = 0.0;
  double sat_to = 0.0;
  std::uint64_t read_bytes = 0;
  std::vector<double> apply_us;
  std::uint64_t snapshot_bytes = 0;
  service::StoreCounters counters;
  {
    sat_from = tracer.now();
    TracedLoop loop(config, options.seed, shape, dir, tracer);
    traced = saturated_pass(loop.socket_path(), loop.http_port(), shape,
                            stream);
    outcome.check(loop.join(60.0), "traced loop failed: " + loop.error());
    sat_to = tracer.now();
    check_snapshot(outcome, "traced saturated pass", loop.snapshot_path(),
                   ref.full_image);
    read_bytes = loop.read_bytes();
    apply_us = loop.apply_us();
    snapshot_bytes = loop.snapshot_bytes();
    counters = loop.counters();
  }
  account_saturated(traced, "traced saturated pass");
  PacedPass paced;
  {
    TracedLoop loop(config, options.seed, shape, dir, tracer);
    paced = paced_pass(loop.socket_path(), loop.http_port(), shape, stream,
                       paced_lines);
    outcome.check(loop.join(60.0), "traced loop failed: " + loop.error());
    check_snapshot(outcome, "traced paced pass", loop.snapshot_path(),
                   ref.prefix_image);
  }
  account_paced(paced, "traced paced pass");

  // Layer totals over the traced saturated pass, the one that sets
  // ingest_events_per_s.
  const auto layer = [&](const char* span) {
    return tracer.total(span, sat_from, sat_to);
  };
  outcome.set("service.read_s", layer("service.read"), "s");
  outcome.set("service.read_bytes", static_cast<double>(read_bytes), "bytes");
  outcome.set("service.classify_s", layer("service.classify"), "s");
  outcome.set("service.malformed",
              static_cast<double>(counters.events_malformed), "count");
  outcome.set("service.apply_s", layer("service.apply"), "s");
  outcome.set("service.apply_p99_us", percentile(apply_us, 99), "us");
  outcome.set("service.requests_served",
              static_cast<double>(counters.requests_served()), "count");
  outcome.set("service.mandates_created",
              static_cast<double>(counters.mandates_created), "count");
  outcome.set("service.replicas_written",
              static_cast<double>(counters.replicas_written), "count");
  outcome.set("service.image_s", layer("service.image"), "s");
  outcome.set("service.serialize_s", layer("service.serialize"), "s");
  outcome.set("service.persist_s", layer("service.persist"), "s");
  outcome.set("service.snapshot_bytes", static_cast<double>(snapshot_bytes),
              "bytes");
  outcome.set("service.render_s", layer("service.render"), "s");
  outcome.set("loadgen.ack_p50_ms", percentile(paced.ack_ms, 50), "ms");
  outcome.set("loadgen.ack_p99_ms", percentile(paced.ack_ms, 99), "ms");
  outcome.set("loadgen.send_lag_p99_ms", percentile(paced.lag_ms, 99), "ms");
  outcome.set("loadgen.sink_lines_per_s", sink, "1/s");
  outcome.set("loadgen.scrape_p50_ms", percentile(traced.scrape_ms, 50),
              "ms");
  outcome.set("loadgen.scrape_tail_ms",
              percentile(traced.scrape_ms, kScrapeTailPercentile), "ms");
  outcome.set("overhead.ingest_events_per_s",
              traced.events_per_s - untraced.events_per_s, "1/s");
  return outcome;
}

}  // namespace perfbench
