// The ingest load generator: one Unix-socket connection, an open-loop
// sender on a fixed schedule, and a reader thread that collects the
// daemon's "S <seq>" replies without ever blocking the sends.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// A protocol stream held as one buffer of LF-terminated lines.
struct LineBuffer {
  std::string text;
  std::vector<std::size_t> ends;  ///< byte offset just past line i

  std::size_t lines() const noexcept { return ends.size(); }
  std::string_view line(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(text).substr(begin, ends[i] - begin - 1);
  }
};

/// Connects to a listening Unix-domain socket; throws
/// std::runtime_error on failure.
int connect_unix(const std::string& path);

/// Collects "S <seq>" replies on `fd` on its own thread, stamping each
/// on arrival. The destructor shuts the socket down and joins.
class ReplyReader {
 public:
  explicit ReplyReader(int fd);
  ~ReplyReader();
  ReplyReader(const ReplyReader&) = delete;
  ReplyReader& operator=(const ReplyReader&) = delete;

  /// Arrival time of the first reply carrying `seq`; std::nullopt when
  /// none arrived within `timeout_s`.
  std::optional<Clock::time_point> wait_for(std::uint64_t seq,
                                            double timeout_s);
  /// Every reply so far, in arrival order.
  std::vector<std::pair<std::uint64_t, Clock::time_point>> replies() const;

 private:
  void loop();

  int fd_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> replies_;
  bool closed_ = false;
  std::thread thread_;  // last: started after the members it uses
};

/// Sends `n` bytes, blocking; throws std::runtime_error on failure.
void send_all(int fd, const char* data, std::size_t n);

/// Open-loop schedule: line i is due at t0 + i / rate; an "H" probe
/// follows every `probe_every`-th line and the last line.
struct PacedResult {
  struct Probe {
    std::uint64_t seq = 0;        ///< countable lines before the probe
    Clock::time_point due{};      ///< due time of the last line before it
  };
  std::vector<Probe> probes;
  std::vector<double> lag_s;  ///< per wake-up: how late the sender ran
};

/// Sends the first `lines` lines of `stream` at `rate` lines/s with
/// non-blocking writes: a full socket leaves due bytes queued here, so
/// the schedule never slows when the daemon does.
PacedResult send_paced(int fd, const LineBuffer& stream, std::size_t lines,
                       double rate, std::size_t probe_every);

/// Saturated sender throughput into a null sink (a socketpair drained
/// by a discarding thread): lines per second the generator can offer.
double sink_lines_per_s(const LineBuffer& stream);

/// Scrapes GET /metrics on 127.0.0.1:`port` every `interval_s` on its
/// own thread until stop(); records round-trip times and failures.
class Scraper {
 public:
  Scraper(std::uint16_t port, double interval_s);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop();
  const std::vector<double>& rtt_s() const { return rtt_s_; }  ///< after stop()
  std::uint64_t failures() const { return failures_; }         ///< after stop()

 private:
  void loop();

  std::uint16_t port_;
  double interval_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> rtt_s_;
  std::uint64_t failures_ = 0;
  std::thread thread_;
};

}  // namespace perfbench
