#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"

namespace perfbench {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

ReplyReader::ReplyReader(int fd) : fd_(fd), thread_([this] { loop(); }) {}

ReplyReader::~ReplyReader() {
  ::shutdown(fd_, SHUT_RDWR);
  thread_.join();
}

void ReplyReader::loop() {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const auto now = Clock::now();
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const auto seq = impatience::service::parse_seq_reply(
          std::string_view(pending).substr(0, nl));
      pending.erase(0, nl + 1);
      if (!seq) continue;
      std::lock_guard<std::mutex> lock(mu_);
      replies_.emplace_back(*seq, now);
    }
    cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::optional<Clock::time_point> ReplyReader::wait_for(std::uint64_t seq,
                                                       double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  std::optional<Clock::time_point> found;
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
    for (const auto& [s, t] : replies_) {
      if (s == seq) {
        found = t;
        return true;
      }
    }
    return closed_;
  });
  return found;
}

std::vector<std::pair<std::uint64_t, Clock::time_point>> ReplyReader::replies()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return replies_;
}

void send_all(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t k = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) throw std::runtime_error("send failed: connection lost");
    sent += static_cast<std::size_t>(k);
  }
}

PacedResult send_paced(int fd, const LineBuffer& stream, std::size_t lines,
                       double rate, std::size_t probe_every) {
  // The wire bytes: the line prefix with an H probe spliced in after
  // every probe_every-th line and after the last one.
  std::string wire;
  wire.reserve(stream.ends[lines - 1] + 2 * (lines / probe_every + 1));
  std::vector<std::size_t> wire_end(lines);
  PacedResult result;
  std::vector<std::size_t> probe_line;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::string_view line = stream.line(i);
    wire.append(line.data(), line.size());
    wire.push_back('\n');
    if ((i + 1) % probe_every == 0 || i + 1 == lines) {
      wire.append("H\n");
      probe_line.push_back(i);
    }
    wire_end[i] = wire.size();
  }

  const auto period = std::chrono::duration<double>(1.0 / rate);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
  };
  for (const std::size_t i : probe_line) {
    result.probes.push_back({static_cast<std::uint64_t>(i + 1), due(i)});
  }

  std::size_t due_lines = 0;
  std::size_t due_bytes = 0;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const auto now = Clock::now();
    if (now >= t0 && due_lines < lines) {
      const auto elapsed = std::chrono::duration<double>(now - t0).count();
      const std::size_t target = std::min(
          lines, static_cast<std::size_t>(elapsed * rate) + 1);
      if (target > due_lines) {
        // Lateness is the generator's own only while it had nothing
        // queued; behind a full socket the backlog is the daemon's.
        if (sent == due_bytes) {
          result.lag_s.push_back(seconds_between(due(due_lines), now));
        }
        due_lines = target;
        due_bytes = wire_end[due_lines - 1];
      }
    }
    if (sent < due_bytes) {
      const ssize_t k = ::send(fd, wire.data() + sent, due_bytes - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (k > 0) {
        sent += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error("paced send failed: connection lost");
      }
      // Socket full: wait for room, but never past the next due line.
      struct pollfd pfd{fd, POLLOUT, 0};
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::clamp(due(due_lines) - now, Clock::duration::zero(),
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::milliseconds(1))));
      const struct timespec ts{0, static_cast<long>(wait.count())};
      ::ppoll(&pfd, 1, &ts, nullptr);
      continue;
    }
    if (due_lines < lines) {
      std::this_thread::sleep_until(
          std::min(due(due_lines), now + std::chrono::milliseconds(1)));
    }
  }
  return result;
}

double sink_lines_per_s(const LineBuffer& stream) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair() failed");
  }
  std::thread drain([fd = fds[1]] {
    char buf[1 << 16];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
  });
  const auto t0 = Clock::now();
  send_all(fds[0], stream.text.data(), stream.text.size());
  const double seconds = seconds_between(t0, Clock::now());
  ::shutdown(fds[0], SHUT_WR);
  drain.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return static_cast<double>(stream.lines()) / seconds;
}

Scraper::Scraper(std::uint16_t port, double interval_s)
    : port_(port), interval_s_(interval_s), thread_([this] { loop(); }) {}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Scraper::loop() {
  const auto period = std::chrono::duration<double>(interval_s_);
  auto next = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    next += std::chrono::duration_cast<Clock::duration>(period);
    if (cv_.wait_until(lock, next, [this] { return stopping_; })) return;
    lock.unlock();
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      impatience::service::http_get(port_, "/metrics");
    } catch (const std::exception&) {
      ok = false;
    }
    const double rtt = seconds_between(t0, Clock::now());
    lock.lock();
    if (ok) {
      rtt_s_.push_back(rtt);
    } else {
      ++failures_;
    }
    // A scrape that overran its tick skips the missed ticks.
    while (next + period < Clock::now()) {
      next += std::chrono::duration_cast<Clock::duration>(period);
    }
  }
}

}  // namespace perfbench
