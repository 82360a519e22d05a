// Bounded daemon runs for the service tests. A stream whose end (the Q
// frame) never reaches the daemon — a framing regression — would leave
// ReplicationDaemon::run waiting forever; BoundedRun turns that into a
// failed check that names the case, instead of a ctest timeout.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "impatience/service/daemon.hpp"

namespace impatience::service {

/// Runs `daemon.run(nullptr)` on its own thread from construction. join()
/// waits for it up to a deadline; on expiry it stops the daemon through
/// its stop flag (ReplicationDaemon::stop, which unblocks the source
/// poll) and fails naming `what`. The ingest contract is that run() never
/// throws, so a throw fails the case too.
class BoundedRun {
 public:
  static constexpr std::chrono::seconds kDeadline{60};

  BoundedRun(ReplicationDaemon& daemon, std::string what)
      : daemon_(daemon), what_(std::move(what)), runner_([this] {
          EXPECT_NO_THROW(daemon_.run(nullptr)) << what_;
          std::lock_guard<std::mutex> lock(mu_);
          done_ = true;
          cv_.notify_one();
        }) {}

  BoundedRun(const BoundedRun&) = delete;
  BoundedRun& operator=(const BoundedRun&) = delete;

  ~BoundedRun() {
    if (runner_.joinable()) join();
  }

  /// Returns true when run() returned by itself within the deadline.
  bool join(std::chrono::milliseconds limit = kDeadline) {
    bool finished;
    {
      std::unique_lock<std::mutex> lock(mu_);
      finished = cv_.wait_for(lock, limit, [this] { return done_; });
    }
    if (!finished) {
      daemon_.stop();
      ADD_FAILURE() << what_ << ": daemon.run did not return within "
                    << limit.count()
                    << " ms (the stream's Q frame never reached it)";
    }
    runner_.join();
    return finished;
  }

 private:
  ReplicationDaemon& daemon_;
  std::string what_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread runner_;  // last: starts after the members it uses
};

}  // namespace impatience::service
