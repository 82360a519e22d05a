// Shared plumbing of the perfbench program: timing, order statistics,
// the span recorder of the traced run, and the result every workload
// hands back to main() for printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// p-th percentile (0..100) by the nearest-rank rule; 0 when empty.
double percentile(std::vector<double> v, double p);

/// Peak resident set of this process so far, in MiB.
double self_peak_rss_mb();

/// FNV-1a over a string: the loss-table digest the references record.
std::uint64_t fnv1a(const std::string& text);

/// One traced interval. `parent` is the index of the enclosing span or
/// -1; `batch` groups spans of one request, job or line batch.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t batch = 0;
};

/// In-memory span store, written out once at exit. Thread-safe add();
/// spans are kept per batch of work, never per line or per event.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  double now() const { return seconds_between(epoch_, Clock::now()); }
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(Span span);
  /// Opens a span now; close it with end().
  std::int64_t begin(const std::string& name, std::int64_t parent = -1,
                     std::uint64_t batch = 0);
  void end(std::int64_t index);

  /// Total duration of spans named `name` that start within [from, to].
  double total(const std::string& name, double from = 0.0,
               double to = 1e300) const;
  /// Per span name: summed duration minus the union of its children's
  /// intervals (self time).
  std::map<std::string, double> self_times() const;
  /// Tab-separated span file: id name start end parent batch.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What a workload run returns: the printed metrics plus the attempt /
/// failure accounting and the outcome of every correctness check.
struct Outcome {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = correct
  std::vector<std::string> notes;           ///< extra human-readable lines

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;        ///< span files, working files (inside the checkout)
  std::string reference_dir;  ///< recorded loss-table digests
  std::string replicationd;   ///< daemon binary for the ingest workloads
  bool record = false;        ///< print the reference line instead of checking
};

/// Every per-layer metric name, so a traced run of any workload prints
/// the full set (0 for a layer the workload does not exercise).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills each per-layer metric the workload did not set with 0.
void fill_idle_layers(Outcome& outcome);

/// Reference digests by seed, from "<seed> <hex digest>" lines under a
/// "# <params>" header. Throws std::runtime_error when the file is
/// missing, its header does not match `params`, or a line is malformed.
std::map<std::uint64_t, std::uint64_t> load_reference(
    const std::string& path, const std::string& params);

}  // namespace perfbench
