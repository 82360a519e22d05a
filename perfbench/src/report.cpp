#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[index];
}

double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::int64_t Tracer::add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::begin(const std::string& name, std::int64_t parent,
                           std::uint64_t batch) {
  if (!enabled_) return -1;
  const double t = now();
  return add(Span{name, t, t, parent, batch});
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = t;
}

double Tracer::total(const std::string& name, double from, double to) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.start >= from && s.start <= to) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

std::map<std::string, double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (parallel jobs): subtract their union,
    // clipped to the parent's interval.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "id\tname\tstart_s\tend_s\tparent\tbatch\n";
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
        << s.parent << '\t' << s.batch << '\n';
  }
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"trace.generate_s", "s"},
      {"trace.memoryless_s", "s"},
      {"trace.contacts", "count"},
      {"alloc.competitors_s", "s"},
      {"alloc.mf_competitors_s", "s"},
      {"alloc.mf_welfare_s", "s"},
      {"core.run_fixed_s", "s"},
      {"core.run_fixed_p50_ms", "ms"},
      {"core.run_fixed_p99_ms", "ms"},
      {"core.run_qcr_s", "s"},
      {"core.run_qcr_p50_ms", "ms"},
      {"core.run_qcr_p99_ms", "ms"},
      {"core.contacts_per_busy_s", "1/s"},
      {"core.requests", "count"},
      {"core.fulfillments", "count"},
      {"core.mandates_created", "count"},
      {"core.replicas_written", "count"},
      {"core.mf_qcr_s", "s"},
      {"core.mf_qcr_steps", "count"},
      {"core.mf_qcr_rejected_frac", "ratio"},
      {"engine.jobs", "count"},
      {"engine.jobs_failed", "count"},
      {"engine.busy_frac", "ratio"},
      {"engine.queue_wait_s", "s"},
      {"engine.serial_s", "s"},
      {"service.read_s", "s"},
      {"service.read_bytes", "bytes"},
      {"service.classify_s", "s"},
      {"service.malformed", "count"},
      {"service.apply_s", "s"},
      {"service.apply_p99_us", "us"},
      {"service.requests_served", "count"},
      {"service.mandates_created", "count"},
      {"service.replicas_written", "count"},
      {"service.image_s", "s"},
      {"service.serialize_s", "s"},
      {"service.persist_s", "s"},
      {"service.snapshot_bytes", "bytes"},
      {"service.render_s", "s"},
      {"loadgen.ack_p50_ms", "ms"},
      {"loadgen.ack_p99_ms", "ms"},
      {"loadgen.send_lag_p99_ms", "ms"},
      {"loadgen.sink_lines_per_s", "1/s"},
      {"loadgen.scrape_p50_ms", "ms"},
      {"loadgen.scrape_tail_ms", "ms"},
      {"overhead.sweep_s", "s"},
      {"overhead.ingest_events_per_s", "1/s"},
  };
  return names;
}

void fill_idle_layers(Outcome& outcome) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (!outcome.metrics.count(name)) outcome.set(name, 0.0, unit);
  }
}

std::map<std::uint64_t, std::uint64_t> load_reference(
    const std::string& path, const std::string& params) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("reference missing: " + path);
  std::string header;
  if (!std::getline(in, header) || header != "# " + params) {
    throw std::runtime_error("reference " + path +
                             ": header does not match '# " + params + "'");
  }
  std::map<std::uint64_t, std::uint64_t> digests;
  std::string line;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string hex;
    std::string extra;
    if (!(fields >> seed >> hex) || (fields >> extra) || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("reference " + path + ":" +
                               std::to_string(line_no) + ": malformed line");
    }
    if (!digests.emplace(seed, std::stoull(hex, nullptr, 16)).second) {
      throw std::runtime_error("reference " + path + ":" +
                               std::to_string(line_no) + ": duplicate seed");
    }
  }
  return digests;
}

}  // namespace perfbench
