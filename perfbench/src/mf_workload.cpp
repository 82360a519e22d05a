// mf_million: the fig4 power and step sweeps through the mean-field
// evaluator (the fluid limit) at N = 10^6 nodes, 50 items, T = 5000, on
// one thread — mean_field_competitors, mean_field_welfare and
// mean_field_qcr exactly as `fig4_homogeneous --eval mf` calls them.
// The seed draws the item popularities: Pareto(1) rank weights, each
// scaled by a log-normal jitter, so every seed is a different catalog of
// the same shape.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>

#include "impatience/core/experiment.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/utility/families.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace impatience;

constexpr double kNodes = 1e6;
constexpr core::ItemId kItems = 50;
constexpr trace::Slot kHorizon = 5000;
constexpr double kMu = 0.05;
constexpr int kRho = 5;
constexpr double kJitterSigma = 0.1;
constexpr int kSetupsPerSweep = 5;
/// Nominal sweep wall time on the reference host: --seconds buys a
/// fixed number of sweeps, so every run of a seed does the same work.
constexpr double kNominalSweepS = 10.0;
constexpr double kPowerAlphas[] = {-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 0.9};
constexpr double kStepTaus[] = {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0};

std::string reference_params() {
  std::ostringstream os;
  os << "mf_million nodes=" << kNodes << " items=" << kItems
     << " horizon=" << kHorizon << " mu=" << kMu << " rho=" << kRho
     << " jitter=" << kJitterSigma;
  return os.str();
}

std::vector<double> make_demand(std::uint64_t seed) {
  util::Rng rng(engine::child_seed(seed, "mf-demand"));
  std::vector<double> demand(kItems);
  for (core::ItemId i = 0; i < kItems; ++i) {
    demand[i] = rng.lognormal(0.0, kJitterSigma) / (static_cast<double>(i) + 1.0);
  }
  const double sum = std::accumulate(demand.begin(), demand.end(), 0.0);
  for (double& d : demand) d /= sum;
  return demand;
}

core::MeanFieldModel make_model() {
  core::MeanFieldModel model;
  model.mu = kMu;
  model.num_nodes = kNodes;
  model.horizon = kHorizon;
  return model;
}

struct SweepResult {
  std::string table;
  double wall = 0.0;
  std::size_t calls = 0;  ///< model evaluation calls (the unit of work)
  long qcr_steps = 0;
  long qcr_rejected = 0;
  std::vector<std::string> violations;  ///< theory checks that failed
};

/// Runs one model evaluation call (the workload's unit of work) as a
/// span of `layer`.
template <typename F>
auto timed(SweepResult& out, Tracer& tracer, std::int64_t parent,
           std::uint64_t point, const char* layer, F&& f) {
  const double t0 = tracer.now();
  auto value = f();
  ++out.calls;
  tracer.add(Span{layer, t0, tracer.now(), parent, point});
  return value;
}

/// One sweep point, as fig4's mean_field_point: competitor welfares in
/// count space, QCR from the replica-fraction ODE.
void run_point(const std::vector<double>& demand,
               const core::MeanFieldModel& model,
               const utility::DelayUtility& u, const std::string& label,
               double x, std::uint64_t point, std::int64_t sweep_span,
               Tracer& tracer, SweepResult& out, std::ostringstream& table) {
  const auto competitors =
      timed(out, tracer, sweep_span, point, "alloc.mf_competitors", [&] {
        return core::mean_field_competitors(demand, u, model, kRho);
      });
  double opt = 0.0;
  std::vector<std::pair<std::string, double>> welfare;
  for (const auto& [name, counts] : competitors) {
    const double w =
        timed(out, tracer, sweep_span, point, "alloc.mf_welfare", [&] {
          return core::mean_field_welfare(counts, demand, u, model);
        });
    if (name == "OPT") {
      opt = w;
    } else {
      welfare.emplace_back(name, w);
    }
  }
  const auto qcr = timed(out, tracer, sweep_span, point, "core.mf_qcr", [&] {
    return core::mean_field_qcr(demand, u, model, kRho);
  });
  out.qcr_steps += qcr.steps;
  out.qcr_rejected += qcr.rejected_steps;
  welfare.emplace_back("QCR", qcr.mean_welfare_rate);

  // Theory checks that hold for any catalog: the greedy OPT is optimal
  // for frozen placements in the exact discrete model, and the QCR field
  // conserves total replicas at rho N.
  const double tolerance = 1e-9 * std::abs(opt);
  for (const auto& [name, w] : welfare) {
    if (name != "QCR" && w > opt + tolerance) {
      out.violations.push_back(label + " x=" + std::to_string(x) + ": " +
                               name + " beats the greedy OPT");
    }
  }
  const double replicas = qcr.final_counts.total();
  if (std::abs(replicas - kRho * kNodes) > 1e-6 * kRho * kNodes) {
    out.violations.push_back(label + " x=" + std::to_string(x) +
                             ": QCR replicas not conserved");
  }

  table << label << " x=" << x << " OPT=" << opt;
  for (const auto& [name, w] : welfare) {
    table << ' ' << name << '=' << core::normalized_loss_percent(w, opt);
  }
  table << '\n';
}

SweepResult run_sweep(const std::vector<double>& demand,
                      const core::MeanFieldModel& model, Tracer& tracer) {
  SweepResult out;
  std::ostringstream table;
  table.precision(17);
  const auto t0 = Clock::now();
  const std::int64_t sweep_span = tracer.begin("sweep");
  std::uint64_t point = 0;
  for (const double alpha : kPowerAlphas) {
    const utility::PowerUtility u(alpha);
    run_point(demand, model, u, "power", alpha, ++point, sweep_span, tracer,
              out, table);
  }
  for (const double tau : kStepTaus) {
    const utility::StepUtility u(tau);
    run_point(demand, model, u, "step", tau, ++point, sweep_span, tracer,
              out, table);
  }
  tracer.end(sweep_span);
  out.wall = seconds_between(t0, Clock::now());
  out.table = table.str();
  return out;
}

}  // namespace

Outcome run_mf_million(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  Tracer off(false);

  // Set-up builds the model: the seeded catalog plus one evaluator (the
  // discrete gain table over x = 0..N) for the first sweep utility, which
  // also cross-checks mean_field_welfare below. Set-ups run
  // kSetupsPerSweep before each sweep, so their median samples the whole
  // measuring window.
  const int repeats =
      options.trace ? 1
                    : std::max(1, static_cast<int>(options.seconds /
                                                   kNominalSweepS));
  const utility::PowerUtility first(kPowerAlphas[0]);
  const core::MeanFieldModel model = make_model();
  std::vector<double> setup_samples;
  std::vector<double> demand;
  std::optional<core::MeanFieldEvaluator> evaluator;
  std::vector<SweepResult> sweeps;
  for (int i = 0; i < repeats; ++i) {
    for (int k = 0; k < kSetupsPerSweep; ++k) {
      const auto t0 = Clock::now();
      demand = make_demand(options.seed);
      evaluator.emplace(first, model);
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
    sweeps.push_back(run_sweep(demand, model, off));
  }
  if (options.trace) sweeps.push_back(run_sweep(demand, model, tracer));
  const double peak_rss = self_peak_rss_mb();

  const std::string& table = sweeps.front().table;
  for (const auto& s : sweeps) {
    outcome.check(s.table == table, "loss table differs between sweeps");
    for (const auto& v : s.violations) outcome.check(false, v);
  }
  {
    // The kept evaluator must agree with the per-call welfare path.
    const alloc::ItemCounts uniform{
        std::vector<double>(kItems, kRho * kNodes / kItems)};
    const double a = evaluator->welfare_rate(uniform, demand);
    const double b = core::mean_field_welfare(uniform, demand, first, model);
    outcome.check(a == b, "MeanFieldEvaluator and mean_field_welfare differ");
  }
  if (!check_reference(options, reference_params(), fnv1a(table), outcome)) {
    outcome.notes.push_back("mf_million: seed has no recorded reference; "
                            "checked OPT optimality and QCR conservation");
  }
  outcome.notes.push_back("mf_million loss table:\n" + table);

  for (const auto& s : sweeps) outcome.attempted += s.calls;

  if (!options.trace) {
    std::vector<double> walls;
    std::vector<double> rates;
    for (const auto& s : sweeps) {
      walls.push_back(s.wall);
      rates.push_back(static_cast<double>(s.calls) / s.wall);
    }
    outcome.set("setup_s", median(setup_samples), "s");
    outcome.set("sweep_s", median(walls), "s");
    outcome.set("ingest_events_per_s", median(rates), "1/s");
    outcome.set("peak_rss_mb", peak_rss, "MiB");
    outcome.notes.push_back("mf_million: median of " +
                            std::to_string(sweeps.size()) + " sweeps");
    return outcome;
  }

  const SweepResult& traced = sweeps.back();
  outcome.set("alloc.mf_competitors_s", tracer.total("alloc.mf_competitors"),
              "s");
  outcome.set("alloc.mf_welfare_s", tracer.total("alloc.mf_welfare"), "s");
  outcome.set("core.mf_qcr_s", tracer.total("core.mf_qcr"), "s");
  outcome.set("core.mf_qcr_steps", static_cast<double>(traced.qcr_steps),
              "count");
  outcome.set("core.mf_qcr_rejected_frac",
              static_cast<double>(traced.qcr_rejected) /
                  static_cast<double>(traced.qcr_steps + traced.qcr_rejected),
              "ratio");
  outcome.set("overhead.sweep_s", traced.wall - sweeps.front().wall, "s");
  return outcome;
}

}  // namespace perfbench
