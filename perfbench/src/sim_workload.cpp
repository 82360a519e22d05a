// sim_infocom: the fig5 scenario (Infocom-like conference trace, step
// utility, estimated OPT) swept over seven taus on the actual and the
// memoryless-synthesized trace, every (algorithm, trial) simulation a
// job on the engine::Runner at hardware concurrency. Seeds are derived
// exactly as bench/fig5_infocom derives them, so at equal trials the
// loss tables agree with that harness.
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "impatience/core/experiment.hpp"
#include "impatience/engine/runner.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace impatience;

constexpr int kTrials = 24;
constexpr trace::NodeId kNodes = 50;
constexpr int kDays = 3;
constexpr core::ItemId kItems = 50;
constexpr int kRho = 5;
constexpr int kSetupsPerSweep = 2;
/// Nominal sweep wall time on the 4-core reference host: --seconds buys
/// a fixed number of sweeps, so every run of a seed does the same work.
constexpr double kNominalSweepS = 3.5;
constexpr double kTaus[] = {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0};
constexpr const char* kPolicies[] = {"QCR", "SQRT", "PROP", "UNI", "DOM"};

std::string reference_params() {
  std::ostringstream os;
  os << "sim_infocom nodes=" << kNodes << " days=" << kDays
     << " items=" << kItems << " rho=" << kRho << " trials=" << kTrials
     << " taus=7 opt=estimated";
  return os.str();
}

struct Inputs {
  core::Scenario actual;
  core::Scenario synth;
};

/// Trace generation, memoryless twin and scenarios: the workload's
/// set-up, in fig5_infocom's RNG order.
Inputs make_inputs(std::uint64_t seed, Tracer& tracer) {
  util::Rng rng(seed);
  trace::InfocomLikeParams params;
  params.num_nodes = kNodes;
  params.days = kDays;
  const std::int64_t gen = tracer.begin("trace.generate");
  util::Rng gen_rng = rng.split();
  trace::ContactTrace contacts = trace::generate_infocom_like(params, gen_rng);
  tracer.end(gen);
  const std::int64_t memo = tracer.begin("trace.memoryless");
  util::Rng synth_rng = rng.split();
  trace::ContactTrace synthetic =
      trace::memoryless_equivalent(contacts, synth_rng);
  tracer.end(memo);
  const auto catalog = core::Catalog::pareto(kItems, 1.0, 1.0);
  return Inputs{core::make_scenario(std::move(contacts), catalog, kRho),
                core::make_scenario(std::move(synthetic), catalog, kRho)};
}

/// What one simulation job stamps into its own slot (no shared state
/// while the pool runs).
struct JobStat {
  Clock::time_point start{};
  Clock::time_point end{};
  bool qcr = false;
  bool done = false;
  double contacts = 0.0;
  core::SimulationResult result;
};

struct SweepResult {
  std::string table;  ///< full-precision loss table (the digest input)
  double wall = 0.0;
  double runner_wall = 0.0;  ///< summed Runner::run wall time
  double queue_wait = 0.0;   ///< summed job start - batch submit
  std::size_t failed = 0;
  std::vector<JobStat> jobs;
};

SweepResult run_sweep(const Inputs& inputs, std::uint64_t seed,
                      const engine::Runner& runner, Tracer& tracer) {
  SweepResult out;
  std::ostringstream table;
  table.precision(17);
  const auto t0 = Clock::now();
  const std::int64_t sweep_span = tracer.begin("sweep");
  std::uint64_t point_id = 0;
  for (int panel = 0; panel < 2; ++panel) {
    const core::Scenario& scenario = panel == 0 ? inputs.actual : inputs.synth;
    const std::string label = panel == 0 ? "fig5-actual" : "fig5-synth";
    std::uint64_t index = 0;
    for (const double tau : kTaus) {
      ++point_id;
      const utility::StepUtility u(tau);
      const std::uint64_t root = engine::child_seed(seed, label, index++);

      const std::int64_t comp =
          tracer.begin("alloc.competitors", sweep_span, point_id);
      std::vector<std::vector<core::NamedPlacement>> placements;
      for (int trial = 0; trial < kTrials; ++trial) {
        util::Rng placement_rng(engine::child_seed(
            root, "placement", static_cast<std::uint64_t>(trial)));
        placements.push_back(core::build_competitors(
            scenario, u, core::OptMode::kEstimated, placement_rng));
      }
      tracer.end(comp);

      // One slot per job, sized before the closures capture pointers;
      // each job stamps its own start and end into it.
      std::size_t njobs = 0;
      for (const auto& p : placements) njobs += p.size() + 1;
      std::vector<JobStat> stats(njobs);
      const double contacts = static_cast<double>(scenario.trace.size());
      std::vector<engine::JobSpec> jobs;
      const auto add_job = [&](const std::string& policy, int trial,
                               bool qcr, auto simulate) {
        JobStat* stat = &stats[jobs.size()];
        stat->qcr = qcr;
        engine::JobSpec job;
        job.scenario = label;
        job.policy = policy;
        job.trial = trial;
        job.x = tau;
        job.seed = engine::child_seed(root, policy,
                                      static_cast<std::uint64_t>(trial));
        job.run = [stat, contacts, simulate](util::Rng& rng) {
          stat->start = Clock::now();
          stat->result = simulate(rng);
          stat->end = Clock::now();
          stat->contacts = contacts;
          stat->done = true;
          return stat->result.observed_utility();
        };
        jobs.push_back(std::move(job));
      };
      for (int trial = 0; trial < kTrials; ++trial) {
        for (const auto& competitor :
             placements[static_cast<std::size_t>(trial)]) {
          add_job(competitor.name, trial, false,
                  [&scenario, &u, &competitor](util::Rng& rng) {
                    return core::run_fixed(scenario, u, competitor.name,
                                           competitor.placement,
                                           core::SimOptions{}, rng);
                  });
        }
        add_job("QCR", trial, true, [&scenario, &u](util::Rng& rng) {
          return core::run_qcr(scenario, u, core::QcrOptions{},
                               core::SimOptions{}, rng);
        });
      }

      const auto submit = Clock::now();
      const std::int64_t run_span =
          tracer.begin("engine.run", sweep_span, point_id);
      engine::RunReport report = runner.run(std::move(jobs), root);
      tracer.end(run_span);
      out.runner_wall += seconds_between(submit, Clock::now());
      out.failed += report.failed;
      for (std::size_t j = 0; j < stats.size(); ++j) {
        const JobStat& s = stats[j];
        if (!s.done) continue;
        out.queue_wait += seconds_between(submit, s.start);
        if (tracer.enabled()) {
          tracer.add(Span{s.qcr ? "core.run_qcr" : "core.run_fixed",
                          tracer.at(s.start), tracer.at(s.end), run_span,
                          point_id * 100000 + j});
        }
      }
      out.jobs.insert(out.jobs.end(), stats.begin(), stats.end());

      const double opt = report.aggregate.band("OPT", tau).mean;
      table << label << " tau=" << tau << " OPT=" << opt;
      for (const char* name : kPolicies) {
        const double mean = report.aggregate.band(name, tau).mean;
        table << ' ' << name << '='
              << core::normalized_loss_percent(mean, opt);
      }
      table << '\n';
    }
  }
  tracer.end(sweep_span);
  out.wall = seconds_between(t0, Clock::now());
  out.table = table.str();
  return out;
}

/// Every job's conservation laws: mandates and requests balance.
void check_jobs(const SweepResult& sweep, Outcome& outcome) {
  std::size_t bad_mandates = 0;
  std::size_t bad_requests = 0;
  for (const JobStat& s : sweep.jobs) {
    if (!s.done) continue;
    const auto& r = s.result;
    if (r.mandates_created !=
        r.replicas_written + r.outstanding_mandates + r.faults.mandates_lost) {
      ++bad_mandates;
    }
    if (r.requests_created !=
        r.fulfillments + r.immediate_fulfillments + r.censored_requests) {
      ++bad_requests;
    }
  }
  outcome.check(bad_mandates == 0,
                std::to_string(bad_mandates) +
                    " jobs violate mandates_created == replicas_written + "
                    "outstanding + lost");
  outcome.check(bad_requests == 0,
                std::to_string(bad_requests) +
                    " jobs violate requests_created == fulfillments + "
                    "immediate + censored");
}

double sweep_events(const SweepResult& sweep) {
  double events = 0.0;
  for (const JobStat& s : sweep.jobs) events += s.contacts;
  return events;
}

}  // namespace

Outcome run_sim_infocom(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  Tracer off(false);

  // Untraced sweeps fill the measuring window; a traced run adds one
  // traced sweep after a single untraced one, for the overhead. The
  // set-ups (identical for a seed) run kSetupsPerSweep before each sweep,
  // so their median samples the whole window, not one instant of it.
  const int repeats =
      options.trace ? 1
                    : std::max(1, static_cast<int>(options.seconds /
                                                   kNominalSweepS));
  const engine::Runner runner{engine::RunnerOptions{}};
  std::vector<double> setup_samples;
  std::optional<Inputs> made;
  std::vector<SweepResult> sweeps;
  for (int i = 0; i < repeats; ++i) {
    for (int k = 0; k < kSetupsPerSweep; ++k) {
      const auto t0 = Clock::now();
      made.emplace(
          make_inputs(options.seed, setup_samples.empty() ? tracer : off));
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
    sweeps.push_back(run_sweep(*made, options.seed, runner, off));
  }
  const Inputs& inputs = *made;
  if (options.trace) {
    sweeps.push_back(run_sweep(inputs, options.seed, runner, tracer));
  }
  const double peak_rss = self_peak_rss_mb();
  outcome.notes.push_back("sim_infocom: " +
                          std::to_string(inputs.actual.trace.size()) +
                          " contacts (actual), " +
                          std::to_string(inputs.synth.trace.size()) +
                          " (synthesized), runner threads " +
                          std::to_string(runner.threads()));

  // Correctness: every sweep reproduces the same table, which matches the
  // recorded reference (or, for an unrecorded seed, a one-thread rerun).
  const std::string& table = sweeps.front().table;
  for (const auto& s : sweeps) {
    outcome.check(s.table == table, "loss table differs between sweeps");
    check_jobs(s, outcome);
  }
  if (!check_reference(options, reference_params(), fnv1a(table), outcome)) {
    engine::RunnerOptions serial;
    serial.threads = 1;
    const SweepResult one =
        run_sweep(inputs, options.seed, engine::Runner(serial), off);
    outcome.check(one.table == table,
                  "loss table at 1 thread differs from the table at " +
                      std::to_string(runner.threads()) + " threads");
    outcome.notes.push_back("sim_infocom: seed has no recorded reference; "
                            "checked against a one-thread rerun");
  }
  outcome.notes.push_back("sim_infocom loss table:\n" + table);

  std::size_t jobs = 0;
  for (const auto& s : sweeps) {
    jobs += s.jobs.size();
    outcome.failed += s.failed;
  }
  outcome.attempted = jobs;

  if (!options.trace) {
    std::vector<double> walls;
    std::vector<double> rates;
    for (const auto& s : sweeps) {
      walls.push_back(s.wall);
      rates.push_back(sweep_events(s) / s.wall);
    }
    outcome.set("setup_s", median(setup_samples), "s");
    outcome.set("sweep_s", median(walls), "s");
    outcome.set("ingest_events_per_s", median(rates), "1/s");
    outcome.set("peak_rss_mb", peak_rss, "MiB");
    outcome.notes.push_back("sim_infocom: median of " +
                            std::to_string(sweeps.size()) + " sweeps");
    return outcome;
  }

  const SweepResult& traced = sweeps.back();
  const SweepResult& plain = sweeps.front();
  outcome.set("trace.generate_s", tracer.total("trace.generate"), "s");
  outcome.set("trace.memoryless_s", tracer.total("trace.memoryless"), "s");
  outcome.set("trace.contacts",
              static_cast<double>(inputs.actual.trace.size() +
                                  inputs.synth.trace.size()),
              "count");
  outcome.set("alloc.competitors_s", tracer.total("alloc.competitors"), "s");
  std::vector<double> fixed_ms;
  std::vector<double> qcr_ms;
  double busy = 0.0;
  double requests = 0.0;
  double fulfillments = 0.0;
  double mandates = 0.0;
  double replicas = 0.0;
  for (const JobStat& j : traced.jobs) {
    if (!j.done) continue;
    const double d = seconds_between(j.start, j.end);
    busy += d;
    (j.qcr ? qcr_ms : fixed_ms).push_back(1e3 * d);
    requests += static_cast<double>(j.result.requests_created);
    fulfillments += static_cast<double>(j.result.fulfillments);
    mandates += static_cast<double>(j.result.mandates_created);
    replicas += static_cast<double>(j.result.replicas_written);
  }
  outcome.set("core.run_fixed_s", tracer.total("core.run_fixed"), "s");
  outcome.set("core.run_fixed_p50_ms", percentile(fixed_ms, 50), "ms");
  outcome.set("core.run_fixed_p99_ms", percentile(fixed_ms, 99), "ms");
  outcome.set("core.run_qcr_s", tracer.total("core.run_qcr"), "s");
  outcome.set("core.run_qcr_p50_ms", percentile(qcr_ms, 50), "ms");
  outcome.set("core.run_qcr_p99_ms", percentile(qcr_ms, 99), "ms");
  outcome.set("core.contacts_per_busy_s", sweep_events(traced) / busy, "1/s");
  outcome.set("core.requests", requests, "count");
  outcome.set("core.fulfillments", fulfillments, "count");
  outcome.set("core.mandates_created", mandates, "count");
  outcome.set("core.replicas_written", replicas, "count");
  outcome.set("engine.jobs", static_cast<double>(traced.jobs.size()), "count");
  outcome.set("engine.jobs_failed", static_cast<double>(traced.failed),
              "count");
  outcome.set("engine.busy_frac",
              busy / (runner.threads() * traced.runner_wall), "ratio");
  outcome.set("engine.queue_wait_s", traced.queue_wait, "s");
  outcome.set("engine.serial_s", traced.wall - traced.runner_wall, "s");
  outcome.set("overhead.sweep_s", traced.wall - plain.wall, "s");
  return outcome;
}

}  // namespace perfbench
