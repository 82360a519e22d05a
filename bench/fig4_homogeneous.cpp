// Figure 4: QCR vs fixed allocations under homogeneous contacts.
//   (left)  power delay-utility, sweeping alpha in [-2, 1]
//   (right) step delay-utility, sweeping tau in [1, 1000] (log grid)
// Setting from Section 6.2: 50 nodes, 50 items, rho = 5, mu = 0.05, pure
// P2P, Pareto(1) demand. The y values are 100*(U - U_OPT)/|U_OPT|.
//
// `--eval mf` swaps the trace-driven simulations for the mean-field
// evaluator (core/mean_field.hpp): the same competitor set and loss
// tables, computed in replica-count space with no trace and no per-node
// state, so `--nodes 1000000 --items 50` runs in 0.66 s wall and
// ~12 MiB peak RSS on a 2.1 GHz Xeon (docs/perf.md §6). The default
// `--eval sim` path is byte-identical to previous releases.
//
// A flag value that does not parse (`--nodes 12abc`) exits 2 with the
// flag named.
#include <sys/resource.h>

#include <iostream>

#include "common.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

constexpr double kPowerAlphas[] = {-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 0.9};
constexpr double kStepTaus[] = {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0};

/// One mean-field sweep point: OPT/UNI/SQRT/PROP/DOM welfare rates from
/// the count-space competitor set, QCR from the replica-fraction ODE.
/// Deterministic — no trials, no seeds, no trace.
bench::ComparisonPoint mean_field_point(const std::vector<double>& demand,
                                        const utility::DelayUtility& u,
                                        const core::MeanFieldModel& model,
                                        int rho, double x) {
  bench::ComparisonPoint point;
  point.x = x;
  for (const auto& [name, counts] :
       core::mean_field_competitors(demand, u, model, rho)) {
    const double w = core::mean_field_welfare(counts, demand, u, model);
    if (name == "OPT") {
      point.opt_utility = w;
    } else {
      point.utility[name] = w;
    }
  }
  point.utility["QCR"] =
      core::mean_field_qcr(demand, u, model, rho).mean_welfare_rate;
  for (const auto& [name, w] : point.utility) {
    point.loss_percent[name] =
        core::normalized_loss_percent(w, point.opt_utility);
  }
  return point;
}

int run_mean_field(const util::Flags& flags, trace::NodeId nodes,
                   core::ItemId items, trace::Slot slots, double mu, int rho,
                   double total_demand) {
  bench::banner("fig4",
                "QCR vs fixed allocations, mean-field evaluator (no trace)");
  std::cout << "mean-field: N=" << nodes << " items=" << items
            << " T=" << slots << " mu=" << mu << " rho=" << rho << '\n';
  core::MeanFieldModel model;
  model.mu = mu;
  model.num_nodes = static_cast<double>(nodes);
  model.horizon = slots;
  const auto catalog = core::Catalog::pareto(items, 1.0, total_demand);
  const auto& demand = catalog.demands();

  {
    std::vector<bench::ComparisonPoint> points;
    for (double alpha : kPowerAlphas) {
      utility::PowerUtility u(alpha);
      points.push_back(mean_field_point(demand, u, model, rho, alpha));
    }
    bench::print_loss_table(
        "Figure 4 (left): power delay-utility, mean-field loss vs OPT (%) "
        "by alpha",
        "alpha", points);
    bench::maybe_write_csv(flags, "fig4_power_mf.csv", "alpha", points);
  }
  {
    std::vector<bench::ComparisonPoint> points;
    for (double tau : kStepTaus) {
      utility::StepUtility u(tau);
      points.push_back(mean_field_point(demand, u, model, rho, tau));
    }
    bench::print_loss_table(
        "Figure 4 (right): step delay-utility, mean-field loss vs OPT (%) "
        "by tau",
        "tau", points);
    bench::maybe_write_csv(flags, "fig4_step_mf.csv", "tau", points);
  }

  // The point of the mf path is the memory profile: no trace, no per-node
  // state. ru_maxrss (KiB on Linux) goes to stdout so
  // scripts/bench_snapshot.sh can record it in the snapshot context.
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  std::cout << "[mem] peak_rss_kb=" << usage.ru_maxrss << '\n';
  std::cout << "expected shape (paper): same ordering as --eval sim; the "
               "discrete gain model is exact\nfor the frozen allocations, "
               "the QCR row is the fluid-limit ODE approximation.\n";
  return 0;
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const trace::NodeId nodes =
      static_cast<trace::NodeId>(flags.get_int("nodes", 50));
  // Catalog size defaults to the node count (the paper's 50x50 setting);
  // --items decouples them so million-node mean-field runs keep the
  // paper's catalog.
  const core::ItemId items =
      static_cast<core::ItemId>(flags.get_int("items", nodes));
  const trace::Slot slots = flags.get_long("slots", 5000);
  const double mu = flags.get_double("mu", 0.05);
  const int rho = flags.get_int("rho", 5);
  const int trials = flags.get_int("trials", 5);
  const double total_demand = flags.get_double("demand", 1.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_long("seed", 42));
  const std::string eval = flags.get_string("eval", "sim");
  if (eval == "mf") {
    return run_mean_field(flags, nodes, items, slots, mu, rho, total_demand);
  }
  if (eval != "sim") {
    std::cerr << "fig4: --eval must be 'sim' or 'mf', got '" << eval << "'\n";
    return 2;
  }

  bench::banner("fig4", "QCR vs fixed allocations, homogeneous contacts");

  bench::ComparisonConfig config;
  config.trials = trials;
  config.opt_mode = core::OptMode::kHomogeneous;
  bench::apply_engine_flags(flags, config, seed);
  // --resume <prior fig4_manifest.json>: re-run only the unfinished jobs.
  const auto resume = bench::load_resume_flag(flags);
  if (resume) config.resume = &*resume;
  engine::RunReport manifest;

  // Scenario traces come from per-panel child streams; every simulation
  // below draws from its own per-(algorithm, trial) stream, so the whole
  // figure is bit-identical for any --threads value.
  auto make_scenario = [&](util::Rng& r) {
    auto trace = trace::generate_poisson({nodes, slots, mu}, r);
    return core::make_scenario(
        std::move(trace),
        core::Catalog::pareto(items, 1.0, total_demand), rho);
  };

  // Left panel: power utility, alpha sweep.
  {
    config.label = "fig4-power";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double alpha : kPowerAlphas) {
      utility::PowerUtility u(alpha);
      const std::uint64_t point_seed =
          engine::child_seed(seed, "fig4-power", index++);
      util::Rng scenario_rng(engine::child_seed(point_seed, "scenario"));
      const auto scenario = make_scenario(scenario_rng);
      points.push_back(bench::run_comparison(scenario, u, alpha, config,
                                             point_seed, &manifest));
    }
    bench::print_loss_table(
        "Figure 4 (left): power delay-utility, loss vs OPT (%) by alpha",
        "alpha", points);
    bench::maybe_write_csv(flags, "fig4_power.csv", "alpha", points);
  }

  // Right panel: step utility, tau sweep.
  {
    config.label = "fig4-step";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double tau : kStepTaus) {
      utility::StepUtility u(tau);
      const std::uint64_t point_seed =
          engine::child_seed(seed, "fig4-step", index++);
      util::Rng scenario_rng(engine::child_seed(point_seed, "scenario"));
      const auto scenario = make_scenario(scenario_rng);
      points.push_back(bench::run_comparison(scenario, u, tau, config,
                                             point_seed, &manifest));
    }
    bench::print_loss_table(
        "Figure 4 (right): step delay-utility, loss vs OPT (%) by tau",
        "tau", points);
    bench::maybe_write_csv(flags, "fig4_step.csv", "tau", points);
  }

  manifest.root_seed = seed;
  bench::maybe_write_manifest(
      flags, "fig4_manifest.json", manifest,
      {{"nodes", std::to_string(nodes)},
       {"slots", std::to_string(slots)},
       {"mu", std::to_string(mu)},
       {"rho", std::to_string(rho)},
       {"trials", std::to_string(trials)},
       {"demand", std::to_string(total_demand)},
       {"seed", std::to_string(seed)}});

  std::cout << "expected shape (paper): UNI and DOM fail at the extremes; "
               "SQRT strong;\nPROP weak for power utilities; QCR tracks "
               "OPT without control-channel state.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("fig4_homogeneous", run, argc, argv);
}
