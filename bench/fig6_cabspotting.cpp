// Figure 6: vehicular scenario (Cabspotting-like trace).
//   (a) loss vs OPT sweeping alpha (power utility)
//   (b) loss vs OPT sweeping tau (step utility)
//   (c) loss vs OPT sweeping nu (exponential utility)
// The real taxi GPS trace is not redistributable; simulated random-
// waypoint taxis with hotspot attraction reproduce the heavy-tailed
// vehicular contact statistics (see DESIGN.md). A real GPS log can be
// supplied with --trace <file> ("id time x y" rows, 200 m range).
#include <iostream>

#include "common.hpp"
#include "impatience/trace/parsers.hpp"
#include "impatience/trace/partition.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int trials = flags.get_int("trials", 5);
  const int rho = flags.get_int("rho", 5);
  const double total_demand = flags.get_double("demand", 1.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_long("seed", 415));

  bench::banner("fig6", "Cabspotting-like vehicular trace");

  util::Rng rng(seed);
  trace::ContactTrace contact_trace = [&]() {
    if (flags.has("trace")) {
      trace::GpsOptions opt;
      return trace::parse_gps_file(flags.get_string("trace", ""), opt);
    }
    trace::CabspottingLikeParams params;
    params.mobility.num_nodes =
        static_cast<trace::NodeId>(flags.get_int("nodes", 50));
    params.duration = flags.get_long("slots", 1440);  // one day, 1-min slots
    util::Rng gen_rng = rng.split();
    return trace::generate_cabspotting_like(params, gen_rng);
  }();
  std::cout << "trace: " << contact_trace.num_nodes() << " taxis, "
            << contact_trace.duration() << " slots, "
            << contact_trace.size() << " contacts, inter-contact CV "
            << trace::inter_contact_cv(contact_trace) << '\n';
  // Slot concurrency profile: how much meeting-level parallelism
  // (--intra-threads, docs/perf.md §5) this trace exposes.
  const trace::SlotConflictStats conflict =
      contact_trace.slot_conflict_stats();
  std::cout << "slot concurrency: mean " << conflict.mean_slot_meetings
            << " / max " << conflict.max_slot_meetings
            << " meetings per active slot, max wave depth "
            << conflict.max_wave_depth << ", mean wave width "
            << conflict.mean_wave_width << '\n';

  const auto catalog = core::Catalog::pareto(
      static_cast<core::ItemId>(flags.get_int("items", 50)), 1.0,
      total_demand);
  auto scenario =
      core::make_scenario(std::move(contact_trace), catalog, rho);

  bench::ComparisonConfig config;
  config.trials = trials;
  config.opt_mode = core::OptMode::kEstimated;
  bench::apply_engine_flags(flags, config, seed);
  engine::RunReport manifest;

  // Panel (a): power utility, alpha sweep.
  {
    config.label = "fig6-power";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double alpha : {-2.0, -1.0, -0.5, 0.0, 0.5, 0.9}) {
      utility::PowerUtility u(alpha);
      const std::uint64_t point_seed =
          engine::child_seed(seed, config.label, index++);
      points.push_back(bench::run_comparison(scenario, u, alpha, config,
                                             point_seed, &manifest));
    }
    bench::print_loss_table(
        "Figure 6(a): power delay-utility, loss vs OPT (%) by alpha",
        "alpha", points);
    bench::maybe_write_csv(flags, "fig6_power.csv", "alpha", points);
  }

  // Panel (b): step utility, tau sweep.
  {
    config.label = "fig6-step";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double tau : {1.0, 10.0, 30.0, 100.0, 300.0, 1000.0}) {
      utility::StepUtility u(tau);
      const std::uint64_t point_seed =
          engine::child_seed(seed, config.label, index++);
      points.push_back(bench::run_comparison(scenario, u, tau, config,
                                             point_seed, &manifest));
    }
    bench::print_loss_table(
        "Figure 6(b): step delay-utility, loss vs OPT (%) by tau", "tau",
        points);
    bench::maybe_write_csv(flags, "fig6_step.csv", "tau", points);
  }

  // Panel (c): exponential utility, nu sweep.
  {
    config.label = "fig6-exp";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double nu : {0.0001, 0.001, 0.01, 0.1, 1.0}) {
      utility::ExponentialUtility u(nu);
      const std::uint64_t point_seed =
          engine::child_seed(seed, config.label, index++);
      points.push_back(bench::run_comparison(scenario, u, nu, config,
                                             point_seed, &manifest));
    }
    bench::print_loss_table(
        "Figure 6(c): exponential delay-utility, loss vs OPT (%) by nu",
        "nu", points);
    bench::maybe_write_csv(flags, "fig6_exp.csv", "nu", points);
  }

  std::cout << "expected shape (paper): SQRT degraded vs homogeneous; DOM "
               "improves under\nburstiness; QCR (the only local-information "
               "scheme) remains competitive.\n";
  manifest.root_seed = seed;
  bench::maybe_write_manifest(flags, "fig6_manifest.json", manifest,
                              {{"trials", std::to_string(trials)},
                               {"rho", std::to_string(rho)},
                               {"demand", std::to_string(total_demand)},
                               {"seed", std::to_string(seed)},
                               {"kernel",
                                core::kernel_name(config.sim.kernel)},
                               {"intra_threads",
                                std::to_string(config.sim.meeting_parallelism)},
                               {"mean_slot_meetings",
                                std::to_string(conflict.mean_slot_meetings)},
                               {"max_slot_meetings",
                                std::to_string(conflict.max_slot_meetings)},
                               {"max_distinct_nodes",
                                std::to_string(conflict.max_distinct_nodes)},
                               {"max_wave_depth",
                                std::to_string(conflict.max_wave_depth)},
                               {"mean_wave_width",
                                std::to_string(conflict.mean_wave_width)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("fig6_cabspotting", run, argc, argv);
}
