// Figure 5: conference scenario (Infocom'06-like trace), step utility.
//   (a) observed utility over time (hourly bins; tau configurable)
//   (b) loss vs OPT as a function of tau, actual (bursty) trace
//   (c) same sweep on the memoryless-synthesized equivalent trace
// The real Bluetooth trace is not redistributable; the generator
// reproduces its diurnal envelope, heterogeneous pair rates and bursty
// inter-contacts (see DESIGN.md). A real CRAWDAD file can be supplied
// with --trace <file> (4-column contact format).
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
  const double panel_a_tau = flags.get_double("panel-a-tau", 60.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_long("seed", 606));

  bench::banner("fig5", "Infocom-like conference trace, step utility");

  util::Rng rng(seed);
  const auto wanted_nodes =
      static_cast<trace::NodeId>(flags.get_int("nodes", 50));
  trace::ContactTrace contact_trace = [&]() {
    if (flags.has("trace")) {
      trace::CrawdadOptions opt;
      auto parsed =
          trace::parse_crawdad_file(flags.get_string("trace", ""), opt);
      // The paper keeps the 50 best-connected of the 73 participants "to
      // remove bias from poorly connected nodes" (Section 6.3).
      if (parsed.num_nodes() > wanted_nodes) {
        return trace::select_most_active_nodes(parsed, wanted_nodes);
      }
      return parsed;
    }
    trace::InfocomLikeParams params;
    params.num_nodes = wanted_nodes;
    params.days = flags.get_int("days", 3);
    util::Rng gen_rng = rng.split();
    return trace::generate_infocom_like(params, gen_rng);
  }();
  std::cout << "trace: " << contact_trace.num_nodes() << " nodes, "
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

  util::Rng synth_rng = rng.split();
  auto synthetic = trace::memoryless_equivalent(contact_trace, synth_rng);

  auto scenario =
      core::make_scenario(std::move(contact_trace), catalog, rho);
  auto scenario_synth =
      core::make_scenario(std::move(synthetic), catalog, rho);

  bench::ComparisonConfig config;
  config.trials = trials;
  config.opt_mode = core::OptMode::kEstimated;
  bench::apply_engine_flags(flags, config, seed);
  engine::RunReport manifest;

  // Panel (a): utility over time for tau = panel_a_tau.
  {
    utility::StepUtility u(panel_a_tau);
    core::SimOptions options;
    options.metrics.bin_width = 60.0;  // hourly bins of 1-minute slots
    std::cout << "Figure 5(a): observed utility over time (tau="
              << panel_a_tau << ", hourly bins)\n";
    util::Rng placement_rng = rng.split();
    const auto competitors = core::build_competitors(
        scenario, u, core::OptMode::kEstimated, placement_rng);
    std::vector<std::pair<std::string, core::SimulationResult>> runs;
    for (const auto& [name, placement] : competitors) {
      util::Rng r = rng.split();
      runs.emplace_back(
          name, core::run_fixed(scenario, u, name, placement, options, r));
    }
    {
      util::Rng r = rng.split();
      runs.emplace_back(
          "QCR", core::run_qcr(scenario, u, core::QcrOptions{}, options, r));
    }
    std::vector<std::string> header{"hour"};
    for (const auto& [name, _] : runs) header.push_back(name);
    util::TablePrinter table(header);
    table.set_precision(4);
    const std::size_t rows = runs.front().second.observed_series.size();
    // Print every 3 hours to keep the table readable.
    for (std::size_t k = 0; k < rows; k += 3) {
      std::vector<std::string> cells;
      std::ostringstream os;
      os << runs.front().second.observed_series[k].time / 60.0;
      cells.push_back(os.str());
      for (const auto& [_, result] : runs) {
        std::ostringstream vo;
        vo.precision(4);
        vo << result.observed_series[k].value;
        cells.push_back(vo.str());
      }
      table.add_row(cells);
    }
    table.print(std::cout);
  }

  // Panels (b) and (c): loss vs tau, actual and synthesized traces.
  const std::vector<double> taus{1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
                                 1000.0};
  for (int panel = 0; panel < 2; ++panel) {
    const auto& s = panel == 0 ? scenario : scenario_synth;
    config.label = panel == 0 ? "fig5-actual" : "fig5-synth";
    std::vector<bench::ComparisonPoint> points;
    std::uint64_t index = 0;
    for (double tau : taus) {
      utility::StepUtility u(tau);
      const std::uint64_t point_seed =
          engine::child_seed(seed, config.label, index++);
      points.push_back(
          bench::run_comparison(s, u, tau, config, point_seed, &manifest));
    }
    const std::string title =
        panel == 0
            ? "Figure 5(b): loss vs OPT (%) by tau, actual (bursty) trace"
            : "Figure 5(c): loss vs OPT (%) by tau, memoryless-synthesized";
    bench::print_loss_table(title, "tau", points);
    bench::maybe_write_csv(
        flags, panel == 0 ? "fig5_actual.csv" : "fig5_synth.csv", "tau",
        points);
  }

  manifest.root_seed = seed;
  bench::maybe_write_manifest(flags, "fig5_manifest.json", manifest,
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

  std::cout << "expected shape (paper): DOM and PROP gain strength vs the\n"
               "homogeneous case; SQRT no longer the clear winner; QCR stays "
               "within ~15% of OPT;\nfixed allocations can beat OPT "
               "occasionally on the bursty trace (OPT is memoryless-"
               "approximate).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("fig5_infocom", run, argc, argv);
}
