// Figure 3: the effect of mandate routing (homogeneous contacts, power
// delay-utility with alpha = 0, i.e. h(t) = -t).
//   (a) expected utility of the live allocation over time
//   (b) observed utility over time
//   (c) replica counts of the five most requested items, with routing
//   (d) same, without routing
// Matches the paper's setting: 50 nodes, 50 items, rho = 5, mu = 0.05.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

struct SeriesBundle {
  std::string name;
  core::SimulationResult result;
};

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const trace::NodeId nodes = static_cast<trace::NodeId>(
      flags.get_int("nodes", 50));
  const trace::Slot slots = flags.get_long("slots", 5000);
  const double mu = flags.get_double("mu", 0.05);
  const int rho = flags.get_int("rho", 5);
  const double total_demand = flags.get_double("demand", 1.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      flags.get_long("seed", 20090212));

  bench::banner("fig3",
                "mandate routing (power alpha=0, homogeneous contacts)");

  util::Rng rng(seed);
  auto trace = trace::generate_poisson({nodes, slots, mu}, rng);
  auto scenario = core::make_scenario(
      std::move(trace),
      core::Catalog::pareto(static_cast<core::ItemId>(nodes), 1.0,
                            total_demand),
      rho);
  utility::PowerUtility u(0.0);

  alloc::HomogeneousModel model{scenario.mu, nodes, nodes,
                                alloc::SystemMode::kPureP2P};
  core::SimOptions options;
  options.metrics.sample_every = std::max<trace::Slot>(1, slots / 20);
  options.metrics.bin_width = static_cast<double>(slots) / 20.0;
  options.metrics.tracked_items = {0, 1, 2, 3, 4};
  options.expected_welfare =
      core::homogeneous_welfare_probe(scenario.catalog, u, model);

  std::vector<SeriesBundle> runs;
  // QCR with and without mandate routing.
  for (bool routing : {true, false}) {
    core::QcrOptions qcr;
    qcr.mandate_routing = routing;
    util::Rng r = rng.split();
    runs.push_back({routing ? "QCR" : "QCRWOM",
                    core::run_qcr(scenario, u, qcr, options, r)});
  }
  // Fixed competitors OPT / UNI / DOM (the paper's panel (a)/(b) set).
  {
    util::Rng placement_rng = rng.split();
    const auto competitors = core::build_competitors(
        scenario, u, core::OptMode::kHomogeneous, placement_rng);
    for (const auto& [name, placement] : competitors) {
      if (name != "OPT" && name != "UNI" && name != "DOM") continue;
      util::Rng r = rng.split();
      runs.push_back(
          {name, core::run_fixed(scenario, u, name, placement, options, r)});
    }
  }

  // Panel (a): expected utility of the live allocation.
  {
    std::cout << "Figure 3(a): expected utility over time\n";
    std::vector<std::string> header{"time"};
    for (const auto& r : runs) header.push_back(r.name);
    util::TablePrinter table(header);
    const std::size_t rows = runs.front().result.expected_series.size();
    for (std::size_t k = 0; k < rows; ++k) {
      std::vector<std::string> cells{
          fmt(runs.front().result.expected_series[k].time, 6)};
      for (const auto& r : runs) {
        cells.push_back(fmt(r.result.expected_series[k].value));
      }
      table.add_row(cells);
    }
    table.print(std::cout);
  }

  // Panel (b): observed utility over time (binned gain rate).
  {
    std::cout << "Figure 3(b): observed utility over time\n";
    std::vector<std::string> header{"time"};
    for (const auto& r : runs) header.push_back(r.name);
    util::TablePrinter table(header);
    const std::size_t rows = runs.front().result.observed_series.size();
    for (std::size_t k = 0; k < rows; ++k) {
      std::vector<std::string> cells{
          fmt(runs.front().result.observed_series[k].time, 6)};
      for (const auto& r : runs) {
        cells.push_back(fmt(r.result.observed_series[k].value));
      }
      table.add_row(cells);
    }
    table.print(std::cout);
  }

  // Panels (c)/(d): replica counts of the five most requested items.
  const auto targets = alloc::relaxed_optimum(
      scenario.catalog.demands(), u, scenario.mu,
      static_cast<double>(nodes), static_cast<double>(rho) * nodes);
  for (const auto& r : runs) {
    if (r.name != "QCR" && r.name != "QCRWOM") continue;
    std::cout << "Figure 3(" << (r.name == "QCR" ? 'c' : 'd')
              << "): replica counts, " << r.name << " (targets:";
    for (int i = 0; i < 5; ++i) std::cout << ' ' << fmt(targets.x[i], 3);
    std::cout << ")\n";
    util::TablePrinter table(
        {"time", "msg 1", "msg 2", "msg 3", "msg 4", "msg 5"});
    const std::size_t rows = r.result.replica_series[0].size();
    for (std::size_t k = 0; k < rows; ++k) {
      std::vector<std::string> cells{
          fmt(r.result.replica_series[0][k].time, 6)};
      for (int item = 0; item < 5; ++item) {
        cells.push_back(fmt(r.result.replica_series[item][k].value, 3));
      }
      table.add_row(cells);
    }
    table.print(std::cout);
  }

  // Headline: second-half mean expected utility, QCR vs QCRWOM vs OPT.
  auto tail_mean = [](const std::vector<stats::SeriesPoint>& s) {
    double total = 0.0;
    std::size_t n = 0;
    for (std::size_t k = s.size() / 2; k < s.size(); ++k) {
      total += s[k].value;
      ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
  };
  std::cout << "second-half mean expected utility:\n";
  for (const auto& r : runs) {
    std::cout << "  " << r.name << ": "
              << fmt(tail_mean(r.result.expected_series)) << '\n';
  }
  const double qcr = tail_mean(runs[0].result.expected_series);
  const double wom = tail_mean(runs[1].result.expected_series);
  std::cout << "QCR sustains " << (qcr >= wom ? "higher" : "LOWER")
            << " utility than QCRWOM (paper: QCRWOM degrades over time)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("fig3_mandate_routing", run, argc, argv);
}
