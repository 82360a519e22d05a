// Figure 3 under injected sluggishness (docs/robustness.md): the paper's
// mandate-routing pathology, reproduced on a degraded channel. Meetings
// drop, exchanges truncate, and nodes churn; QCR without routing loses
// the mandates stranded on crashed relays and its allocation drifts away
// from the relaxed optimum, while QCR with mandate routing re-routes
// around the faults and sustains its expected utility.
//
// Self-checking: exits nonzero when routing fails to sustain utility at
// least as well as no-routing under faults, or when the faulty mandate
// conservation identity (created == written + outstanding + lost) breaks.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

double tail_mean(const std::vector<stats::SeriesPoint>& s) {
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t k = s.size() / 2; k < s.size(); ++k) {
    total += s[k].value;
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
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

  // The degraded channel: by default a sluggish network that drops a
  // fifth of all meetings, truncates a fifth of the surviving exchanges,
  // and crashes nodes now and then (mandates on crashed relays are lost).
  fault::FaultConfig faults;
  faults.p_drop = 0.2;
  faults.p_truncate = 0.2;
  faults.p_crash = 0.0005;
  faults.mean_downtime = 20.0;
  bench::apply_fault_flags(flags, faults);

  bench::banner("fig3-faulty",
                "mandate routing under injected faults (power alpha=0)");
  std::cout << "faults: drop=" << faults.p_drop
            << " truncate=" << faults.p_truncate
            << " crash=" << faults.p_crash
            << " downtime=" << faults.mean_downtime << '\n';

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
  options.expected_welfare =
      core::homogeneous_welfare_probe(scenario.catalog, u, model);
  options.faults = faults;

  struct Run {
    std::string name;
    core::SimulationResult result;
  };
  std::vector<Run> runs;
  for (bool routing : {true, false}) {
    core::QcrOptions qcr;
    qcr.mandate_routing = routing;
    core::SimOptions run_options = options;
    // Both runs face the identical degraded channel (same fault stream)
    // and the same simulation stream: the only difference is routing.
    run_options.faults.seed = engine::child_seed(seed, "fault");
    util::Rng r(engine::child_seed(seed, "sim"));
    runs.push_back({routing ? "QCR" : "QCRWOM",
                    core::run_qcr(scenario, u, qcr, run_options, r)});
  }

  std::cout << "expected utility over time (faulty channel)\n";
  {
    util::TablePrinter table({"time", "QCR", "QCRWOM"});
    const std::size_t rows = runs.front().result.expected_series.size();
    for (std::size_t k = 0; k < rows; ++k) {
      table.add_row({fmt(runs[0].result.expected_series[k].time, 6),
                     fmt(runs[0].result.expected_series[k].value),
                     fmt(runs[1].result.expected_series[k].value)});
    }
    table.print(std::cout);
  }

  bool ok = true;
  std::cout << "fault accounting:\n";
  for (const auto& r : runs) {
    const auto& f = r.result.faults;
    std::cout << "  " << r.name << ": dropped=" << f.meetings_dropped
              << " truncated=" << f.exchanges_truncated
              << " deferred=" << f.fulfilments_deferred
              << " crashes=" << f.crashes
              << " mandates_lost=" << f.mandates_lost
              << " replicas_lost=" << f.replicas_lost << '\n';
    // Graceful degradation of the conservation invariant: every created
    // mandate is written, still outstanding, or accounted as lost.
    const long balance = r.result.mandates_created -
                         (r.result.replicas_written +
                          r.result.outstanding_mandates + f.mandates_lost);
    if (balance != 0) {
      std::cout << "  " << r.name
                << ": CONSERVATION VIOLATED (balance=" << balance << ")\n";
      ok = false;
    }
  }

  const double with_routing = tail_mean(runs[0].result.expected_series);
  const double without = tail_mean(runs[1].result.expected_series);
  std::cout << "second-half mean expected utility: QCR=" << fmt(with_routing)
            << " QCRWOM=" << fmt(without) << '\n';
  // Utilities here are losses (h(t) = -t): closer to zero is better. The
  // paper's pathology — no-routing drifts — must persist under faults.
  if (with_routing < without) {
    std::cout << "FAIL: routing sustained LOWER utility than no-routing "
                 "under faults\n";
    ok = false;
  } else {
    std::cout << "QCR sustains >= utility of QCRWOM under faults "
                 "(paper: QCRWOM degrades over time)\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("fig3_faulty", run, argc, argv);
}
