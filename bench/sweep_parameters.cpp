// Extension: the rho (cache size) and omega (popularity skew) sweeps the
// paper defers to its technical report ("Other values of omega and rho
// can be found in [21]"). Homogeneous contacts, step tau=10 and power
// alpha=0 utilities.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<trace::NodeId>(flags.get_int("nodes", 50));
  const trace::Slot slots = flags.get_long("slots", 4000);
  const double mu = flags.get_double("mu", 0.05);
  const int trials = flags.get_int("trials", 3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_long("seed", 271828));

  bench::banner("sweep", "cache size rho and popularity skew omega");

  bench::ComparisonConfig config;
  config.trials = trials;
  config.opt_mode = core::OptMode::kHomogeneous;
  bench::apply_engine_flags(flags, config, seed);
  engine::RunReport manifest;

  auto scenario_for = [&](int rho, double omega, util::Rng& r) {
    auto trace = trace::generate_poisson({nodes, slots, mu}, r);
    return core::make_scenario(
        std::move(trace),
        core::Catalog::pareto(static_cast<core::ItemId>(nodes), omega, 1.0),
        rho);
  };

  for (const char* which : {"step", "power"}) {
    std::unique_ptr<utility::DelayUtility> u =
        which == std::string("step")
            ? utility::make_utility("step:tau=10")
            : utility::make_utility("power:alpha=0");

    // rho sweep at omega = 1.
    {
      config.label = std::string("sweep-rho-") + which;
      std::vector<bench::ComparisonPoint> points;
      std::uint64_t index = 0;
      for (int rho : {1, 2, 5, 10}) {
        const std::uint64_t point_seed =
            engine::child_seed(seed, config.label, index++);
        util::Rng sr(engine::child_seed(point_seed, "scenario"));
        const auto scenario = scenario_for(rho, 1.0, sr);
        points.push_back(bench::run_comparison(scenario, *u,
                                               static_cast<double>(rho),
                                               config, point_seed,
                                               &manifest));
      }
      bench::print_loss_table(std::string("rho sweep (omega=1, ") +
                                  u->name() + "), loss vs OPT (%)",
                              "rho", points);
    }
    // omega sweep at rho = 5.
    {
      config.label = std::string("sweep-omega-") + which;
      std::vector<bench::ComparisonPoint> points;
      std::uint64_t index = 0;
      for (double omega : {0.0, 0.5, 1.0, 2.0}) {
        const std::uint64_t point_seed =
            engine::child_seed(seed, config.label, index++);
        util::Rng sr(engine::child_seed(point_seed, "scenario"));
        const auto scenario = scenario_for(5, omega, sr);
        points.push_back(bench::run_comparison(scenario, *u, omega, config,
                                               point_seed, &manifest));
      }
      bench::print_loss_table(std::string("omega sweep (rho=5, ") +
                                  u->name() + "), loss vs OPT (%)",
                              "omega", points);
    }
  }

  manifest.root_seed = seed;
  bench::maybe_write_manifest(
      flags, "sweep_manifest.json", manifest,
      {{"nodes", std::to_string(nodes)},
       {"slots", std::to_string(slots)},
       {"mu", std::to_string(mu)},
       {"trials", std::to_string(trials)},
       {"seed", std::to_string(seed)}});
  std::cout << "expected shape: heuristic gaps shrink as rho grows (more "
               "room forgives\nmisallocation) and widen with omega (skew "
               "raises the stakes); QCR tracks OPT\nthroughout.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("sweep_parameters", run, argc, argv);
}
