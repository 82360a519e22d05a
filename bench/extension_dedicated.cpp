// Extension: the dedicated-node case (C and S disjoint — throwboxes,
// kiosks, vehicle fleets). This is the setting where the paper allows the
// unbounded-at-zero utilities (inverse power 1 < alpha < 2, neg-log),
// whose results live in the technical report [21]. We reproduce the
// comparison for step, inverse-power and neg-log utilities.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

struct DedicatedSetting {
  trace::ContactTrace trace;
  core::Catalog catalog;
  core::Population population;
  trace::NodeId servers;
  trace::NodeId clients;
  int rho;
  double mu;
};

double run_fixed_dedicated(const DedicatedSetting& s,
                           const utility::DelayUtility& u,
                           const alloc::ItemCounts& counts, util::Rng& rng) {
  core::SimOptions options;
  options.cache_capacity = s.rho;
  options.sticky_replicas = false;
  options.initial_placement =
      alloc::place_counts(alloc::round_counts(counts,
                                              static_cast<int>(s.servers)),
                          s.servers, s.rho, rng);
  core::StaticPolicy policy;
  return core::simulate(s.trace, s.catalog, u, policy, s.population, options,
                        rng)
      .observed_utility();
}

double run_qcr_dedicated(const DedicatedSetting& s,
                         const utility::DelayUtility& u, util::Rng& rng) {
  // Tuned, normalized and capped reaction as in core::run_qcr, but for
  // the dedicated population.
  const double servers = static_cast<double>(s.servers);
  const double x_uniform = std::max(
      1.0, s.rho * servers / static_cast<double>(s.catalog.num_items()));
  const double psi_uniform =
      utility::psi(u, s.mu, servers, servers / x_uniform);
  const double scale = psi_uniform > 0.0 ? 0.25 / psi_uniform : 1.0;
  utility::ReactionFunction reaction(u, s.mu, servers, scale);
  const double burst_cap = s.rho;
  core::QcrPolicy policy(
      "QCR",
      [reaction, burst_cap, servers](double y) {
        return std::min(reaction(std::min(y, servers)), burst_cap);
      },
      core::QcrPolicy::MandateRouting::kOn,
      static_cast<long>(s.rho) * s.servers);
  core::SimOptions options;
  options.cache_capacity = s.rho;
  options.sticky_replicas = true;
  return core::simulate(s.trace, s.catalog, u, policy, s.population, options,
                        rng)
      .observed_utility();
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto servers = static_cast<trace::NodeId>(flags.get_int("servers", 25));
  const auto clients = static_cast<trace::NodeId>(flags.get_int("clients", 25));
  const auto items = static_cast<core::ItemId>(flags.get_int("items", 25));
  const int rho = flags.get_int("rho", 5);
  const double mu = flags.get_double("mu", 0.05);
  const trace::Slot slots = flags.get_long("slots", 4000);
  const int trials = flags.get_int("trials", 3);

  bench::banner("extension-dedicated",
                "dedicated servers (kiosks/throwboxes), incl. unbounded-at-"
                "zero utilities");

  util::Rng rng(1799);
  const auto total = static_cast<trace::NodeId>(servers + clients);
  DedicatedSetting s{
      trace::generate_poisson({total, slots, mu}, rng),
      core::Catalog::pareto(items, 1.0, 1.0),
      core::Population::dedicated(servers, clients),
      servers,
      clients,
      rho,
      mu};

  struct Case {
    const char* label;
    std::unique_ptr<utility::DelayUtility> u;
  };
  std::vector<Case> cases;
  cases.push_back({"step tau=10", utility::make_utility("step:tau=10")});
  cases.push_back(
      {"inv power a=1.5", utility::make_utility("power:alpha=1.5")});
  cases.push_back({"neg log", utility::make_utility("neglog")});
  cases.push_back({"neg power a=0", utility::make_utility("power:alpha=0")});

  util::TablePrinter table({"utility", "U(OPT)", "QCR loss%", "SQRT loss%",
                            "PROP loss%", "UNI loss%", "DOM loss%"});
  table.set_precision(4);
  const double capacity_total = static_cast<double>(rho) * servers;
  for (const auto& c : cases) {
    alloc::HomogeneousModel model{mu, servers, clients,
                                  alloc::SystemMode::kDedicated};
    const auto& demand = s.catalog.demands();
    const auto opt = alloc::homogeneous_greedy(demand, *c.u, model,
                                               rho * static_cast<int>(servers));
    const double sv = static_cast<double>(servers);
    struct Alt {
      const char* name;
      alloc::ItemCounts counts;
    };
    std::vector<Alt> alts;
    alts.push_back({"SQRT",
                    alloc::sqrt_allocation(demand, capacity_total, sv)});
    alts.push_back({"PROP",
                    alloc::prop_allocation(demand, capacity_total, sv)});
    alts.push_back({"UNI",
                    alloc::uniform_allocation(items, capacity_total, sv)});
    alts.push_back({"DOM", alloc::dom_allocation(demand, rho, sv)});

    double u_opt = 0.0, u_qcr = 0.0;
    std::map<std::string, double> u_alt;
    for (int t = 0; t < trials; ++t) {
      util::Rng r = rng.split();
      u_opt += run_fixed_dedicated(s, *c.u, opt, r);
      util::Rng rq = rng.split();
      u_qcr += run_qcr_dedicated(s, *c.u, rq);
      for (const auto& alt : alts) {
        util::Rng ra = rng.split();
        u_alt[alt.name] += run_fixed_dedicated(s, *c.u, alt.counts, ra);
      }
    }
    u_opt /= trials;
    u_qcr /= trials;
    table.row(c.label, u_opt,
              core::normalized_loss_percent(u_qcr, u_opt),
              core::normalized_loss_percent(u_alt["SQRT"] / trials, u_opt),
              core::normalized_loss_percent(u_alt["PROP"] / trials, u_opt),
              core::normalized_loss_percent(u_alt["UNI"] / trials, u_opt),
              core::normalized_loss_percent(u_alt["DOM"] / trials, u_opt));
  }
  table.print(std::cout);
  std::cout << "note: inverse-power and neg-log utilities require the "
               "dedicated case (h(0+) = inf);\nclients never self-serve, "
               "so the expected-gain formulas of Table 1 apply directly.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("extension_dedicated", run, argc, argv);
}
