// Extension (paper Section 7, items (1) and (2)): heterogeneity and
// clustered demand studied systematically. Nodes form communities with
// strong intra- and weak inter-community contact rates, and each item's
// demand is concentrated in one community (pi_{i,n} profile). Sweeping
// the inter/intra ratio from mixed to segregated shows:
//   * rate-blind OPT (homogeneous approximation) degrades,
//   * the Lemma-1 greedy with pair rates helps,
//   * adding the popularity profile helps again (replicas move into the
//     demanding community),
//   * QCR tracks demand implicitly, with no knowledge of either.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<trace::NodeId>(flags.get_int("nodes", 30));
  const auto items = static_cast<core::ItemId>(flags.get_int("items", 30));
  const int communities = flags.get_int("communities", 3);
  const trace::Slot slots = flags.get_long("slots", 4000);
  const int rho = flags.get_int("rho", 3);
  const int trials = flags.get_int("trials", 3);
  const double intra = flags.get_double("intra", 0.12);

  bench::banner("extension-communities",
                "clustered contacts + clustered demand (Section 7)");

  util::Rng rng(90210);
  utility::StepUtility u(30.0);

  util::TablePrinter table({"inter/intra", "U(OPT-hom)", "U(OPT-rates)",
                            "U(OPT-rates+pi)", "U(QCR)",
                            "QCR vs best oracle %"});
  table.set_precision(4);

  for (double ratio : {1.0, 0.3, 0.1, 0.03, 0.01}) {
    trace::CommunityTraceParams params;
    params.num_nodes = nodes;
    params.duration = slots;
    params.num_communities = communities;
    params.intra_rate = intra;
    params.inter_rate = intra * ratio;
    util::Rng gen_rng = rng.split();
    auto contact_trace = generate_community_trace(params, gen_rng);
    auto scenario = core::make_scenario(
        std::move(contact_trace), core::Catalog::pareto(items, 1.0, 1.0),
        rho);

    // Item i's demand concentrated in community (i mod communities).
    alloc::PopularityProfile profile;
    profile.pi.assign(items, std::vector<double>(nodes, 0.0));
    for (core::ItemId i = 0; i < items; ++i) {
      int members = 0;
      for (trace::NodeId n = 0; n < nodes; ++n) {
        if (trace::community_of(n, communities) ==
            static_cast<int>(i % communities)) {
          ++members;
        }
      }
      for (trace::NodeId n = 0; n < nodes; ++n) {
        if (trace::community_of(n, communities) ==
            static_cast<int>(i % communities)) {
          profile.pi[i][n] = 1.0 / members;
        }
      }
    }
    core::SimOptions options;
    options.popularity = profile;

    const auto rates = trace::estimate_rates(scenario.trace);
    std::vector<trace::NodeId> all(nodes);
    for (trace::NodeId n = 0; n < nodes; ++n) all[n] = n;

    double u_hom = 0.0, u_rates = 0.0, u_pi = 0.0, u_qcr = 0.0;
    for (int t = 0; t < trials; ++t) {
      // OPT-hom: Theorem-2 greedy, blind to rates and profile.
      {
        alloc::HomogeneousModel model{scenario.mu, nodes, nodes,
                                      alloc::SystemMode::kPureP2P};
        const auto counts = alloc::homogeneous_greedy(
            scenario.catalog.demands(), u, model,
            rho * static_cast<int>(nodes));
        util::Rng pr = rng.split();
        const auto placement =
            alloc::place_counts(counts, nodes, rho, pr);
        util::Rng rr = rng.split();
        u_hom += core::run_fixed(scenario, u, "OPT-hom", placement, options,
                                 rr)
                     .observed_utility();
      }
      // OPT-rates: Lemma-1 greedy, uniform profile.
      {
        const auto placement = alloc::lazy_greedy_placement(
            rates, scenario.catalog.demands(), u, all, all, items, rho);
        util::Rng rr = rng.split();
        u_rates += core::run_fixed(scenario, u, "OPT-rates", placement,
                                   options, rr)
                       .observed_utility();
      }
      // OPT-rates+pi: Lemma-1 greedy with the true demand profile.
      {
        const auto placement = alloc::lazy_greedy_placement(
            rates, scenario.catalog.demands(), u, all, all, items, rho,
            profile);
        util::Rng rr = rng.split();
        u_pi += core::run_fixed(scenario, u, "OPT-rates+pi", placement,
                                options, rr)
                    .observed_utility();
      }
      // QCR: local information only.
      {
        util::Rng rr = rng.split();
        u_qcr += core::run_qcr(scenario, u, core::QcrOptions{}, options, rr)
                     .observed_utility();
      }
    }
    u_hom /= trials;
    u_rates /= trials;
    u_pi /= trials;
    u_qcr /= trials;
    const double best = std::max({u_hom, u_rates, u_pi});
    table.row(ratio, u_hom, u_rates, u_pi, u_qcr,
              core::normalized_loss_percent(u_qcr, best));
  }
  table.print(std::cout);
  std::cout << "expected shape: as communities segregate (ratio -> 0), "
               "profile-aware placement\npulls ahead of rate-aware, which "
               "pulls ahead of rate-blind; QCR follows the\ndemand without "
               "being told about either structure.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("extension_communities", run, argc, argv);
}
