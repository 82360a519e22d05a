// Extension: time-varying oracle placement. The paper computes OPT under
// the memoryless (time-averaged) approximation and observes that on real
// traces "some competitors actually... slightly outperform OPT on
// occasion" because contact statistics change over time. Here we make
// the point sharper on the diurnal Infocom-like trace: an oracle that
// re-estimates pair rates and re-places replicas per time window beats
// the static memoryless OPT, and QCR — with no oracle at all — closes
// part of the same gap by reacting to the live contact process.
//
// Windowed runs restart the request population at window boundaries (a
// mild approximation, noted in the output); all schemes are compared on
// total realized gain per slot.
#include <iostream>

#include "common.hpp"
#include "impatience/utility/families.hpp"

using namespace impatience;

namespace {

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<trace::NodeId>(flags.get_int("nodes", 50));
  const auto items = static_cast<core::ItemId>(flags.get_int("items", 50));
  const int rho = flags.get_int("rho", 5);
  const int days = flags.get_int("days", 3);
  const int windows_per_day = flags.get_int("windows-per-day", 4);
  const double tau = flags.get_double("tau", 60.0);
  const int trials = flags.get_int("trials", 3);

  bench::banner("extension-timevarying",
                "windowed oracle vs static memoryless OPT vs QCR");

  util::Rng rng(8128);
  trace::InfocomLikeParams params;
  params.num_nodes = nodes;
  params.days = days;
  util::Rng gen_rng = rng.split();
  const auto full_trace = trace::generate_infocom_like(params, gen_rng);
  const auto catalog = core::Catalog::pareto(items, 1.0, 1.0);
  utility::StepUtility u(tau);

  const trace::Slot window =
      full_trace.duration() / (static_cast<trace::Slot>(days) *
                               windows_per_day);

  double u_static = 0.0, u_windowed = 0.0, u_qcr = 0.0;
  for (int t = 0; t < trials; ++t) {
    // Static memoryless OPT over the whole trace.
    {
      auto scenario = core::make_scenario(full_trace.slice(0,
                                                           full_trace.duration()),
                                          catalog, rho);
      util::Rng pr = rng.split();
      const auto set = core::build_competitors(
          scenario, u, core::OptMode::kEstimated, pr);
      util::Rng rr = rng.split();
      u_static += core::run_fixed(scenario, u, "OPT", set[0].placement,
                                  core::SimOptions{}, rr)
                      .observed_utility();
    }
    // Windowed oracle: re-estimate + re-place per window. Uses the
    // window's own contacts (a clairvoyant oracle, the strongest
    // reasonable baseline).
    {
      double gain = 0.0;
      for (trace::Slot start = 0; start + window <= full_trace.duration();
           start += window) {
        auto piece = full_trace.slice(start, start + window);
        if (piece.empty()) continue;
        auto scenario = core::make_scenario(std::move(piece), catalog, rho);
        util::Rng pr = rng.split();
        const auto set = core::build_competitors(
            scenario, u, core::OptMode::kEstimated, pr);
        util::Rng rr = rng.split();
        gain += core::run_fixed(scenario, u, "OPT-w", set[0].placement,
                                core::SimOptions{}, rr)
                    .total_gain;
      }
      u_windowed += gain / static_cast<double>(full_trace.duration());
    }
    // QCR over the whole trace, no oracle.
    {
      auto scenario = core::make_scenario(
          full_trace.slice(0, full_trace.duration()), catalog, rho);
      util::Rng rr = rng.split();
      u_qcr += core::run_qcr(scenario, u, core::QcrOptions{},
                             core::SimOptions{}, rr)
                   .observed_utility();
    }
  }
  u_static /= trials;
  u_windowed /= trials;
  u_qcr /= trials;

  util::TablePrinter table({"scheme", "utility", "vs static OPT %"});
  table.set_precision(4);
  table.row("OPT static (memoryless)", u_static, 0.0);
  table.row("OPT windowed (clairvoyant)", u_windowed,
            core::normalized_loss_percent(u_windowed, u_static));
  table.row("QCR (no oracle)", u_qcr,
            core::normalized_loss_percent(u_qcr, u_static));
  table.print(std::cout);
  std::cout << "note: windowed runs restart pending requests at window "
               "boundaries (slight\nunderestimate of the windowed oracle "
               "for tau comparable to the window).\n"
               "expected shape: the windowed oracle beats the static "
               "memoryless OPT on diurnal\ntraces — the headroom the "
               "paper's Section 6.3 observation points at; QCR (no\n"
               "oracle, shown for reference) lands near the static OPT.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main("extension_timevarying", run, argc, argv);
}
