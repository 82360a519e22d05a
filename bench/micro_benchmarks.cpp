// Engine micro-benchmarks (google-benchmark): transform evaluation,
// solvers, trace generation and simulator throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "impatience/alloc/heuristics.hpp"
#include "impatience/alloc/oracle.hpp"
#include "impatience/alloc/rounding.hpp"
#include "impatience/alloc/solvers.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/trace/event_source.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/trace/partition.hpp"
#include "impatience/util/math.hpp"
#include "impatience/utility/cached_transform.hpp"
#include "impatience/utility/discrete.hpp"
#include "impatience/utility/families.hpp"
#include "impatience/utility/fit.hpp"
#include "impatience/utility/reaction.hpp"

using namespace impatience;

namespace {

std::vector<double> pareto_demand(std::size_t n) {
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = 1.0 / static_cast<double>(i + 1);
  return d;
}

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngPoisson(benchmark::State& state) {
  util::Rng rng(2);
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(lambda));
  }
}
BENCHMARK(BM_RngPoisson)->Arg(1)->Arg(50);

void BM_QuadratureLossTransform(benchmark::State& state) {
  // The numeric fallback path (tabulated utilities use closed forms; this
  // measures integrate_to_inf on a smooth integrand).
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::integrate_to_inf(
        [](double t) { return std::exp(-0.5 * t) * 0.3 * std::exp(-0.3 * t); }));
  }
}
BENCHMARK(BM_QuadratureLossTransform);

void BM_WelfareHomogeneous(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto demand = pareto_demand(n);
  alloc::ItemCounts x;
  x.x.assign(n, 5.0);
  utility::StepUtility u(10.0);
  alloc::HomogeneousModel m{0.05, 50, 50, alloc::SystemMode::kPureP2P};
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::welfare_homogeneous(x, demand, u, m));
  }
}
BENCHMARK(BM_WelfareHomogeneous)->Arg(50)->Arg(500);

void BM_HomogeneousGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto demand = pareto_demand(n);
  utility::StepUtility u(10.0);
  alloc::HomogeneousModel m{0.05, 50, 50, alloc::SystemMode::kPureP2P};
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::homogeneous_greedy(demand, u, m, 250));
  }
}
BENCHMARK(BM_HomogeneousGreedy)->Arg(50)->Arg(500);

void BM_RelaxedOptimum(benchmark::State& state) {
  const auto demand = pareto_demand(50);
  utility::PowerUtility u(0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::relaxed_optimum(demand, u, 0.05, 50.0, 250.0));
  }
}
BENCHMARK(BM_RelaxedOptimum);

void BM_LazyGreedyPlacement(benchmark::State& state) {
  const auto n = static_cast<trace::NodeId>(state.range(0));
  util::Rng rng(3);
  const auto trace = trace::generate_poisson({n, 500, 0.05}, rng);
  const auto rates = trace::estimate_rates(trace);
  const auto demand = pareto_demand(n);
  utility::StepUtility u(10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::lazy_greedy_pure_p2p(rates, demand, u, n, 5));
  }
}
BENCHMARK(BM_LazyGreedyPlacement)->Arg(25)->Arg(50);

// Fig. 5-like heterogeneous greedy instance: 98 nodes (the Infocom'05
// experiment population), 500 items, every node both server and client.
// Shared across the marginal-gain and end-to-end greedy benchmarks so
// naive and oracle paths see identical inputs.
constexpr trace::NodeId kFig5Nodes = 98;
constexpr alloc::ItemId kFig5Items = 500;
constexpr int kFig5Capacity = 4;

struct Fig5Instance {
  trace::RateMatrix rates;
  std::vector<double> demand;
  std::vector<trace::NodeId> servers;
  std::vector<trace::NodeId> clients;
};

const Fig5Instance& fig5_instance() {
  static const Fig5Instance inst = [] {
    util::Rng rng(2026);
    trace::InfocomLikeParams params;
    params.num_nodes = kFig5Nodes;
    params.days = 1;
    const auto contact_trace = trace::generate_infocom_like(params, rng);
    std::vector<trace::NodeId> nodes(kFig5Nodes);
    std::iota(nodes.begin(), nodes.end(), trace::NodeId{0});
    return Fig5Instance{trace::estimate_rates(contact_trace),
                        pareto_demand(kFig5Items), nodes, nodes};
  }();
  return inst;
}

alloc::Placement fig5_partial_placement() {
  // A mid-build placement (~200 replicas) so marginals see non-trivial
  // holder sets, as they do inside the greedy loop.
  alloc::Placement placement(kFig5Items, kFig5Nodes, kFig5Capacity);
  util::Rng rng(31);
  int placed = 0;
  while (placed < 200) {
    const auto item = static_cast<alloc::ItemId>(rng.uniform_index(kFig5Items));
    const auto server =
        static_cast<trace::NodeId>(rng.uniform_index(kFig5Nodes));
    if (placement.server_full(server) || placement.has(item, server)) continue;
    placement.add(item, server);
    ++placed;
  }
  return placement;
}

std::vector<std::pair<alloc::ItemId, trace::NodeId>> fig5_probe_pairs(
    const alloc::Placement& placement) {
  std::vector<std::pair<alloc::ItemId, trace::NodeId>> probes;
  util::Rng rng(32);
  while (probes.size() < 512) {
    const auto item = static_cast<alloc::ItemId>(rng.uniform_index(kFig5Items));
    const auto server =
        static_cast<trace::NodeId>(rng.uniform_index(kFig5Nodes));
    if (!placement.has(item, server)) probes.emplace_back(item, server);
  }
  return probes;
}

bool same_placement(const alloc::Placement& a, const alloc::Placement& b) {
  if (a.num_items() != b.num_items() || a.num_servers() != b.num_servers()) {
    return false;
  }
  for (alloc::ItemId i = 0; i < a.num_items(); ++i) {
    for (trace::NodeId s = 0; s < a.num_servers(); ++s) {
      if (a.has(i, s) != b.has(i, s)) return false;
    }
  }
  return true;
}

void BM_MarginalGainNaive(benchmark::State& state) {
  const auto& g = fig5_instance();
  const utility::StepUtility u(10.0);
  const alloc::Placement placement = fig5_partial_placement();
  const auto probes = fig5_probe_pairs(placement);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto [item, server] = probes[k];
    k = (k + 1) % probes.size();
    benchmark::DoNotOptimize(alloc::marginal_gain(placement, g.rates, g.demand,
                                                  u, g.servers, g.clients, item,
                                                  server));
  }
}
BENCHMARK(BM_MarginalGainNaive);

void BM_MarginalOracle(benchmark::State& state) {
  const auto& g = fig5_instance();
  const utility::StepUtility u(10.0);
  alloc::MarginalOracle oracle(g.rates, g.demand, u, g.servers, g.clients,
                               kFig5Items);
  oracle.reset(fig5_partial_placement());
  const auto probes = fig5_probe_pairs(fig5_partial_placement());
  std::size_t k = 0;
  for (auto _ : state) {
    const auto [item, server] = probes[k];
    k = (k + 1) % probes.size();
    benchmark::DoNotOptimize(oracle.marginal(item, server));
  }
}
BENCHMARK(BM_MarginalOracle);

void BM_LazyGreedyFig5Oracle(benchmark::State& state) {
  const auto& g = fig5_instance();
  const utility::StepUtility u(10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::lazy_greedy_placement(g.rates, g.demand, u, g.servers,
                                     g.clients, kFig5Items, kFig5Capacity));
  }
}
BENCHMARK(BM_LazyGreedyFig5Oracle)->Unit(benchmark::kMillisecond);

void BM_LazyGreedyFig5Naive(benchmark::State& state) {
  const auto& g = fig5_instance();
  const utility::StepUtility u(10.0);
  alloc::Placement last(kFig5Items, kFig5Nodes, kFig5Capacity);
  for (auto _ : state) {
    auto placement = alloc::lazy_greedy_placement_naive(
        g.rates, g.demand, u, g.servers, g.clients, kFig5Items, kFig5Capacity);
    benchmark::DoNotOptimize(placement);
    last = std::move(placement);
  }
  // Acceptance check (untimed): the oracle-driven greedy must return the
  // naive placement bit for bit.
  const auto oracle_placement = alloc::lazy_greedy_placement(
      g.rates, g.demand, u, g.servers, g.clients, kFig5Items, kFig5Capacity);
  if (!same_placement(last, oracle_placement)) {
    state.SkipWithError("oracle and naive greedy placements differ");
  }
}
BENCHMARK(BM_LazyGreedyFig5Naive)->Unit(benchmark::kMillisecond);

// One tau point of the fig5 sweep as bench::run_comparison builds it: the
// paper's fig5 scenario (50 Infocom-like nodes over 3 days, 50 Pareto(1)
// items, rho = 5) and 24 trials' competitor sets with the estimated OPT,
// each trial from its own placement stream. Successive iterations step
// tau between two adjacent doubles, so every iteration's first call
// misses the OPT reuse exactly as each new tau point of a sweep does.
const core::Scenario& fig5_sweep_scenario() {
  static const core::Scenario scenario = [] {
    util::Rng rng(2030);
    trace::InfocomLikeParams params;
    params.num_nodes = 50;
    params.days = 3;
    return core::make_scenario(trace::generate_infocom_like(params, rng),
                               core::Catalog::pareto(50, 1.0, 1.0), 5);
  }();
  return scenario;
}

void BM_BuildCompetitorsFig5(benchmark::State& state) {
  const auto& scenario = fig5_sweep_scenario();
  const double taus[] = {
      60.0, std::nextafter(60.0, std::numeric_limits<double>::infinity())};
  std::size_t point = 0;
  for (auto _ : state) {
    const utility::StepUtility u(taus[point++ % 2]);
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
      util::Rng placement_rng(trial);
      benchmark::DoNotOptimize(core::build_competitors(
          scenario, u, core::OptMode::kEstimated, placement_rng));
    }
  }
}
BENCHMARK(BM_BuildCompetitorsFig5)->Unit(benchmark::kMillisecond);

void BM_LossTransformTabulated(benchmark::State& state) {
  const utility::TabulatedUtility u(
      {{0.0, 1.0}, {1.0, 0.8}, {5.0, 0.35}, {20.0, 0.05}, {60.0, 0.0}});
  double m = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.expected_gain(m));
    m = m < 1e2 ? m * 1.1 : 1e-3;
  }
}
BENCHMARK(BM_LossTransformTabulated);

void BM_LossTransformCached(benchmark::State& state) {
  const utility::TabulatedUtility base(
      {{0.0, 1.0}, {1.0, 0.8}, {5.0, 0.35}, {20.0, 0.05}, {60.0, 0.0}});
  const utility::CachedTransform u(base);
  double m = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.expected_gain(m));
    m = m < 1e2 ? m * 1.1 : 1e-3;
  }
}
BENCHMARK(BM_LossTransformCached);

void BM_PoissonTraceGeneration(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::generate_poisson({50, 1000, 0.05}, rng));
  }
}
BENCHMARK(BM_PoissonTraceGeneration);

void BM_MobilityTraceGeneration(benchmark::State& state) {
  util::Rng rng(5);
  trace::RandomWaypointParams params;
  params.num_nodes = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::generate_mobility_trace(params, 200, 200.0, rng));
  }
}
BENCHMARK(BM_MobilityTraceGeneration);

void BM_SimulatorQcr(benchmark::State& state) {
  const auto slots = state.range(0);
  util::Rng rng(6);
  auto trace = trace::generate_poisson({50, slots, 0.05}, rng);
  auto scenario = core::make_scenario(
      std::move(trace), core::Catalog::pareto(50, 1.0, 1.0), 5);
  utility::StepUtility u(10.0);
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(
        core::run_qcr(scenario, u, core::QcrOptions{}, core::SimOptions{},
                      r));
  }
  state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_SimulatorQcr)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_PhiClosedForm(benchmark::State& state) {
  utility::PowerUtility u(0.5);
  double x = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility::phi(u, 0.05, x));
    x = x < 50.0 ? x + 1.0 : 1.0;
  }
}
BENCHMARK(BM_PhiClosedForm);

void BM_PsiReaction(benchmark::State& state) {
  utility::StepUtility u(10.0);
  utility::ReactionFunction reaction(u, 0.05, 50.0, 0.25);
  double y = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reaction(y));
    y = y < 50.0 ? y + 1.0 : 1.0;
  }
}
BENCHMARK(BM_PsiReaction);

void BM_DiscreteExpectedGain(benchmark::State& state) {
  utility::ExponentialUtility u(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility::discrete_expected_gain(u, 0.05));
  }
}
BENCHMARK(BM_DiscreteExpectedGain);

void BM_FitDelayUtility(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<utility::FeedbackSample> samples;
  for (int k = 0; k < 10000; ++k) {
    const double d = rng.uniform(0.5, 100.0);
    samples.push_back({d, rng.bernoulli(std::exp(-0.05 * d)) ? 1.0 : 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility::fit_delay_utility(samples));
  }
}
BENCHMARK(BM_FitDelayUtility);

// Demand sampling at fig5/fig6 catalog scale (500 items): the legacy
// linear weighted_index scan vs the Vose alias tables the event-driven
// kernel draws from. Uniform client profile, so both paths differ only
// in the item draw — the per-request O(|items|) vs O(1) comparison.
void BM_DemandSampleLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto catalog = core::Catalog::pareto(
      static_cast<core::ItemId>(n), 1.0, 1.0);
  std::vector<trace::NodeId> clients(50);
  std::iota(clients.begin(), clients.end(), trace::NodeId{0});
  const core::DemandProcess demand(catalog, clients);
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demand.sample_request_linear(rng));
  }
}
BENCHMARK(BM_DemandSampleLinear)->Arg(50)->Arg(500);

void BM_DemandSampleAlias(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto catalog = core::Catalog::pareto(
      static_cast<core::ItemId>(n), 1.0, 1.0);
  std::vector<trace::NodeId> clients(50);
  std::iota(clients.begin(), clients.end(), trace::NodeId{0});
  const core::DemandProcess demand(catalog, clients);
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demand.sample_request(rng));
  }
}
BENCHMARK(BM_DemandSampleAlias)->Arg(50)->Arg(500);

// Fig6-like sparse vehicular scenario for the kernel comparison: a week
// of 1-minute slots with 20 taxis leaves most slots without a meeting,
// which is exactly the regime next-event time advance is built for. The
// 500-item catalog matches the paper's trace experiments and makes the
// per-request sampling cost visible too.
struct Fig6Instance {
  core::Scenario scenario;
  alloc::Placement placement;
};

const Fig6Instance& fig6_instance() {
  static const Fig6Instance inst = [] {
    util::Rng rng(2027);
    trace::CabspottingLikeParams params;
    params.mobility.num_nodes = 20;
    // City-scale box: 20 taxis over 30 km leave most minutes contact-free
    // (like the real cab trace's off-peak hours), which is the regime the
    // event kernel exists for.
    params.mobility.area_size = 60000.0;
    params.duration = 10080;  // one week of 1-minute slots
    auto contact_trace = trace::generate_cabspotting_like(params, rng);
    // 500-item catalog at a moderate request rate: the per-request work
    // (creation, pending bookkeeping, fulfilment) is identical under both
    // kernels, so heavy demand would only dilute the time-advance
    // difference this pair measures. The demand-sampling difference has
    // its own dedicated pair (BM_DemandSample*).
    auto scenario = core::make_scenario(
        std::move(contact_trace), core::Catalog::pareto(500, 1.0, 0.75), 4);
    util::Rng prng = rng.split();
    const auto competitors = core::build_competitors(
        scenario, utility::StepUtility(100.0), core::OptMode::kHomogeneous,
        prng);
    // competitors[1] is UNI: utility-independent, cheap to build.
    return Fig6Instance{std::move(scenario), competitors[1].placement};
  }();
  return inst;
}

void run_fig6_kernel_bench(benchmark::State& state, core::SimKernel kernel) {
  const auto& g = fig6_instance();
  // Step utility as in the fig6(b) tau sweep: its value() is a compare,
  // so censoring cost shared by both kernels stays small.
  const utility::StepUtility u(100.0);
  util::Rng rng(9);
  core::SimOptions sim;
  sim.kernel = kernel;
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(
        core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r));
  }
  state.SetItemsProcessed(state.iterations() * g.scenario.trace.duration());
}

void BM_SimulateFig6Slot(benchmark::State& state) {
  run_fig6_kernel_bench(state, core::SimKernel::slot_stepped);
}
BENCHMARK(BM_SimulateFig6Slot)->Unit(benchmark::kMillisecond);

void BM_SimulateFig6Event(benchmark::State& state) {
  run_fig6_kernel_bench(state, core::SimKernel::event_driven);
  // Acceptance check (untimed): the kernels are distribution-identical,
  // so on this instance their fulfilment counts must land close.
  const auto& g = fig6_instance();
  const utility::StepUtility u(100.0);
  double totals[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const auto kernel =
        k == 0 ? core::SimKernel::slot_stepped : core::SimKernel::event_driven;
    for (int s = 0; s < 3; ++s) {
      core::SimOptions sim;
      sim.kernel = kernel;
      util::Rng r(100 + s);
      totals[k] += static_cast<double>(
          core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r)
              .fulfillments);
    }
  }
  if (totals[1] < 0.7 * totals[0] || totals[1] > 1.3 * totals[0]) {
    state.SkipWithError("event kernel fulfilments diverge from slot kernel");
  }
}
BENCHMARK(BM_SimulateFig6Event)->Unit(benchmark::kMillisecond);

// Fig3-like faulty scenario on a sparse trace: 30 nodes meeting rarely
// (mu = 1e-4, ~0.04 meetings per slot) over 20000 slots with the full
// fault cocktail engaged. Before this PR a fault-active run silently
// fell back to slot stepping; this pair measures what riding the jump
// loop buys — geometric-skip crash scheduling replaces 30 Bernoulli
// draws per slot, and batched demand/metrics skip the >95% of slots
// where nothing happens.
const core::Scenario& fig3_faulty_scenario() {
  static const core::Scenario scenario = [] {
    util::Rng rng(2028);
    auto contact_trace = trace::generate_poisson({30, 20000, 0.0001}, rng);
    return core::make_scenario(std::move(contact_trace),
                               core::Catalog::pareto(100, 1.0, 0.1), 4);
  }();
  return scenario;
}

core::SimOptions fig3_fault_options(core::SimKernel kernel) {
  core::SimOptions sim;
  sim.kernel = kernel;
  sim.faults.p_drop = 0.05;
  sim.faults.p_truncate = 0.05;
  sim.faults.p_duplicate = 0.02;
  sim.faults.p_reorder = 0.1;
  sim.faults.p_crash = 0.0005;
  sim.faults.mean_downtime = 30.0;
  sim.faults.seed = 909;
  return sim;
}

void run_fig3_faulty_bench(benchmark::State& state, core::SimKernel kernel) {
  const auto& scenario = fig3_faulty_scenario();
  const utility::StepUtility u(200.0);
  util::Rng rng(10);
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(core::run_qcr(
        scenario, u, core::QcrOptions{}, fig3_fault_options(kernel), r));
  }
  state.SetItemsProcessed(state.iterations() * scenario.trace.duration());
}

void BM_SimulateFig3FaultySlot(benchmark::State& state) {
  run_fig3_faulty_bench(state, core::SimKernel::slot_stepped);
}
BENCHMARK(BM_SimulateFig3FaultySlot)->Unit(benchmark::kMillisecond);

void BM_SimulateFig3FaultyEvent(benchmark::State& state) {
  run_fig3_faulty_bench(state, core::SimKernel::event_driven);
  // Acceptance check (untimed): the kernels agree in distribution, so
  // fulfilments and injected faults must land close across a few seeds.
  const auto& scenario = fig3_faulty_scenario();
  const utility::StepUtility u(200.0);
  double fulfilled[2] = {0.0, 0.0};
  double injected[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const auto kernel =
        k == 0 ? core::SimKernel::slot_stepped : core::SimKernel::event_driven;
    for (int s = 0; s < 3; ++s) {
      auto sim = fig3_fault_options(kernel);
      sim.faults.seed = static_cast<std::uint64_t>(7000 + s);
      util::Rng r(200 + s);
      const auto result =
          core::run_qcr(scenario, u, core::QcrOptions{}, sim, r);
      fulfilled[k] += static_cast<double>(result.fulfillments);
      injected[k] += static_cast<double>(result.faults.injected_events());
    }
  }
  if (fulfilled[1] < 0.7 * fulfilled[0] || fulfilled[1] > 1.3 * fulfilled[0]) {
    state.SkipWithError("faulty event kernel fulfilments diverge from slot");
  }
  if (injected[1] < 0.7 * injected[0] || injected[1] > 1.3 * injected[0]) {
    state.SkipWithError("faulty event kernel fault counts diverge from slot");
  }
}
BENCHMARK(BM_SimulateFig3FaultyEvent)->Unit(benchmark::kMillisecond);

// QCR expected-welfare probe at fig5 scale (98 nodes x 500 items): each
// iteration applies one metrics tick's worth of cache churn and then
// reads the probe. Scratch pays the O(items x clients) welfare() fold
// every tick; Incremental re-folds only the rows the churn dirtied
// (welfare_cached), which is what SimOptions::welfare_probe samples.
void run_welfare_probe_bench(benchmark::State& state, bool incremental) {
  const auto& g = fig5_instance();
  const utility::StepUtility u(10.0);
  alloc::MarginalOracle oracle(g.rates, g.demand, u, g.servers, g.clients,
                               kFig5Items);
  oracle.reset(fig5_partial_placement());
  util::Rng rng(33);
  for (auto _ : state) {
    for (int m = 0; m < 4; ++m) {
      const auto item =
          static_cast<alloc::ItemId>(rng.uniform_index(kFig5Items));
      const auto server =
          static_cast<trace::NodeId>(rng.uniform_index(kFig5Nodes));
      if (oracle.has(item, server)) {
        oracle.remove(item, server);
      } else {
        oracle.add(item, server);
      }
    }
    benchmark::DoNotOptimize(incremental ? oracle.welfare_cached()
                                         : oracle.welfare());
  }
  // Acceptance check (untimed): the incremental probe must match the
  // from-scratch evaluator on the final tracked state.
  if (oracle.welfare_cached() != oracle.welfare()) {
    state.SkipWithError("welfare_cached diverged from welfare()");
  }
}

void BM_QcrWelfareProbeScratch(benchmark::State& state) {
  run_welfare_probe_bench(state, false);
}
BENCHMARK(BM_QcrWelfareProbeScratch);

void BM_QcrWelfareProbeIncremental(benchmark::State& state) {
  run_welfare_probe_bench(state, true);
}
BENCHMARK(BM_QcrWelfareProbeIncremental);

// Intra-run meeting parallelism (SimOptions::meeting_parallelism,
// docs/perf.md §5) on a heavy-demand fig5-like instance: the Infocom-like
// conference population (98 nodes, dense slots) with the 500-item catalog
// and a request rate high enough that pending lists reach hundreds of
// entries. That regime puts the run's cost where the parallel path can
// reach it — the per-meeting O(pending x rho) fulfilment scans, planned
// across threads — while the sequential commits stay cheap (fixed UNI
// placement: no mandate work, and the compaction shifts unmatched runs
// as blocks). Intra1 exercises the plan/commit walk without a pool, so
// Intra8/Intra1 isolates the parallel gain from the split's own cost.
// Caveat: the ratio is only meaningful on a multi-core host. On a
// single-core machine (google_benchmark prints the CPU count in the run
// context) the IntraN entries necessarily record the fork/join barrier
// overhead of N-way oversubscription, not a speedup — see
// docs/perf.md §5.
struct IntraInstance {
  core::Scenario scenario;
  alloc::Placement placement;
};

const IntraInstance& intra_instance() {
  static const IntraInstance inst = [] {
    util::Rng rng(2029);
    trace::InfocomLikeParams params;
    params.num_nodes = kFig5Nodes;
    params.days = 1;
    auto contact_trace = trace::generate_infocom_like(params, rng);
    auto scenario = core::make_scenario(
        std::move(contact_trace),
        core::Catalog::pareto(kFig5Items, 1.0, 40.0), kFig5Capacity);
    util::Rng prng = rng.split();
    const auto competitors = core::build_competitors(
        scenario, utility::StepUtility(400.0), core::OptMode::kHomogeneous,
        prng);
    // competitors[1] is UNI: utility-independent, cheap to build.
    return IntraInstance{std::move(scenario), competitors[1].placement};
  }();
  return inst;
}

void run_intra_bench(benchmark::State& state, int meeting_parallelism) {
  const auto& g = intra_instance();
  const utility::StepUtility u(400.0);
  util::Rng rng(12);
  core::SimOptions sim;
  sim.meeting_parallelism = meeting_parallelism;
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(
        core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r));
  }
  state.SetItemsProcessed(state.iterations() * g.scenario.trace.duration());
}

void BM_SimulateFig5Intra1(benchmark::State& state) {
  run_intra_bench(state, 1);
}
BENCHMARK(BM_SimulateFig5Intra1)->Unit(benchmark::kMillisecond);

void BM_SimulateFig5Intra4(benchmark::State& state) {
  run_intra_bench(state, 4);
}
BENCHMARK(BM_SimulateFig5Intra4)->Unit(benchmark::kMillisecond);

void BM_SimulateFig5Intra8(benchmark::State& state) {
  run_intra_bench(state, 8);
  // Acceptance check (untimed): the parallel path must reproduce the
  // bit-locked sequential walk exactly, thread count notwithstanding.
  const auto& g = intra_instance();
  const utility::StepUtility u(400.0);
  core::SimulationResult results[2];
  for (int k = 0; k < 2; ++k) {
    core::SimOptions sim;
    sim.meeting_parallelism = k == 0 ? 0 : 8;
    util::Rng r(77);
    results[k] = core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r);
  }
  const auto& a = results[0];
  const auto& b = results[1];
  if (a.total_gain != b.total_gain || a.fulfillments != b.fulfillments ||
      a.mean_delay != b.mean_delay ||
      a.mean_query_count != b.mean_query_count ||
      a.requests_created != b.requests_created ||
      a.censored_requests != b.censored_requests ||
      a.final_counts != b.final_counts) {
    state.SkipWithError("parallel meeting path diverged from sequential");
  }
}
BENCHMARK(BM_SimulateFig5Intra8)->Unit(benchmark::kMillisecond);

// The conflict scheduler alone on the intra instance's densest slot: the
// O(batch) wave/commit-run schedule every parallel meeting batch pays
// before planning.
void BM_PartitionSlot(benchmark::State& state) {
  const auto& g = intra_instance();
  const auto& tr = g.scenario.trace;
  std::span<const trace::ContactEvent> densest;
  for (trace::Slot s = 0; s < tr.duration(); ++s) {
    const auto events = tr.slot_events(s);
    if (events.size() > densest.size()) densest = events;
  }
  trace::WavePartitioner partitioner(tr.num_nodes());
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> wave_ends;
  std::vector<std::size_t> commit_ends;
  for (auto _ : state) {
    partitioner.schedule(densest, order, wave_ends, commit_ends);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(densest.size()));
}
BENCHMARK(BM_PartitionSlot);

// Fig4-at-scale pair (docs/perf.md §6): one welfare evaluation of the
// same N = 500 homogeneous scenario, as a full event-kernel trial vs the
// mean-field discrete gain model. The mean-field number includes the
// whole per-evaluation cost — DiscreteGainTable build (O(N + T)) plus
// the O(I) welfare fold — i.e. everything that replaces one simulation
// trial in `fig4_homogeneous --eval mf`. The acceptance target is a
// >= 100x gap in favor of the mean field at this scale.
constexpr trace::NodeId kMfNodes = 500;
constexpr core::ItemId kMfItems = 50;
constexpr trace::Slot kMfSlots = 2000;
constexpr double kMfMu = 0.01;
constexpr int kMfCapacity = 4;

struct MeanFieldFig4Instance {
  core::Scenario scenario;
  alloc::Placement placement;   // UNI, utility-independent
  alloc::ItemCounts counts;     // the same UNI allocation in count space
};

const MeanFieldFig4Instance& mean_field_fig4_instance() {
  static const MeanFieldFig4Instance inst = [] {
    util::Rng rng(2030);
    auto contact_trace =
        trace::generate_poisson({kMfNodes, kMfSlots, kMfMu}, rng);
    auto scenario = core::make_scenario(
        std::move(contact_trace), core::Catalog::pareto(kMfItems, 1.0, 1.0),
        kMfCapacity);
    const auto counts = alloc::round_counts(
        alloc::uniform_allocation(kMfItems,
                                  kMfCapacity * static_cast<double>(kMfNodes),
                                  kMfNodes),
        static_cast<int>(kMfNodes));
    util::Rng prng = rng.split();
    auto placement =
        alloc::place_counts(counts, kMfNodes, kMfCapacity, prng);
    return MeanFieldFig4Instance{std::move(scenario), std::move(placement),
                                 counts};
  }();
  return inst;
}

void BM_SimulateFig4Event500(benchmark::State& state) {
  const auto& g = mean_field_fig4_instance();
  const utility::StepUtility u(10.0);
  util::Rng rng(13);
  core::SimOptions sim;
  sim.kernel = core::SimKernel::event_driven;
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(
        core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r));
  }
  state.SetItemsProcessed(state.iterations() * kMfSlots);
}
BENCHMARK(BM_SimulateFig4Event500)->Unit(benchmark::kMillisecond);

void BM_MeanFieldFig4(benchmark::State& state) {
  const auto& g = mean_field_fig4_instance();
  const utility::StepUtility u(10.0);
  core::MeanFieldModel model;
  model.mu = kMfMu;
  model.num_nodes = static_cast<double>(kMfNodes);
  model.horizon = kMfSlots;
  const auto& demand = g.scenario.catalog.demands();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::mean_field_welfare(g.counts, demand, u, model));
  }
  // Acceptance check (untimed): the mean-field value must land near the
  // event kernel's observed utility for the same frozen allocation (the
  // rigorous CI validation lives in tests/core/mean_field_test.cpp).
  const double mf = core::mean_field_welfare(g.counts, demand, u, model);
  core::SimOptions sim;
  sim.kernel = core::SimKernel::event_driven;
  double simulated = 0.0;
  for (int s = 0; s < 3; ++s) {
    util::Rng r(300 + s);
    simulated +=
        core::run_fixed(g.scenario, u, "UNI", g.placement, sim, r)
            .observed_utility() /
        3.0;
  }
  if (mf < 0.7 * simulated || mf > 1.3 * simulated) {
    state.SkipWithError("mean-field welfare diverges from event kernel");
  }
}
BENCHMARK(BM_MeanFieldFig4);

// One fig4 mean-field sweep point's competitor work at N = 10^6 (50
// items, mu = 0.05, T = 5000, rho = 5): mean_field_competitors plus the
// five mean_field_welfare calls on its allocations, each building its
// own gain table. Unlike BM_MeanFieldFig4 (N = 500, mu = 0.01) the
// tables here run deep into the saturated tail where 1 - (1-mu)^x
// rounds to 1, and the greedy places 5 x 10^6 replicas, so this entry
// sees the table-build and greedy costs of `fig4_homogeneous --eval mf`.
void BM_MeanFieldMillion(benchmark::State& state) {
  const auto catalog = core::Catalog::pareto(50, 1.0, 1.0);
  const utility::PowerUtility u(-1.0);
  core::MeanFieldModel model;
  model.mu = 0.05;
  model.num_nodes = 1e6;
  model.horizon = 5000;
  const auto& demand = catalog.demands();
  for (auto _ : state) {
    for (const auto& [name, counts] :
         core::mean_field_competitors(demand, u, model, 5)) {
      benchmark::DoNotOptimize(
          core::mean_field_welfare(counts, demand, u, model));
    }
  }
  state.SetItemsProcessed(state.iterations() * 6);
}
BENCHMARK(BM_MeanFieldMillion)->Unit(benchmark::kMillisecond);

// Streaming-trace pair (docs/perf.md §6): a full STATIC trial including
// trace acquisition — materialize the whole ContactTrace first vs pull
// slot batches from the O(1)-memory GeneratedSource while simulating.
// Same generator draws, bit-identical results (checked untimed).
constexpr trace::PoissonTraceParams kStreamParams{100, 2000, 0.05};

const alloc::Placement& stream_placement() {
  static const alloc::Placement placement = [] {
    const auto counts = alloc::round_counts(
        alloc::uniform_allocation(
            kMfItems,
            kMfCapacity * static_cast<double>(kStreamParams.num_nodes),
            kStreamParams.num_nodes),
        static_cast<int>(kStreamParams.num_nodes));
    util::Rng prng(2031);
    return alloc::place_counts(counts, kStreamParams.num_nodes, kMfCapacity,
                               prng);
  }();
  return placement;
}

core::SimOptions stream_options() {
  core::SimOptions sim;
  sim.cache_capacity = kMfCapacity;
  sim.sticky_replicas = false;
  sim.initial_placement = stream_placement();
  return sim;
}

void BM_MaterializedTrace(benchmark::State& state) {
  const auto catalog = core::Catalog::pareto(kMfItems, 1.0, 1.0);
  const utility::StepUtility u(10.0);
  const auto sim = stream_options();
  core::StaticPolicy policy;
  for (auto _ : state) {
    util::Rng gen(4040);
    const auto tr = trace::generate_poisson(kStreamParams, gen);
    util::Rng r(14);
    benchmark::DoNotOptimize(core::simulate(tr, catalog, u, policy, sim, r));
  }
  state.SetItemsProcessed(state.iterations() * kStreamParams.duration);
}
BENCHMARK(BM_MaterializedTrace)->Unit(benchmark::kMillisecond);

void BM_StreamingTrace(benchmark::State& state) {
  const auto catalog = core::Catalog::pareto(kMfItems, 1.0, 1.0);
  const utility::StepUtility u(10.0);
  const auto sim = stream_options();
  core::StaticPolicy policy;
  for (auto _ : state) {
    trace::GeneratedSource source(kStreamParams, util::Rng(4040));
    util::Rng r(14);
    benchmark::DoNotOptimize(
        core::simulate(source, catalog, u, policy, sim, r));
  }
  state.SetItemsProcessed(state.iterations() * kStreamParams.duration);
  // Acceptance check (untimed): the streamed run must be bit-identical
  // to the materialized one for the same generator seed.
  util::Rng gen(4040);
  const auto tr = trace::generate_poisson(kStreamParams, gen);
  util::Rng r1(14);
  const auto a = core::simulate(tr, catalog, u, policy, sim, r1);
  trace::GeneratedSource source(kStreamParams, util::Rng(4040));
  util::Rng r2(14);
  const auto b = core::simulate(source, catalog, u, policy, sim, r2);
  if (a.total_gain != b.total_gain || a.fulfillments != b.fulfillments ||
      a.requests_created != b.requests_created ||
      a.final_counts != b.final_counts) {
    state.SkipWithError("streamed run diverged from materialized trace");
  }
}
BENCHMARK(BM_StreamingTrace)->Unit(benchmark::kMillisecond);

void BM_SimulatorStatic(benchmark::State& state) {
  util::Rng rng(7);
  auto trace = trace::generate_poisson({50, 2000, 0.05}, rng);
  auto scenario = core::make_scenario(
      std::move(trace), core::Catalog::pareto(50, 1.0, 1.0), 5);
  utility::StepUtility u(10.0);
  util::Rng pr = rng.split();
  const auto set =
      core::build_competitors(scenario, u, core::OptMode::kHomogeneous, pr);
  for (auto _ : state) {
    util::Rng r = rng.split();
    benchmark::DoNotOptimize(core::run_fixed(
        scenario, u, "OPT", set[0].placement, core::SimOptions{}, r));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SimulatorStatic)->Unit(benchmark::kMillisecond);

}  // namespace

// google-benchmark's own `library_build_type` context reflects how the
// *benchmark library* was compiled (always debug for the distro package);
// scripts/bench_snapshot.sh gates snapshots on how THIS binary was built,
// which CMake passes through as IMPATIENCE_BUILD_TYPE.
#ifndef IMPATIENCE_BUILD_TYPE
#define IMPATIENCE_BUILD_TYPE "unspecified"
#endif

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("impatience_build_type", IMPATIENCE_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
