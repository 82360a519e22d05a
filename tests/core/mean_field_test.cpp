// Mean-field evaluator validation (docs/perf.md §6): the discrete
// fidelity must agree with the event/slot kernels' observed utility —
// the mean-field value sits inside the simulated confidence interval —
// across scenario families (homogeneous step/exponential/power-cost,
// community class rates, N = 500 event-kernel), plus deterministic
// algebra checks on the gain table and the QCR fluid ODE. Runs under
// `ctest -L sim`.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "impatience/alloc/rounding.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"

namespace impatience::core {
namespace {

/// Wide (z = 2.8, ~99.5%) confidence interval of a sample mean: the
/// mean-field value is the *exact* expectation for frozen placements, so
/// a 95% interval would flag it ~1 time in 20 by construction; the wider
/// band keeps the fixed-seed checks comfortably deterministic while
/// still catching real model errors (which show up as many-sigma gaps).
struct Interval {
  double lo;
  double hi;
};

Interval confidence_interval(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= n;
  double var = 0.0;
  for (double s : samples) var += (s - mean) * (s - mean);
  var /= (n - 1.0);
  const double half = 2.8 * std::sqrt(var / n);
  return {mean - half, mean + half};
}

void expect_in_ci(const std::vector<double>& samples, double exact,
                  const char* what) {
  const Interval ci = confidence_interval(samples);
  EXPECT_TRUE(ci.lo <= exact && exact <= ci.hi)
      << what << ": mean-field " << exact << " outside sim CI [" << ci.lo
      << ", " << ci.hi << "]";
}

/// One frozen-placement trial on a fresh trace: trace and simulation RNGs
/// both derive from `seed` (fresh traces, unlike the kernel-equivalence
/// suite, because the mean-field value is an expectation over traces).
double frozen_sample(const trace::PoissonTraceParams& params,
                     const Catalog& catalog,
                     const utility::DelayUtility& u,
                     const alloc::Placement& placement, int capacity,
                     SimKernel kernel, std::uint64_t seed) {
  util::Rng gen(9000 + seed);
  const auto tr = trace::generate_poisson(params, gen);
  SimOptions options;
  options.cache_capacity = capacity;
  options.kernel = kernel;
  options.sticky_replicas = false;
  options.initial_placement = placement;
  StaticPolicy policy;
  util::Rng rng(100 + seed);
  return simulate(tr, catalog, u, policy, options, rng).observed_utility();
}

MeanFieldModel model_for(const trace::PoissonTraceParams& params) {
  MeanFieldModel m;
  m.mu = params.mu;
  m.num_nodes = params.num_nodes;
  m.horizon = params.duration;
  return m;
}

/// Validates every mean-field competitor value against frozen-placement
/// simulations of the same integer counts.
void expect_competitors_match(const trace::PoissonTraceParams& params,
                              const Catalog& catalog,
                              const utility::DelayUtility& u, int capacity,
                              SimKernel kernel, int seeds) {
  const MeanFieldModel m = model_for(params);
  const auto competitors =
      mean_field_competitors(catalog.demands(), u, m, capacity);
  for (const auto& [name, counts] : competitors) {
    if (name == "DOM") continue;  // starves items; covered in Fig4 bench
    const double mf = mean_field_welfare(counts, catalog.demands(), u, m);
    util::Rng prng(4242);
    const auto placement =
        alloc::place_counts(counts, params.num_nodes, capacity, prng);
    std::vector<double> samples;
    for (int s = 0; s < seeds; ++s) {
      samples.push_back(frozen_sample(params, catalog, u, placement,
                                      capacity, kernel,
                                      static_cast<std::uint64_t>(s)));
    }
    expect_in_ci(samples, mf, name.c_str());
  }
}

// --------------------------------------------------------------------
// Family A: homogeneous contacts, step utility, slot kernel, N = 100.

TEST(MeanFieldValidation, StepUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  expect_competitors_match(params, catalog, u, 4, SimKernel::slot_stepped,
                           16);
}

// Family B: exponential decay and power-cost utilities, N = 100.

TEST(MeanFieldValidation, ExponentialUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::ExponentialUtility u(0.05);
  expect_competitors_match(params, catalog, u, 4, SimKernel::slot_stepped,
                           16);
}

TEST(MeanFieldValidation, PowerCostUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 600, 0.03};
  const auto catalog = Catalog::pareto(15, 1.0, 1.0);
  utility::PowerUtility u(0.5);  // h(t) = -2 sqrt(t): a waiting cost
  expect_competitors_match(params, catalog, u, 3, SimKernel::slot_stepped,
                           16);
}

// Family C: class-based (community) contact rates.

TEST(MeanFieldValidation, CommunityClassRatesN100) {
  trace::CommunityTraceParams params;
  params.num_nodes = 100;
  params.duration = 800;
  params.num_communities = 4;
  params.intra_rate = 0.05;
  params.inter_rate = 0.002;
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  const int capacity = 4;

  // A mean-rate-tuned UNI placement, split into per-class counts.
  const MeanFieldClassModel cm = community_class_model(params);
  util::Rng prng(77);
  const auto counts = alloc::round_counts(
      alloc::uniform_allocation(catalog.num_items(),
                                capacity * static_cast<double>(
                                               params.num_nodes),
                                params.num_nodes),
      static_cast<int>(params.num_nodes));
  const auto placement =
      alloc::place_counts(counts, params.num_nodes, capacity, prng);
  const auto by_class =
      counts_by_community(placement, params.num_communities);
  const double mf =
      mean_field_welfare_classes(by_class, catalog.demands(), u, cm);

  std::vector<double> samples;
  for (int s = 0; s < 16; ++s) {
    util::Rng gen(9000 + static_cast<std::uint64_t>(s));
    const auto tr = trace::generate_community_trace(params, gen);
    SimOptions options;
    options.cache_capacity = capacity;
    options.sticky_replicas = false;
    options.initial_placement = placement;
    StaticPolicy policy;
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    samples.push_back(
        simulate(tr, catalog, u, policy, options, rng).observed_utility());
  }
  expect_in_ci(samples, mf, "community UNI");
}

TEST(MeanFieldClassModelTest, DegeneratesToHomogeneousOnEqualRates) {
  // Equal intra/inter rates and counts split proportional to class size
  // must reproduce the homogeneous evaluator exactly.
  const double mu = 0.02;
  MeanFieldClassModel cm;
  cm.class_sizes = {25.0, 25.0, 25.0, 25.0};
  cm.rates.assign(4, std::vector<double>(4, mu));
  cm.horizon = 500;
  utility::ExponentialUtility u(0.1);

  MeanFieldModel hm;
  hm.mu = mu;
  hm.num_nodes = 100;
  hm.horizon = 500;

  const std::vector<double> demand = {1.0, 0.5, 0.25};
  alloc::ItemCounts total;
  total.x = {8.0, 4.0, 12.0};  // all divisible by 4 classes
  std::vector<alloc::ItemCounts> split(4);
  for (auto& c : split) {
    c.x = {2.0, 1.0, 3.0};
  }
  const double classes = mean_field_welfare_classes(split, demand, u, cm);
  const double homogeneous = mean_field_welfare(total, demand, u, hm);
  EXPECT_NEAR(classes, homogeneous, 1e-12 + 1e-9 * std::abs(homogeneous));
}

// Family D: larger sparse system on the event kernel, N = 500.

TEST(MeanFieldValidation, EventKernelN500) {
  trace::PoissonTraceParams params{500, 200, 0.01};
  const auto catalog = Catalog::pareto(30, 1.0, 1.0);
  utility::StepUtility u(15.0);
  const MeanFieldModel m = model_for(params);
  const auto counts = alloc::round_counts(
      alloc::sqrt_allocation(catalog.demands(),
                             3.0 * static_cast<double>(params.num_nodes),
                             params.num_nodes),
      static_cast<int>(params.num_nodes));
  const double mf = mean_field_welfare(counts, catalog.demands(), u, m);
  util::Rng prng(4242);
  const auto placement =
      alloc::place_counts(counts, params.num_nodes, 3, prng);
  std::vector<double> samples;
  for (int s = 0; s < 8; ++s) {
    samples.push_back(frozen_sample(params, catalog, u, placement, 3,
                                    SimKernel::event_driven,
                                    static_cast<std::uint64_t>(s)));
  }
  expect_in_ci(samples, mf, "SQRT @ N=500");
}

// --------------------------------------------------------------------
// Deterministic algebra checks.

TEST(CensoredDiscreteGain, StepUtilityZeroHazardClosedForm) {
  // q = 0: every request is censored; with h = 1{t <= tau} the average
  // censored mass is the tau - 1 creation slots whose final age stays
  // within the deadline (ages run 2..T+1 for k = 1..T).
  utility::StepUtility u(10.0);
  const double g = alloc::censored_geometric_gain(u, 0.0, 800);
  EXPECT_NEAR(g, 9.0 / 800.0, 1e-12);
}

TEST(CensoredDiscreteGain, DeterministicHazardClosedForm) {
  // q = 1: fulfilment at the first opportunity, gain h(1) regardless of
  // the creation slot.
  utility::ExponentialUtility u(0.3);
  const double g = alloc::censored_geometric_gain(u, 1.0, 500);
  EXPECT_NEAR(g, u.value(1.0), 1e-12);
}

TEST(CensoredDiscreteGain, TableMatchesDirectEvaluation) {
  utility::ExponentialUtility u(0.07);
  alloc::DiscreteGainModel m;
  m.mu = 0.03;
  m.num_nodes = 60;
  m.horizon = 400;
  const alloc::DiscreteGainTable table(u, m, 60);
  for (long x : {0L, 1L, 2L, 7L, 30L, 60L}) {
    EXPECT_NEAR(table.gain(static_cast<double>(x)),
                alloc::item_gain_discrete(u, m, static_cast<double>(x)),
                1e-12)
        << "x=" << x;
  }
  // Interpolation: halfway between the integer anchors.
  const double mid = table.gain(7.5);
  EXPECT_NEAR(mid, 0.5 * (table.gain(7.0) + table.gain(8.0)), 1e-12);
  // Marginals are first differences of the same table.
  EXPECT_NEAR(table.marginal(7), table.gain(8.0) - table.gain(7.0), 1e-15);
}

TEST(CensoredDiscreteGain, SaturatedTailMatchesDirectEvaluation) {
  // At mu = 0.05 the table's incremental (1 - mu)^x makes 1 - miss round
  // to exactly 1.0 near x = 730, where the build switches to one shared
  // S(1); past x ~ 14.5k miss would sit on the smallest subnormal. Both
  // boundaries must be invisible in the values.
  alloc::DiscreteGainModel m;
  m.mu = 0.05;
  m.num_nodes = 20000;
  m.horizon = 5000;
  const long n = 20000;
  const utility::ExponentialUtility exponential(0.07);
  const utility::PowerUtility power(-1.0);
  for (const utility::DelayUtility* u :
       {static_cast<const utility::DelayUtility*>(&exponential),
        static_cast<const utility::DelayUtility*>(&power)}) {
    const alloc::DiscreteGainTable table(*u, m, n);
    std::vector<long> xs = {0, 1, 2, 100, 500, 13000, 19999, n};
    for (long x = 690; x <= 770; ++x) xs.push_back(x);
    for (long x = 13700; x <= 14700; x += 25) xs.push_back(x);
    for (long x : xs) {
      EXPECT_NEAR(table.gain(static_cast<double>(x)),
                  alloc::item_gain_discrete(*u, m, static_cast<double>(x)),
                  1e-12)
          << u->name() << " x=" << x;
    }
    for (long x = 0; x < n; ++x) {
      ASSERT_GE(table.marginal(x), 0.0) << u->name() << " x=" << x;
    }
  }
}

TEST(CensoredDiscreteGain, ConvergesToContinuousClosedFormForSmallMu) {
  // As mu -> 0 with a horizon far beyond the utility's support, the
  // discrete censored-geometric model approaches the continuous-time
  // exponential-race closed form used by alloc::item_gain.
  utility::ExponentialUtility u(0.05);
  MeanFieldModel discrete;
  discrete.mu = 0.002;
  discrete.num_nodes = 200;
  discrete.horizon = 40000;
  discrete.fidelity = MeanFieldFidelity::kDiscrete;
  MeanFieldModel continuous = discrete;
  continuous.fidelity = MeanFieldFidelity::kContinuous;
  const MeanFieldEvaluator d(u, discrete);
  const MeanFieldEvaluator c(u, continuous);
  for (double x : {1.0, 5.0, 20.0, 80.0}) {
    EXPECT_NEAR(d.item_gain(x), c.item_gain(x),
                0.02 * std::abs(c.item_gain(x)) + 1e-4)
        << "x=" << x;
  }
}

TEST(CensoredDiscreteGain, UnboundedAtZeroThrows) {
  utility::PowerUtility u(1.5);  // 1 < alpha < 2: h(0+) = +inf
  alloc::DiscreteGainModel m;
  EXPECT_THROW(alloc::item_gain_discrete(u, m, 3.0), std::domain_error);
  MeanFieldModel mf;
  EXPECT_THROW(MeanFieldEvaluator(u, mf), std::domain_error);
}

TEST(MeanFieldGreedy, MatchesHomogeneousGreedyInContinuousMode) {
  const auto catalog = Catalog::pareto(12, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.05;
  m.num_nodes = 50;
  m.horizon = 0;  // automatic -> continuous
  const auto counts = mean_field_greedy(catalog.demands(), u, m, 150);
  alloc::HomogeneousModel hm;
  hm.mu = 0.05;
  hm.num_servers = 50;
  hm.num_clients = 50;
  const auto reference =
      alloc::homogeneous_greedy(catalog.demands(), u, hm, 150);
  ASSERT_EQ(counts.x.size(), reference.x.size());
  for (std::size_t i = 0; i < counts.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(counts.x[i], reference.x[i]) << "item " << i;
  }
}

TEST(MeanFieldGreedy, DiscreteGreedyIsCapacityTightAndUndominated) {
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.02;
  m.num_nodes = 100;
  m.horizon = 800;
  const long capacity = 400;
  const auto opt = mean_field_greedy(catalog.demands(), u, m, capacity);
  EXPECT_NEAR(opt.total(), static_cast<double>(capacity), 1e-9);
  const double w_opt = mean_field_welfare(opt, catalog.demands(), u, m);
  // Greedy must not lose to the heuristics it competes against.
  for (const auto& [name, counts] :
       mean_field_competitors(catalog.demands(), u, m, 4)) {
    const double w = mean_field_welfare(counts, catalog.demands(), u, m);
    EXPECT_GE(w_opt, w - 1e-9) << name;
  }
}

/// The count-space greedy with one heap pop and push per placed replica:
/// the reference that mean_field_greedy's run-length loop must reproduce
/// placement for placement.
alloc::ItemCounts one_per_pop_greedy(const std::vector<double>& demand,
                                     const utility::DelayUtility& u,
                                     const MeanFieldModel& m, long capacity) {
  const MeanFieldEvaluator eval(u, m);
  const long cap_per_item = std::llround(m.num_nodes);
  std::vector<long> x(demand.size(), 0);
  struct Entry {
    double gain;
    std::size_t item;
    long at;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.item > b.item;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (cap_per_item > 0) heap.push({demand[i] * eval.marginal(0), i, 0});
  }
  long placed = 0;
  while (placed < capacity && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (top.at != x[top.item]) {
      heap.push({demand[top.item] * eval.marginal(x[top.item]), top.item,
                 x[top.item]});
      continue;
    }
    if (top.gain < 0.0) break;
    ++x[top.item];
    ++placed;
    if (x[top.item] < cap_per_item) {
      heap.push({demand[top.item] * eval.marginal(x[top.item]), top.item,
                 x[top.item]});
    }
  }
  alloc::ItemCounts counts;
  for (long xi : x) counts.x.push_back(static_cast<double>(xi));
  return counts;
}

void expect_matches_one_per_pop(const std::vector<double>& demand,
                                const utility::DelayUtility& u,
                                const MeanFieldModel& m, long capacity) {
  const auto counts = mean_field_greedy(demand, u, m, capacity);
  const auto reference = one_per_pop_greedy(demand, u, m, capacity);
  EXPECT_EQ(counts.x, reference.x) << u.name() << " capacity=" << capacity;
}

TEST(MeanFieldGreedy, RunLengthMatchesOnePerPopReference) {
  const auto catalog = Catalog::pareto(50, 1.0, 1.0);
  MeanFieldModel m;
  m.mu = 0.05;
  m.num_nodes = 1e5;
  m.horizon = 5000;
  const long capacity = 5 * 100000;
  for (double alpha : {-2.0, -0.5, 0.0, 0.9}) {
    expect_matches_one_per_pop(catalog.demands(), utility::PowerUtility(alpha),
                               m, capacity);
  }
  for (double tau : {1.0, 10.0, 1000.0}) {
    expect_matches_one_per_pop(catalog.demands(), utility::StepUtility(tau),
                               m, capacity);
  }
}

TEST(MeanFieldGreedy, RunLengthEdgeCases) {
  MeanFieldModel m;
  m.mu = 0.05;
  m.num_nodes = 2000;
  m.horizon = 800;
  const utility::ExponentialUtility u(0.05);

  // Equal demands: every comparison between fresh items is a gain tie,
  // settled by the lowest-item rule.
  const std::vector<double> equal(7, 1.0 / 7.0);
  expect_matches_one_per_pop(equal, u, m, 3001);

  // Capacity runs out inside the dominant item's run: past the saturated
  // boundary its flat marginals keep beating the small item's.
  const std::vector<double> skewed = {0.98, 0.02};
  const auto cut = mean_field_greedy(skewed, u, m, 1500);
  EXPECT_GT(cut.x[0], 0.0);
  EXPECT_LT(cut.x[0], m.num_nodes);
  EXPECT_DOUBLE_EQ(cut.total(), 1500.0);
  expect_matches_one_per_pop(skewed, u, m, 1500);

  // Capacity = items x N: every item ends at its cap.
  const std::vector<double> three = {0.5, 0.3, 0.2};
  const long full = 3 * 2000;
  const auto capped = mean_field_greedy(three, u, m, full);
  for (double xi : capped.x) EXPECT_DOUBLE_EQ(xi, m.num_nodes);
  expect_matches_one_per_pop(three, u, m, full);
}

// --------------------------------------------------------------------
// QCR fluid ODE: conservation, the sticky floor, and agreement with the
// simulated QCR within a loose band (the ODE replaces the stochastic
// query counter with its mean, so this is an approximation, not the
// exact expectation the frozen-placement checks enjoy).

TEST(MeanFieldQcr, ConservesMassAndRespectsStickyFloor) {
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.02;
  m.num_nodes = 100;
  m.horizon = 800;
  const auto r = mean_field_qcr(catalog.demands(), u, m, 4);
  EXPECT_GT(r.steps, 0);
  double total = 0.0;
  for (double x : r.final_counts.x) {
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 100.0 + 1e-9);
    total += x;
  }
  EXPECT_NEAR(total, 400.0, 1e-6);
  EXPECT_TRUE(std::isfinite(r.mean_welfare_rate));
  EXPECT_TRUE(std::isfinite(r.final_welfare_rate));
}

TEST(MeanFieldQcr, TracksSimulatedQcrWithinLooseBand) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m = model_for(params);
  const auto mf = mean_field_qcr(catalog.demands(), u, m, 4);

  std::vector<double> samples;
  for (int s = 0; s < 8; ++s) {
    util::Rng gen(9000 + static_cast<std::uint64_t>(s));
    Scenario scenario{trace::generate_poisson(params, gen), catalog, 4,
                      params.mu};
    SimOptions options;
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    samples.push_back(run_qcr(scenario, u, QcrOptions{}, options, rng)
                          .observed_utility());
  }
  double sim_mean = 0.0;
  for (double s : samples) sim_mean += s;
  sim_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mf.mean_welfare_rate, sim_mean, 0.35 * std::abs(sim_mean))
      << "fluid QCR diverged from simulated QCR";
}

}  // namespace
}  // namespace impatience::core
