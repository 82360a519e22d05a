#include "impatience/core/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "impatience/utility/families.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core {
namespace {

using utility::StepUtility;

Scenario small_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trace = trace::generate_poisson({12, 600, 0.08}, rng);
  return make_scenario(std::move(trace), Catalog::pareto(8, 1.0, 0.5), 3);
}

TEST(MakeScenario, MeasuresMuFromTrace) {
  const auto s = small_scenario(1);
  EXPECT_NEAR(s.mu, 0.08, 0.02);
  EXPECT_EQ(s.capacity, 3);
}

TEST(MakeScenario, RejectsEmptyTrace) {
  trace::ContactTrace empty(4, 10, {});
  EXPECT_THROW(make_scenario(std::move(empty), Catalog::pareto(4, 1.0, 1.0), 2),
               std::invalid_argument);
}

TEST(BuildCompetitors, ProducesTheFivePaperAllocations) {
  const auto s = small_scenario(2);
  StepUtility u(5.0);
  util::Rng rng(3);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set[0].name, "OPT");
  EXPECT_EQ(set[1].name, "UNI");
  EXPECT_EQ(set[2].name, "SQRT");
  EXPECT_EQ(set[3].name, "PROP");
  EXPECT_EQ(set[4].name, "DOM");
}

TEST(BuildCompetitors, AllPlacementsFeasible) {
  const auto s = small_scenario(4);
  StepUtility u(5.0);
  util::Rng rng(5);
  for (auto mode : {OptMode::kHomogeneous, OptMode::kEstimated}) {
    const auto set = build_competitors(s, u, mode, rng);
    for (const auto& [name, placement] : set) {
      for (NodeId server = 0; server < placement.num_servers(); ++server) {
        EXPECT_LE(placement.server_load(server), s.capacity) << name;
      }
    }
  }
}

TEST(BuildCompetitors, DomPutsTopItemsEverywhere) {
  const auto s = small_scenario(6);
  StepUtility u(5.0);
  util::Rng rng(7);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto& dom = set[4].placement;
  for (ItemId i = 0; i < 3; ++i) {  // rho = 3 most popular (Pareto order)
    EXPECT_EQ(dom.count(i), 12);
  }
  for (ItemId i = 3; i < 8; ++i) {
    EXPECT_EQ(dom.count(i), 0);
  }
}

TEST(BuildCompetitors, UniIsFlat) {
  const auto s = small_scenario(8);
  StepUtility u(5.0);
  util::Rng rng(9);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto counts = set[1].placement.counts();
  // 36 slots over 8 items: every item gets 4 or 5 copies.
  for (double c : counts.x) {
    EXPECT_GE(c, 4.0);
    EXPECT_LE(c, 5.0);
  }
}

/// True if both placements hold exactly the same (item, server) replicas.
bool same_placement(const alloc::Placement& a, const alloc::Placement& b) {
  if (a.num_items() != b.num_items() || a.num_servers() != b.num_servers() ||
      a.capacity_per_server() != b.capacity_per_server()) {
    return false;
  }
  for (ItemId i = 0; i < a.num_items(); ++i) {
    for (NodeId n = 0; n < a.num_servers(); ++n) {
      if (a.has(i, n) != b.has(i, n)) return false;
    }
  }
  return true;
}

/// The estimated OPT computed from scratch, with no reuse.
template <typename U>
alloc::Placement direct_opt(const Scenario& s, const U& u) {
  std::vector<NodeId> nodes(s.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return alloc::lazy_greedy_placement(trace::estimate_rates(s.trace),
                                      s.catalog.demands(), u, nodes, nodes,
                                      s.catalog.num_items(), s.capacity);
}

template <typename U>
alloc::Placement competitor_opt(const Scenario& s, const U& u) {
  util::Rng rng(1);
  return build_competitors(s, u, OptMode::kEstimated, rng)[0].placement;
}

/// Calls build_competitors on A, B, A and checks each OPT against a fresh
/// direct computation. A and B must have different OPTs, or a stale
/// reuse would go unseen.
template <typename U>
void expect_aba(const Scenario& sa, const U& ua, const Scenario& sb,
                const U& ub) {
  const auto opt_a = direct_opt(sa, ua);
  const auto opt_b = direct_opt(sb, ub);
  ASSERT_FALSE(same_placement(opt_a, opt_b));
  EXPECT_TRUE(same_placement(competitor_opt(sa, ua), opt_a));
  EXPECT_TRUE(same_placement(competitor_opt(sb, ub), opt_b));
  EXPECT_TRUE(same_placement(competitor_opt(sa, ua), opt_a));
}

TEST(BuildCompetitorsReuse, EstimatedOptMatchesDirectGreedyOnRepeat) {
  const auto s = small_scenario(20);
  StepUtility u(5.0);
  const auto direct = direct_opt(s, u);
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(same_placement(competitor_opt(s, u), direct))
        << "call " << call;
  }
}

TEST(BuildCompetitorsReuse, TraceChangeRecomputes) {
  StepUtility u(5.0);
  expect_aba(small_scenario(20), u, small_scenario(21), u);
}

TEST(BuildCompetitorsReuse, DemandEntryChangeRecomputes) {
  const auto a = small_scenario(20);
  auto b = a;
  auto demand = a.catalog.demands();
  demand.back() *= 100.0;  // the least popular item becomes the most
  b.catalog = Catalog(demand);
  StepUtility u(5.0);
  expect_aba(a, u, b, u);
}

TEST(BuildCompetitorsReuse, CapacityChangeRecomputes) {
  const auto a = small_scenario(20);
  auto b = a;
  b.capacity = a.capacity + 1;
  StepUtility u(5.0);
  expect_aba(a, u, b, u);
}

TEST(BuildCompetitorsReuse, UtilityChangeRecomputes) {
  const auto s = small_scenario(20);
  expect_aba(s, StepUtility(5.0), s, StepUtility(0.5));
}

TEST(BuildCompetitorsReuse, UtilitySetMemberChangeRecomputes) {
  const auto s = small_scenario(20);
  const auto make_set = [&](double last_tau) {
    std::vector<std::unique_ptr<utility::DelayUtility>> members;
    for (ItemId i = 0; i + 1 < s.catalog.num_items(); ++i) {
      members.push_back(std::make_unique<StepUtility>(5.0));
    }
    members.push_back(std::make_unique<StepUtility>(last_tau));
    return utility::UtilitySet(std::move(members));
  };
  expect_aba(s, make_set(5.0), s, make_set(1000.0));
}

TEST(BuildCompetitorsReuse, FixedHeuristicsDrawTheSameRngOnMissAndHit) {
  // UNI/SQRT/PROP/DOM are placed from the caller's rng in this order and
  // the estimated OPT draws nothing, whether it is computed or reused.
  const auto s = small_scenario(22);
  StepUtility u(5.0);
  const auto servers = static_cast<double>(s.num_nodes());
  const double capacity_total = servers * s.capacity;
  const auto& demand = s.catalog.demands();
  util::Rng ref(77);
  const auto place = [&](const alloc::ItemCounts& real) {
    return alloc::place_counts(
        alloc::round_counts(real, static_cast<int>(servers)), s.num_nodes(),
        s.capacity, ref);
  };
  std::vector<alloc::Placement> expected;
  expected.push_back(place(alloc::uniform_allocation(
      s.catalog.num_items(), capacity_total, servers)));
  expected.push_back(
      place(alloc::sqrt_allocation(demand, capacity_total, servers)));
  expected.push_back(
      place(alloc::prop_allocation(demand, capacity_total, servers)));
  expected.push_back(alloc::place_counts(
      alloc::dom_allocation(demand, s.capacity, servers), s.num_nodes(),
      s.capacity, ref));
  const auto next_draw = ref();

  for (int call = 0; call < 2; ++call) {  // a miss, then a reuse
    util::Rng rng(77);
    const auto set = build_competitors(s, u, OptMode::kEstimated, rng);
    ASSERT_EQ(set.size(), 5u);
    for (std::size_t k = 1; k < set.size(); ++k) {
      EXPECT_TRUE(same_placement(set[k].placement, expected[k - 1]))
          << set[k].name << " call " << call;
    }
    EXPECT_EQ(rng(), next_draw) << "call " << call;
  }
}

TEST(RunFixed, NamesResultAndFreezesCaches) {
  const auto s = small_scenario(10);
  StepUtility u(5.0);
  util::Rng rng(11);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto result =
      run_fixed(s, u, set[0].name, set[0].placement, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "OPT");
  const auto counts = set[0].placement.counts();
  for (ItemId i = 0; i < 8; ++i) {
    EXPECT_EQ(result.final_counts[i], static_cast<int>(counts.x[i]));
  }
}

TEST(RunQcr, ProducesReplicationActivity) {
  const auto s = small_scenario(12);
  StepUtility u(5.0);
  util::Rng rng(13);
  const auto result = run_qcr(s, u, QcrOptions{}, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "QCR");
  EXPECT_GT(result.mandates_created, 0);
  EXPECT_GT(result.replicas_written, 0);
  const int total = std::accumulate(result.final_counts.begin(),
                                    result.final_counts.end(), 0);
  EXPECT_EQ(total, s.capacity * 12);
}

TEST(RunQcr, NoRoutingVariantNamed) {
  const auto s = small_scenario(14);
  StepUtility u(5.0);
  util::Rng rng(15);
  QcrOptions opts;
  opts.mandate_routing = false;
  const auto result = run_qcr(s, u, opts, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "QCR-noMR");
}

TEST(NormalizedLoss, Signs) {
  EXPECT_DOUBLE_EQ(normalized_loss_percent(-11.0, -10.0), -10.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(-10.0, -10.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(11.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(9.0, 10.0), -10.0);
  EXPECT_THROW(normalized_loss_percent(1.0, 0.0), std::invalid_argument);
}

TEST(HomogeneousWelfareProbe, MatchesDirectEvaluation) {
  const auto catalog = Catalog::pareto(4, 1.0, 1.0);
  StepUtility u(2.0);
  alloc::HomogeneousModel model{0.05, 10, 10, alloc::SystemMode::kPureP2P};
  const auto probe = homogeneous_welfare_probe(catalog, u, model);
  const std::vector<int> counts{4, 3, 2, 1};
  alloc::ItemCounts x{{4.0, 3.0, 2.0, 1.0}};
  EXPECT_NEAR(probe(std::span<const int>(counts)),
              alloc::welfare_homogeneous(x, catalog.demands(), u, model),
              1e-12);
}

}  // namespace
}  // namespace impatience::core
