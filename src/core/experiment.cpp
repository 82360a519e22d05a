#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "impatience/core/experiment.hpp"

namespace impatience::core {

namespace {

/// Every input of the kEstimated OPT. estimate_rates reads only the
/// trace's node count, duration and pair counts, so those stand in for
/// the N^2 rate matrix; fingerprint() is the utilities' behavioural
/// identity (one entry for a DelayUtility, one per item for a set).
struct OptKey {
  NodeId num_nodes = 0;
  trace::Slot duration = 0;
  std::vector<trace::PairContacts> pair_counts;
  std::vector<double> demand;
  int capacity = 0;
  std::vector<std::string> fingerprints;

  friend bool operator==(const OptKey&, const OptKey&) = default;
};

struct OptEntry {
  OptKey key;
  alloc::Placement placement;
};

/// The last estimated OPT. Sweeps build the competitor set once per
/// trial with identical inputs, and OPT draws no randomness, so one entry
/// turns all but the first lazy greedy of a sweep point into a copy.
std::mutex opt_memo_mutex;
std::optional<OptEntry> opt_memo;  // guarded by opt_memo_mutex

std::vector<std::string> fingerprints(const utility::DelayUtility& u) {
  return {u.fingerprint()};
}

std::vector<std::string> fingerprints(const utility::UtilitySet& set) {
  std::vector<std::string> out;
  out.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    out.push_back(set[i].fingerprint());
  }
  return out;
}

/// Lemma-1 lazy greedy on the trace-estimated rates, reused while the
/// inputs match the previous call's field for field.
template <typename U>
alloc::Placement estimated_opt(const Scenario& scenario, const U& u) {
  OptKey key{scenario.trace.num_nodes(),
             scenario.trace.duration(),
             scenario.trace.pair_counts(),
             scenario.catalog.demands(),
             scenario.capacity,
             fingerprints(u)};
  {
    const std::lock_guard lock(opt_memo_mutex);
    if (opt_memo && opt_memo->key == key) return opt_memo->placement;
  }
  const auto num_servers = scenario.num_nodes();
  const auto rates = trace::estimate_rates(scenario.trace);
  std::vector<NodeId> nodes(num_servers);
  for (NodeId n = 0; n < num_servers; ++n) nodes[n] = n;
  auto placement = alloc::lazy_greedy_placement(
      rates, scenario.catalog.demands(), u, nodes, nodes,
      scenario.catalog.num_items(), scenario.capacity);
  const std::lock_guard lock(opt_memo_mutex);
  opt_memo.emplace(OptEntry{std::move(key), placement});
  return placement;
}

/// U is either DelayUtility or UtilitySet; the alloc layer has matching
/// overloads for both.
template <typename U>
std::vector<NamedPlacement> build_competitors_impl(const Scenario& scenario,
                                                   const U& utility,
                                                   OptMode opt_mode,
                                                   util::Rng& rng) {
  const auto& demand = scenario.catalog.demands();
  const auto num_items = scenario.catalog.num_items();
  const auto num_servers = scenario.num_nodes();
  const double servers = static_cast<double>(num_servers);
  const double capacity_total = servers * scenario.capacity;

  std::vector<NamedPlacement> out;
  out.reserve(5);

  // OPT.
  if (opt_mode == OptMode::kHomogeneous) {
    alloc::HomogeneousModel model{scenario.mu, num_servers, num_servers,
                                  alloc::SystemMode::kPureP2P};
    const auto counts = alloc::homogeneous_greedy(
        demand, utility, model,
        scenario.capacity * static_cast<int>(num_servers));
    out.push_back({"OPT", alloc::place_counts(counts, num_servers,
                                              scenario.capacity, rng)});
  } else {
    out.push_back({"OPT", estimated_opt(scenario, utility)});
  }

  auto place = [&](const char* name, const alloc::ItemCounts& real) {
    const auto ints = alloc::round_counts(real, static_cast<int>(servers));
    out.push_back({name, alloc::place_counts(ints, num_servers,
                                             scenario.capacity, rng)});
  };
  place("UNI", alloc::uniform_allocation(num_items, capacity_total, servers));
  place("SQRT", alloc::sqrt_allocation(demand, capacity_total, servers));
  place("PROP", alloc::prop_allocation(demand, capacity_total, servers));
  out.push_back(
      {"DOM", alloc::place_counts(
                  alloc::dom_allocation(demand, scenario.capacity, servers),
                  num_servers, scenario.capacity, rng)});
  return out;
}

/// One tuned-and-capped reaction function per item (Property 2 + the
/// stabilizers documented on QcrOptions).
std::vector<utility::ReactionFunction> build_reactions(
    const Scenario& scenario, const utility::UtilitySet& utilities,
    const QcrOptions& qcr_options) {
  const double servers = static_cast<double>(scenario.num_nodes());
  const double x_uniform =
      std::max(1.0, scenario.capacity * servers /
                        static_cast<double>(scenario.catalog.num_items()));
  std::vector<utility::ReactionFunction> reactions;
  reactions.reserve(utilities.size());
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    double scale = qcr_options.reaction_scale;
    if (qcr_options.auto_normalize_scale) {
      const double psi_uniform = utility::psi(utilities[i], scenario.mu,
                                              servers, servers / x_uniform);
      if (psi_uniform > 0.0) {
        scale *= qcr_options.target_replicas_per_fulfillment / psi_uniform;
      }
    }
    reactions.emplace_back(utilities[i], scenario.mu, servers, scale);
  }
  return reactions;
}

SimulationResult run_qcr_impl(const Scenario& scenario,
                              const utility::UtilitySet& utilities,
                              const QcrOptions& qcr_options,
                              const SimOptions& base_options,
                              util::Rng& rng) {
  SimOptions options = base_options;
  options.cache_capacity = scenario.capacity;
  options.sticky_replicas = true;
  options.initial_placement.reset();

  const double servers = static_cast<double>(scenario.num_nodes());
  const double burst_cap =
      qcr_options.max_replicas_per_fulfillment > 0.0
          ? qcr_options.max_replicas_per_fulfillment
          : static_cast<double>(scenario.capacity);
  const double counter_cap =
      qcr_options.clamp_counter_at_servers
          ? servers
          : std::numeric_limits<double>::infinity();
  const long mandate_cap =
      static_cast<long>(scenario.capacity) * scenario.num_nodes();

  auto reactions = std::make_shared<std::vector<utility::ReactionFunction>>(
      build_reactions(scenario, utilities, qcr_options));
  QcrPolicy policy(
      qcr_options.mandate_routing ? "QCR" : "QCR-noMR",
      QcrPolicy::ItemReaction(
          [reactions, burst_cap, counter_cap](ItemId item, double y) {
            return std::min((*reactions)[item](std::min(y, counter_cap)),
                            burst_cap);
          }),
      qcr_options.mandate_routing ? QcrPolicy::MandateRouting::kOn
                                  : QcrPolicy::MandateRouting::kOff,
      mandate_cap,
      qcr_options.rewriting ? QcrPolicy::Rewriting::kAllowed
                            : QcrPolicy::Rewriting::kDisallowed);
  return simulate(scenario.trace, scenario.catalog, utilities, policy,
                  options, rng);
}

}  // namespace

Scenario make_scenario(trace::ContactTrace trace, Catalog catalog,
                       int capacity) {
  const double mu = trace::estimate_rates(trace).mean_rate();
  if (!(mu > 0.0)) {
    throw std::invalid_argument("make_scenario: trace has no contacts");
  }
  return Scenario{std::move(trace), std::move(catalog), capacity, mu};
}

std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::DelayUtility& utility,
    OptMode opt_mode, util::Rng& rng) {
  return build_competitors_impl(scenario, utility, opt_mode, rng);
}

std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::UtilitySet& utilities,
    OptMode opt_mode, util::Rng& rng) {
  if (utilities.size() != scenario.catalog.num_items()) {
    throw std::invalid_argument(
        "build_competitors: utility set size != item count");
  }
  return build_competitors_impl(scenario, utilities, opt_mode, rng);
}

SimulationResult run_fixed(const Scenario& scenario,
                           const utility::DelayUtility& utility,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility,
                                      scenario.catalog.num_items());
  return run_fixed(scenario, utilities, name, placement, base_options, rng);
}

SimulationResult run_fixed(const Scenario& scenario,
                           const utility::UtilitySet& utilities,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng) {
  SimOptions options = base_options;
  options.cache_capacity = scenario.capacity;
  options.sticky_replicas = false;  // frozen caches cannot lose items
  options.initial_placement = placement;
  StaticPolicy policy;
  auto result = simulate(scenario.trace, scenario.catalog, utilities, policy,
                         options, rng);
  result.policy = name;
  return result;
}

SimulationResult run_qcr(const Scenario& scenario,
                         const utility::DelayUtility& utility,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility,
                                      scenario.catalog.num_items());
  return run_qcr_impl(scenario, utilities, qcr_options, base_options, rng);
}

SimulationResult run_qcr(const Scenario& scenario,
                         const utility::UtilitySet& utilities,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng) {
  if (utilities.size() != scenario.catalog.num_items()) {
    throw std::invalid_argument("run_qcr: utility set size != item count");
  }
  return run_qcr_impl(scenario, utilities, qcr_options, base_options, rng);
}

double normalized_loss_percent(double utility_value, double opt_value) {
  const double denom = std::abs(opt_value);
  if (denom == 0.0) {
    throw std::invalid_argument("normalized_loss_percent: |U_opt| == 0");
  }
  return 100.0 * (utility_value - opt_value) / denom;
}

std::function<double(std::span<const int>)> homogeneous_welfare_probe(
    Catalog catalog, const utility::DelayUtility& utility,
    alloc::HomogeneousModel model) {
  // The probe outlives the caller's utility reference; keep a clone.
  std::shared_ptr<const utility::DelayUtility> u = utility.clone();
  auto cat = std::make_shared<Catalog>(std::move(catalog));
  return [u, cat, model](std::span<const int> counts) {
    alloc::ItemCounts x;
    x.x.assign(counts.begin(), counts.end());
    return alloc::welfare_homogeneous(x, cat->demands(), *u, model);
  };
}

WelfareProbe::WelfareProbe(const Scenario& scenario,
                           const utility::UtilitySet& utilities)
    : rates_(trace::estimate_rates(scenario.trace)) {
  const Population pop = Population::pure_p2p(scenario.num_nodes());
  oracle_ = std::make_unique<alloc::MarginalOracle>(
      rates_, scenario.catalog.demands(), utilities, pop.servers, pop.clients);
}

}  // namespace impatience::core
