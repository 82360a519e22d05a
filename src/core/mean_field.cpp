#include "impatience/core/mean_field.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "impatience/alloc/heuristics.hpp"
#include "impatience/alloc/rounding.hpp"
#include "impatience/alloc/solvers.hpp"
#include "impatience/alloc/welfare.hpp"
#include "impatience/utility/reaction.hpp"

namespace impatience::core {
namespace {

void validate_model(const MeanFieldModel& m) {
  if (!(m.mu >= 0.0) || !(m.mu <= 1.0)) {
    throw std::invalid_argument("MeanFieldModel: mu must be in [0, 1]");
  }
  if (!(m.num_nodes >= 1.0)) {
    throw std::invalid_argument("MeanFieldModel: num_nodes must be >= 1");
  }
  if (m.discrete() && m.horizon <= 0) {
    throw std::invalid_argument(
        "MeanFieldModel: the discrete fidelity needs horizon > 0");
  }
}

alloc::HomogeneousModel continuous_model(const MeanFieldModel& m) {
  alloc::HomogeneousModel hm;
  hm.mu = m.mu;
  hm.num_servers = static_cast<NodeId>(m.num_nodes);
  hm.num_clients = static_cast<NodeId>(m.num_nodes);
  hm.mode = alloc::SystemMode::kPureP2P;
  return hm;
}

long node_cap(const MeanFieldModel& m) {
  return static_cast<long>(std::llround(m.num_nodes));
}

}  // namespace

MeanFieldEvaluator::MeanFieldEvaluator(const utility::DelayUtility& u,
                                       const MeanFieldModel& m)
    : model_(m), utility_(&u) {
  validate_model(m);
  if (model_.discrete()) {
    alloc::DiscreteGainModel dm;
    dm.mu = m.mu;
    dm.num_nodes = m.num_nodes;
    dm.horizon = m.horizon;
    dm.tail_epsilon = m.tail_epsilon;
    table_.emplace(u, dm, node_cap(m));
  } else if (!u.bounded_at_zero()) {
    // Same unbounded-at-zero failure mode as the table path.
    throw std::domain_error(
        "MeanFieldEvaluator: pure P2P requires h(0+) bounded (utility '" +
        u.name() + "' diverges at zero)");
  }
}

double MeanFieldEvaluator::item_gain(double x) const {
  if (table_) return table_->gain(x);
  return alloc::item_gain(*utility_, continuous_model(model_), x);
}

double MeanFieldEvaluator::welfare_rate(
    const alloc::ItemCounts& counts, const std::vector<double>& demand) const {
  if (counts.x.size() != demand.size()) {
    throw std::invalid_argument(
        "MeanFieldEvaluator::welfare_rate: counts/demand size mismatch");
  }
  if (table_) return table_->welfare_rate(counts, demand);
  double total = 0.0;
  const alloc::HomogeneousModel hm = continuous_model(model_);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    total += demand[i] * alloc::item_gain(*utility_, hm, counts.x[i]);
  }
  return total;
}

double MeanFieldEvaluator::marginal(long x) const {
  if (table_) return table_->marginal(x);
  const alloc::HomogeneousModel hm = continuous_model(model_);
  return alloc::item_gain(*utility_, hm, static_cast<double>(x) + 1.0) -
         alloc::item_gain(*utility_, hm, static_cast<double>(x));
}

double mean_field_welfare(const alloc::ItemCounts& counts,
                          const std::vector<double>& demand,
                          const utility::DelayUtility& u,
                          const MeanFieldModel& m) {
  return MeanFieldEvaluator(u, m).welfare_rate(counts, demand);
}

alloc::ItemCounts mean_field_greedy(const std::vector<double>& demand,
                                    const utility::DelayUtility& u,
                                    const MeanFieldModel& m, long capacity) {
  validate_model(m);
  if (capacity < 0) {
    throw std::invalid_argument("mean_field_greedy: capacity must be >= 0");
  }
  const long cap_per_item = node_cap(m);
  const long num_items = static_cast<long>(demand.size());
  if (capacity > num_items * cap_per_item) {
    throw std::invalid_argument(
        "mean_field_greedy: capacity exceeds num_items * num_nodes");
  }
  if (!m.discrete()) {
    return alloc::homogeneous_greedy(demand, u, continuous_model(m),
                                     static_cast<int>(capacity));
  }

  MeanFieldEvaluator eval(u, m);
  alloc::ItemCounts counts;
  counts.x.assign(demand.size(), 0.0);
  std::vector<long> x(demand.size(), 0);

  // Max-heap greedy over weighted marginals, exact by concavity of g(x)
  // (the discrete hazard has diminishing returns). Every item below its
  // cap has exactly one entry, and cmp is a strict total order on
  // distinct items, so the popped item keeps winning for as long as its
  // next entry beats heap.top(): place that whole run without touching
  // the heap. The placement sequence is the one-pop-per-replica greedy's;
  // only the heap traffic differs. Runs are long once items reach the
  // saturated tail of the gain table, where marginals are flat.
  struct Entry {
    double gain;
    std::size_t item;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.item > b.item;  // deterministic ties: lowest item first
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (cap_per_item > 0) heap.push({demand[i] * eval.marginal(0), i});
  }
  long placed = 0;
  while (placed < capacity && !heap.empty()) {
    Entry top = heap.top();
    if (top.gain < 0.0) break;  // g is non-decreasing; numerical guard
    heap.pop();
    long& xi = x[top.item];
    for (;;) {
      ++xi;
      ++placed;
      if (xi >= cap_per_item || placed >= capacity) break;
      top.gain = demand[top.item] * eval.marginal(xi);
      // A negative gain goes back to the heap so the guard above sees it
      // exactly when the one-per-pop loop would have popped it.
      if (top.gain < 0.0 || (!heap.empty() && cmp(top, heap.top()))) {
        heap.push(top);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    counts.x[i] = static_cast<double>(x[i]);
  }
  return counts;
}

std::vector<NamedCounts> mean_field_competitors(
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldModel& m, int cache_capacity) {
  validate_model(m);
  if (cache_capacity <= 0) {
    throw std::invalid_argument(
        "mean_field_competitors: cache_capacity must be > 0");
  }
  const double servers = m.num_nodes;
  const double capacity_total = cache_capacity * servers;
  const auto cap_int = static_cast<int>(node_cap(m));

  std::vector<NamedCounts> out;
  out.reserve(5);
  out.push_back({"OPT", mean_field_greedy(
                            demand, u, m,
                            static_cast<long>(std::llround(capacity_total)))});
  out.push_back(
      {"UNI", alloc::round_counts(alloc::uniform_allocation(
                                      demand.size(), capacity_total, servers),
                                  cap_int)});
  out.push_back(
      {"SQRT", alloc::round_counts(
                   alloc::sqrt_allocation(demand, capacity_total, servers),
                   cap_int)});
  out.push_back(
      {"PROP", alloc::round_counts(
                   alloc::prop_allocation(demand, capacity_total, servers),
                   cap_int)});
  out.push_back(
      {"DOM", alloc::dom_allocation(demand, cache_capacity, servers)});
  return out;
}

MeanFieldQcrResult mean_field_qcr(const std::vector<double>& demand,
                                  const utility::DelayUtility& u,
                                  const MeanFieldModel& m, int cache_capacity,
                                  const QcrOptions& qcr,
                                  const MeanFieldOdeOptions& ode) {
  validate_model(m);
  if (m.horizon <= 0) {
    throw std::invalid_argument("mean_field_qcr: horizon must be > 0");
  }
  const std::size_t num_items = demand.size();
  if (num_items == 0) {
    throw std::invalid_argument("mean_field_qcr: empty demand");
  }
  if (cache_capacity <= 0 ||
      static_cast<std::size_t>(cache_capacity) > num_items) {
    throw std::invalid_argument(
        "mean_field_qcr: cache_capacity must be in [1, num_items]");
  }
  const double N = m.num_nodes;
  const double total = cache_capacity * N;
  if (total < static_cast<double>(num_items)) {
    throw std::invalid_argument(
        "mean_field_qcr: capacity below one sticky replica per item");
  }

  // Reaction construction, mirroring run_qcr()'s build_reactions /
  // run_qcr_impl constant for constant (S = N in pure P2P).
  const double x_uniform =
      std::max(1.0, cache_capacity * N / static_cast<double>(num_items));
  double scale = qcr.reaction_scale;
  if (qcr.auto_normalize_scale) {
    const double psi_uniform = utility::psi(u, m.mu, N, N / x_uniform);
    if (psi_uniform > 0.0) {
      scale *= qcr.target_replicas_per_fulfillment / psi_uniform;
    }
  }
  const utility::ReactionFunction reaction(u, m.mu, N, scale);
  const double burst_cap = qcr.max_replicas_per_fulfillment > 0.0
                               ? qcr.max_replicas_per_fulfillment
                               : static_cast<double>(cache_capacity);
  const double counter_cap = qcr.clamp_counter_at_servers
                                 ? N
                                 : std::numeric_limits<double>::infinity();

  // dx_i/dt = d_i (1 - x_i/N) min(psi(min(N/x_i, cap)), burst) - eviction.
  // Each created replica evicts a uniformly random non-sticky replica
  // (caches stay full), so outflow_i = W (x_i - 1) / sum_j (x_j - 1)
  // with W the total inflow: the total is conserved at rho N and the
  // sticky floor x_i >= 1 is an invariant (outflow vanishes at the
  // floor).
  auto derivative = [&](const std::vector<double>& x,
                        std::vector<double>& dx) {
    double inflow_total = 0.0;
    double free_total = 0.0;
    for (std::size_t i = 0; i < num_items; ++i) {
      const double xi = std::clamp(x[i], 1.0, N);
      const double y = std::min(std::max(N / xi, 1.0), counter_cap);
      const double r = std::min(reaction(y), burst_cap);
      dx[i] = demand[i] * (1.0 - xi / N) * r;  // inflow, for now
      inflow_total += dx[i];
      free_total += xi - 1.0;
    }
    if (free_total > 0.0) {
      const double per_free = inflow_total / free_total;
      for (std::size_t i = 0; i < num_items; ++i) {
        dx[i] -= per_free * (std::clamp(x[i], 1.0, N) - 1.0);
      }
    }
  };

  std::vector<double> x(num_items, total / static_cast<double>(num_items));
  std::vector<double> k1(num_items), k2(num_items), k3(num_items),
      k4(num_items), tmp(num_items), half(num_items), full(num_items);
  auto rk4 = [&](const std::vector<double>& from, double h,
                 std::vector<double>& to) {
    derivative(from, k1);
    for (std::size_t i = 0; i < num_items; ++i)
      tmp[i] = from[i] + 0.5 * h * k1[i];
    derivative(tmp, k2);
    for (std::size_t i = 0; i < num_items; ++i)
      tmp[i] = from[i] + 0.5 * h * k2[i];
    derivative(tmp, k3);
    for (std::size_t i = 0; i < num_items; ++i) tmp[i] = from[i] + h * k3[i];
    derivative(tmp, k4);
    for (std::size_t i = 0; i < num_items; ++i) {
      to[i] =
          from[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
  };
  // Numerical safety between steps: pin the sticky floor / node cap and
  // restore the conserved total by rescaling the free mass.
  auto project = [&](std::vector<double>& v) {
    double free_sum = 0.0;
    for (std::size_t i = 0; i < num_items; ++i) {
      v[i] = std::clamp(v[i], 1.0, N);
      free_sum += v[i] - 1.0;
    }
    const double target_free = total - static_cast<double>(num_items);
    if (free_sum > 0.0 && target_free >= 0.0) {
      const double ratio = target_free / free_sum;
      for (std::size_t i = 0; i < num_items; ++i) {
        v[i] = 1.0 + (v[i] - 1.0) * ratio;
      }
    }
  };

  MeanFieldEvaluator eval(u, m);
  alloc::ItemCounts probe;
  probe.x = x;
  double w_prev = eval.welfare_rate(probe, demand);
  double integral = 0.0;

  const double T = static_cast<double>(m.horizon);
  const double max_step = ode.max_step > 0.0 ? ode.max_step : T / 16.0;
  double t = 0.0;
  double h = std::min(ode.initial_step, max_step);
  MeanFieldQcrResult result;
  // Step-doubling RK4: compare one h-step against two h/2-steps, accept
  // the finer solution when the componentwise error passes the mixed
  // absolute/relative tolerance, and rescale h by the usual 1/5-order
  // rule either way.
  while (t < T) {
    if (result.steps + result.rejected_steps >= ode.max_steps) {
      throw std::runtime_error("mean_field_qcr: max_steps exceeded");
    }
    h = std::min(h, T - t);
    rk4(x, h, full);
    rk4(x, 0.5 * h, half);
    std::vector<double>& second = tmp;
    rk4(half, 0.5 * h, second);
    double err = 0.0;
    for (std::size_t i = 0; i < num_items; ++i) {
      const double tol = ode.abs_tol +
                         ode.rel_tol * std::max(std::abs(x[i]),
                                                std::abs(second[i]));
      err = std::max(err, std::abs(full[i] - second[i]) / tol);
    }
    if (err <= 1.0) {
      std::swap(x, second);
      project(x);
      t += h;
      ++result.steps;
      probe.x = x;
      const double w = eval.welfare_rate(probe, demand);
      integral += 0.5 * (w_prev + w) * h;
      w_prev = w;
      const double grow =
          err > 0.0 ? std::clamp(0.9 * std::pow(err, -0.2), 1.0, 5.0) : 5.0;
      h = std::min(h * grow, max_step);
    } else {
      ++result.rejected_steps;
      h *= std::clamp(0.9 * std::pow(err, -0.2), 0.1, 0.5);
    }
  }

  result.final_counts.x = x;
  result.mean_welfare_rate = integral / T;
  result.final_welfare_rate = w_prev;
  return result;
}

double MeanFieldClassModel::num_nodes() const {
  double n = 0.0;
  for (double s : class_sizes) n += s;
  return n;
}

namespace {

void validate_class_model(const MeanFieldClassModel& m) {
  if (m.class_sizes.empty()) {
    throw std::invalid_argument("MeanFieldClassModel: no classes");
  }
  for (double s : m.class_sizes) {
    if (!(s >= 1.0)) {
      throw std::invalid_argument(
          "MeanFieldClassModel: class sizes must be >= 1");
    }
  }
  if (m.rates.size() != m.class_sizes.size()) {
    throw std::invalid_argument(
        "MeanFieldClassModel: rates must be classes x classes");
  }
  for (const auto& row : m.rates) {
    if (row.size() != m.class_sizes.size()) {
      throw std::invalid_argument(
          "MeanFieldClassModel: rates must be classes x classes");
    }
    for (double r : row) {
      if (!(r >= 0.0)) {
        throw std::invalid_argument("MeanFieldClassModel: rates must be >= 0");
      }
    }
  }
  if (m.horizon <= 0) {
    throw std::invalid_argument("MeanFieldClassModel: horizon must be > 0");
  }
}

}  // namespace

double mean_field_welfare_classes(
    const std::vector<alloc::ItemCounts>& counts_by_class,
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldClassModel& m) {
  validate_class_model(m);
  const std::size_t num_classes = m.class_sizes.size();
  if (counts_by_class.size() != num_classes) {
    throw std::invalid_argument(
        "mean_field_welfare_classes: one ItemCounts per class expected");
  }
  for (const auto& c : counts_by_class) {
    if (c.x.size() != demand.size()) {
      throw std::invalid_argument(
          "mean_field_welfare_classes: counts/demand size mismatch");
    }
  }
  if (!u.bounded_at_zero()) {
    throw std::domain_error(
        "mean_field_welfare_classes: pure P2P requires h(0+) bounded");
  }
  const double h0 = u.value_at_zero();
  const double n_total = m.num_nodes();

  double welfare = 0.0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    double item_value = 0.0;
    for (std::size_t c = 0; c < num_classes; ++c) {
      // Per-slot miss probability of a class-c client against every
      // holder class; the generators clip per-pair rates at 1.
      double log_miss = 0.0;
      for (std::size_t cp = 0; cp < num_classes; ++cp) {
        const double rate = std::min(m.rates[c][cp], 1.0);
        const double xcp =
            std::clamp(counts_by_class[cp].x[i], 0.0, m.class_sizes[cp]);
        if (rate >= 1.0) {
          if (xcp > 0.0) log_miss = -std::numeric_limits<double>::infinity();
        } else {
          log_miss += xcp * std::log1p(-rate);
        }
      }
      const double q = 1.0 - std::exp(log_miss);
      const double xc =
          std::clamp(counts_by_class[c].x[i], 0.0, m.class_sizes[c]);
      const double immediate = xc / m.class_sizes[c];
      const double gain =
          immediate * h0 +
          (1.0 - immediate) * alloc::censored_geometric_gain(
                                  u, q, m.horizon, m.tail_epsilon);
      item_value += (m.class_sizes[c] / n_total) * gain;
    }
    welfare += demand[i] * item_value;
  }
  return welfare;
}

MeanFieldClassModel community_class_model(
    const trace::CommunityTraceParams& params) {
  if (params.num_communities <= 0) {
    throw std::invalid_argument(
        "community_class_model: num_communities must be > 0");
  }
  MeanFieldClassModel m;
  const auto num_classes = static_cast<std::size_t>(params.num_communities);
  m.class_sizes.assign(num_classes, 0.0);
  for (NodeId n = 0; n < params.num_nodes; ++n) {
    m.class_sizes[static_cast<std::size_t>(
        trace::community_of(n, params.num_communities))] += 1.0;
  }
  m.rates.assign(num_classes,
                 std::vector<double>(num_classes, params.inter_rate));
  for (std::size_t c = 0; c < num_classes; ++c) {
    m.rates[c][c] = params.intra_rate;
  }
  m.horizon = params.duration;
  return m;
}

std::vector<alloc::ItemCounts> counts_by_community(
    const alloc::Placement& placement, int num_communities) {
  if (num_communities <= 0) {
    throw std::invalid_argument(
        "counts_by_community: num_communities must be > 0");
  }
  std::vector<alloc::ItemCounts> out(
      static_cast<std::size_t>(num_communities));
  for (auto& c : out) c.x.assign(placement.num_items(), 0.0);
  for (alloc::ItemId item = 0; item < placement.num_items(); ++item) {
    for (NodeId s = 0; s < placement.num_servers(); ++s) {
      if (placement.has(item, s)) {
        out[static_cast<std::size_t>(trace::community_of(s, num_communities))]
            .x[item] += 1.0;
      }
    }
  }
  return out;
}

}  // namespace impatience::core
