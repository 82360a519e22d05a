// Mean-field (fluid-limit) evaluator: closed-form welfare and replica
// dynamics in replica-count space, replacing O(N^2 T) event simulation
// with O(I) algebra per evaluation — the million-node fast path of
// docs/perf.md §6.
//
// Two fidelities share one interface:
//  - kDiscrete evaluates the exact finite-horizon slot model
//    (alloc/discrete_gain.hpp): for FROZEN placements the prediction is
//    the exact expectation of SimulationResult::observed_utility() over
//    traces, not an asymptotic limit.
//  - kContinuous evaluates item_gain()'s infinite-horizon continuous
//    closed forms (the paper's analytical model, exact as mu -> 0).
//
// On top of the evaluator:
//  - mean_field_greedy / mean_field_competitors mirror the simulator
//    benches' OPT/UNI/SQRT/PROP/DOM construction in count space, so the
//    fig4 normalized-loss sweep can run at N = 10^6 without a trace.
//  - mean_field_qcr integrates the replica-fraction ODE of the QCR
//    reaction dynamics (dx_i/dt = inflow from fulfilment reactions -
//    proportional cache eviction) with an adaptive step-doubling RK4,
//    mirroring run_qcr()'s reaction construction constant for constant.
//    This one is an approximation (the stochastic counter y = N/x is
//    replaced by its mean), validated against the event kernel in
//    tests/core/mean_field_test.cpp.
//  - MeanFieldClassModel evaluates class-based (community) contact
//    rates: hazard q_c = 1 - prod_c' (1 - mu_{c,c'})^{x_{c'}}.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "impatience/alloc/allocation.hpp"
#include "impatience/alloc/discrete_gain.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/delay_utility.hpp"

namespace impatience::core {

enum class MeanFieldFidelity {
  kDiscrete,    ///< exact finite-horizon slot model (needs horizon > 0)
  kContinuous,  ///< item_gain() closed forms, infinite horizon
  kAutomatic,   ///< discrete when horizon > 0, else continuous
};

struct MeanFieldModel {
  double mu = 0.05;            ///< per-pair meeting probability per slot
  double num_nodes = 50;       ///< N (pure P2P)
  trace::Slot horizon = 5000;  ///< T; <= 0 forces the continuous fidelity
  MeanFieldFidelity fidelity = MeanFieldFidelity::kAutomatic;
  double tail_epsilon = 1e-16;  ///< discrete-sum truncation threshold

  bool discrete() const noexcept {
    return fidelity == MeanFieldFidelity::kDiscrete ||
           (fidelity == MeanFieldFidelity::kAutomatic && horizon > 0);
  }
};

/// Precomputes the per-request gain curve g(x) once (a table over
/// integer x for the discrete fidelity), then answers welfare queries in
/// O(I) and marginals in O(1). The discrete table costs O(N + T) plus
/// O((1/mu) log(1/eps)) hazard-sum terms: past the x where
/// 1 - (1-mu)^x rounds to 1.0 every row shares one exact S(1) (see
/// alloc::DiscreteGainTable), so the N = 10^6 build is ~4 ms.
class MeanFieldEvaluator {
 public:
  MeanFieldEvaluator(const utility::DelayUtility& u, const MeanFieldModel& m);

  /// Expected gain of one request for an item with x replicas.
  double item_gain(double x) const;

  /// sum_i d_i g(x_i): welfare per slot, the mean-field prediction of
  /// SimulationResult::observed_utility().
  double welfare_rate(const alloc::ItemCounts& counts,
                      const std::vector<double>& demand) const;

  /// g(x + 1) - g(x) on the integer grid (greedy's exchange currency).
  double marginal(long x) const;

  const MeanFieldModel& model() const noexcept { return model_; }

 private:
  MeanFieldModel model_;
  std::optional<alloc::DiscreteGainTable> table_;  // discrete fidelity
  const utility::DelayUtility* utility_;           // continuous fidelity
};

/// Welfare rate of an allocation without keeping the evaluator.
double mean_field_welfare(const alloc::ItemCounts& counts,
                          const std::vector<double>& demand,
                          const utility::DelayUtility& u,
                          const MeanFieldModel& m);

/// Greedy marginal-gain allocation of `capacity` total replicas in count
/// space (integer x_i in [0, N]); the mean-field OPT. Discrete fidelity
/// runs a max-heap greedy over table marginals; continuous delegates to
/// alloc::homogeneous_greedy. The discrete greedy places a run of
/// replicas on the popped item for as long as it keeps beating the heap
/// top, which gives the same placements as one pop per replica (ties go
/// to the lowest item) and touches the heap only when the leader
/// changes. Past the saturated point of the table, marginals are flat
/// and the runs are long.
alloc::ItemCounts mean_field_greedy(const std::vector<double>& demand,
                                    const utility::DelayUtility& u,
                                    const MeanFieldModel& m, long capacity);

struct NamedCounts {
  std::string name;
  alloc::ItemCounts counts;
};

/// OPT/UNI/SQRT/PROP/DOM in count space, built exactly like the
/// simulator competitors (same heuristics, same round_counts pipeline,
/// per-item cap N), with capacity = cache_capacity * N total replicas.
std::vector<NamedCounts> mean_field_competitors(
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldModel& m, int cache_capacity);

/// Adaptive-RK controls for mean_field_qcr.
struct MeanFieldOdeOptions {
  double rel_tol = 1e-6;
  double abs_tol = 1e-9;
  double initial_step = 1.0;  ///< slots
  double max_step = 0.0;      ///< 0 = horizon / 16
  long max_steps = 200000;
};

struct MeanFieldQcrResult {
  alloc::ItemCounts final_counts;  ///< x_i(T)
  double mean_welfare_rate = 0.0;  ///< time-average of sum_i d_i g(x_i(t))
  double final_welfare_rate = 0.0;
  long steps = 0;          ///< accepted RK steps
  long rejected_steps = 0; ///< halved-and-retried steps
};

/// Integrates the QCR replica-fraction ODE from the uniform initial fill
/// x_i(0) = rho N / I to t = horizon:
///
///   dx_i/dt = d_i (1 - x_i/N) R_i(N/x_i)  -  W (x_i - 1) / sum_j (x_j - 1)
///
/// where R_i is run_qcr()'s reaction (utility::ReactionFunction with the
/// same auto-normalization, counter clamp and burst cap as
/// build_reactions / run_qcr_impl) and W is total inflow, so total
/// replicas are conserved at rho N (caches stay full; eviction hits a
/// uniformly random non-sticky replica). The sticky floor x_i >= 1 is an
/// invariant of the field: outflow of item i vanishes as x_i -> 1.
MeanFieldQcrResult mean_field_qcr(const std::vector<double>& demand,
                                  const utility::DelayUtility& u,
                                  const MeanFieldModel& m, int cache_capacity,
                                  const QcrOptions& qcr = {},
                                  const MeanFieldOdeOptions& ode = {});

/// Class-based (community) contact structure: node classes c with sizes
/// N_c and symmetric per-pair meeting probabilities rates[c][c'] per
/// slot (diagonal = intra-class).
struct MeanFieldClassModel {
  std::vector<double> class_sizes;
  std::vector<std::vector<double>> rates;
  trace::Slot horizon = 5000;
  double tail_epsilon = 1e-16;

  double num_nodes() const;
};

/// Welfare rate for per-class replica counts x[c].x[i]: a class-c
/// request sees hazard q_{i,c} = 1 - prod_c' (1 - mu_{c,c'})^{x_{c'}}
/// and immediate-hit probability x_c / N_c; classes are weighted by
/// N_c / N (uniform demand over all nodes). Exact in expectation for
/// frozen placements, like the homogeneous discrete fidelity.
double mean_field_welfare_classes(
    const std::vector<alloc::ItemCounts>& counts_by_class,
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldClassModel& m);

/// The class model matching trace::generate_community_trace(params):
/// equal-size classes via community_of, intra rate within, inter across.
MeanFieldClassModel community_class_model(
    const trace::CommunityTraceParams& params);

/// Splits a placement into per-class replica counts using
/// trace::community_of on the server index (pure P2P: server index ==
/// node id), for feeding mean_field_welfare_classes.
std::vector<alloc::ItemCounts> counts_by_community(
    const alloc::Placement& placement, int num_communities);

}  // namespace impatience::core
