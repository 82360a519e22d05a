#include <algorithm>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>

#include "impatience/core/sim_state.hpp"
#include "impatience/core/simulator.hpp"
#include "impatience/engine/thread_pool.hpp"
#include "impatience/trace/partition.hpp"
#include "impatience/util/alias.hpp"
#include "sim_internal.hpp"

namespace impatience::core {

const char* kernel_name(SimKernel kernel) noexcept {
  return kernel == SimKernel::event_driven ? "event" : "slot";
}

Population Population::pure_p2p(NodeId num_nodes) {
  Population p;
  p.servers.resize(num_nodes);
  std::iota(p.servers.begin(), p.servers.end(), 0);
  p.clients = p.servers;
  return p;
}

Population Population::dedicated(NodeId num_servers, NodeId num_clients) {
  Population p;
  p.servers.resize(num_servers);
  std::iota(p.servers.begin(), p.servers.end(), 0);
  p.clients.resize(num_clients);
  std::iota(p.clients.begin(), p.clients.end(), num_servers);
  return p;
}

namespace {

/// Pins `item` as the cache's sticky replica, evicting a random
/// non-sticky item if the cache is full and lacks it.
void force_pin_sticky(Cache& cache, ItemId item, util::Rng& rng) {
  if (!cache.contains(item) && cache.full()) {
    // Evict a uniformly random victim to make room (none is sticky yet).
    const auto& items = cache.items();
    cache.erase(items[rng.uniform_index(items.size())]);
  }
  cache.pin_sticky(item);
}

void fill_random(Cache& cache, ItemId num_items, util::Rng& rng) {
  // Distinct uniformly random items into the remaining slots.
  while (!cache.full() && cache.size() < static_cast<int>(num_items)) {
    const auto item = static_cast<ItemId>(rng.uniform_index(num_items));
    if (!cache.contains(item)) {
      cache.insert_random_replace(item, rng);
    }
  }
}

/// InitSampling::alias counterpart of force_pin_sticky: the eviction
/// victim comes from a uniform alias table over the cached items. Same
/// uniform law, different stream use.
void force_pin_sticky_alias(Cache& cache, ItemId item, util::Rng& rng,
                            std::vector<double>& weights,
                            util::AliasTable& table) {
  if (!cache.contains(item) && cache.full()) {
    const auto& items = cache.items();
    weights.assign(items.size(), 1.0);
    table.rebuild(weights);
    cache.erase(items[table.sample(rng)]);
  }
  cache.pin_sticky(item);
}

/// InitSampling::alias counterpart of fill_random: each slot draws from
/// an alias table over the still-absent items, so the fill needs exactly
/// one draw per slot instead of a rejection loop whose acceptance rate
/// decays as the cache approaches the catalog size. The drawn item is
/// swap-removed and the table rebuilt (O(|absent|) per slot — the fill
/// runs once per trial, so predictable cost beats the rebuild).
void fill_random_alias(Cache& cache, ItemId num_items, util::Rng& rng,
                       std::vector<double>& weights,
                       util::AliasTable& table) {
  std::vector<ItemId> absent;
  absent.reserve(num_items);
  for (ItemId i = 0; i < num_items; ++i) {
    if (!cache.contains(i)) absent.push_back(i);
  }
  while (!cache.full() && !absent.empty()) {
    weights.assign(absent.size(), 1.0);
    table.rebuild(weights);
    const std::size_t k = table.sample(rng);
    cache.insert_random_replace(absent[k], rng);
    absent[k] = absent.back();
    absent.pop_back();
  }
}

/// Change-listener context of one server cache: updates the global
/// replica counts and, when the incremental welfare probe is on, mirrors
/// the delta into the oracle's tracked placement.
struct CacheSubscriber {
  std::vector<int>* counts = nullptr;
  alloc::MarginalOracle* probe = nullptr;  // may be null
  NodeId server_index = 0;                 // oracle server row
};

/// The parallel meeting path (SimOptions::meeting_parallelism >= 1).
/// Each meeting batch is conflict-scheduled into node-disjoint antichain
/// waves interleaved with trace-order commit runs (WavePartitioner::
/// schedule): a wave's read-only plans fan out over `threads` (the
/// caller plus threads - 1 ForkJoinTeam workers), then the next commit
/// run executes on the caller's thread in exact trace order — which
/// keeps every RNG draw in the sequential order, so results are
/// bit-identical to the fused walk for any thread count. The schedule
/// guarantees every planned meeting's earlier conflicting meetings have
/// already committed, so plans read exactly the state the fused walk
/// would have seen; workers only ever run between commit runs, so plans
/// read a quiescent state and commits race with nothing.
class MeetingBatchRunner {
 public:
  MeetingBatchRunner(detail::SimState& state, NodeId num_nodes,
                     unsigned threads)
      : state_(state), partitioner_(num_nodes), threads_(threads) {
    if (threads_ > 1) {
      team_.emplace(threads_ - 1);
      plan_job_ = [this](unsigned tid) { plan_chunk(tid); };
    }
  }

  /// Processes one meeting batch; with `faults`, draws the per-meeting
  /// truncation decisions at commit exactly as the fused faulty loop
  /// does (the plan's match total is the negotiated volume).
  void run(std::span<const trace::ContactEvent> batch,
           fault::FaultPlan* faults) {
    partitioner_.schedule(batch, order_, wave_ends_, commit_ends_);
    if (plans_.size() < batch.size()) plans_.resize(batch.size());
    std::size_t wave_begin = 0;
    std::size_t cursor = 0;
    for (std::size_t w = 0; w < wave_ends_.size(); ++w) {
      plan_wave(batch, wave_begin, wave_ends_[w]);
      commit_run(batch, cursor, commit_ends_[w], faults);
      wave_begin = wave_ends_[w];
      cursor = commit_ends_[w];
    }
  }

 private:
  /// Below this wave size the fork-join barrier costs more than the
  /// plans; plan inline instead. Only affects speed — results are
  /// identical either way.
  static constexpr std::size_t kInlineWave = 4;

  void plan_one(std::span<const trace::ContactEvent> batch,
                std::size_t k) {
    const trace::ContactEvent& e = batch[k];
    detail::plan_meeting(state_, state_.nodes[e.a], state_.nodes[e.b],
                         plans_[k]);
  }

  /// Team member `tid`'s share of the current wave: a contiguous stripe
  /// of order_[wave_begin_, wave_end_).
  void plan_chunk(unsigned tid) {
    const std::size_t n = wave_end_ - wave_begin_;
    const std::size_t per = (n + threads_ - 1) / threads_;
    const std::size_t lo = wave_begin_ + tid * per;
    const std::size_t hi = std::min(wave_end_, lo + per);
    try {
      for (std::size_t k = lo; k < hi; ++k) {
        plan_one(batch_, order_[k]);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void plan_wave(std::span<const trace::ContactEvent> batch,
                 std::size_t begin, std::size_t end) {
    if (!team_ || end - begin < kInlineWave) {
      for (std::size_t k = begin; k < end; ++k) {
        plan_one(batch, order_[k]);
      }
      return;
    }
    batch_ = batch;
    wave_begin_ = begin;
    wave_end_ = end;
    team_->run(plan_job_);
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  void commit_run(std::span<const trace::ContactEvent> batch,
                  std::size_t begin, std::size_t end,
                  fault::FaultPlan* faults) {
    for (std::size_t k = begin; k < end; ++k) {
      const trace::ContactEvent& e = batch[k];
      const detail::MeetingPlan& plan = plans_[k];
      if (faults && faults->should_truncate()) {
        const long negotiated = plan.total_matches();
        if (negotiated > 0) {
          state_.transfer_budget = faults->truncation_prefix(negotiated);
          faults->counters().fulfilments_deferred +=
              static_cast<std::uint64_t>(negotiated -
                                         state_.transfer_budget);
        }
      }
      detail::commit_meeting(state_, state_.nodes[e.a], state_.nodes[e.b],
                             plan);
      state_.transfer_budget = -1;
    }
  }

  detail::SimState& state_;
  trace::WavePartitioner partitioner_;
  unsigned threads_;
  std::optional<engine::ForkJoinTeam> team_;
  std::function<void(unsigned)> plan_job_;
  std::vector<std::uint32_t> order_;       // meetings grouped by wave
  std::vector<std::size_t> wave_ends_;
  std::vector<std::size_t> commit_ends_;
  std::vector<detail::MeetingPlan> plans_;
  // Current wave, published to the team by ForkJoinTeam::run's barrier.
  std::span<const trace::ContactEvent> batch_;
  std::size_t wave_begin_ = 0;
  std::size_t wave_end_ = 0;
  std::mutex error_mu_;
  std::exception_ptr error_;  // first planner failure, rethrown on main
};

/// Kernel body shared by the materialized and streaming entry points.
/// Both kernels pull meeting batches from `feed` one slot at a time —
/// the bounded look-ahead window — so the materialized ContactTrace
/// overloads (a MaterializedSource view) and the streaming overloads
/// run the exact same code, operation for operation.
SimulationResult simulate_impl(trace::EventSource& feed,
                               const Catalog& catalog,
                               const utility::UtilitySet& utilities,
                               ReplicationPolicy& policy,
                               const Population& population,
                               const SimOptions& options, util::Rng& rng) {
  const NodeId num_nodes = feed.num_nodes();
  const Slot duration = feed.duration();
  if (utilities.size() != catalog.num_items()) {
    throw std::invalid_argument("simulate: utility set size != item count");
  }
  if (options.cache_capacity <= 0) {
    throw std::invalid_argument("simulate: cache capacity must be > 0");
  }
  const auto num_items = catalog.num_items();
  const auto num_servers = static_cast<NodeId>(population.servers.size());
  if (num_servers == 0 || population.clients.empty()) {
    throw std::invalid_argument("simulate: empty population");
  }
  for (NodeId n : population.servers) {
    if (n >= num_nodes) {
      throw std::invalid_argument("simulate: server id outside trace");
    }
  }
  for (NodeId n : population.clients) {
    if (n >= num_nodes) {
      throw std::invalid_argument("simulate: client id outside trace");
    }
  }

  // Build nodes.
  std::vector<char> is_server(num_nodes, 0);
  std::vector<char> is_client(num_nodes, 0);
  for (NodeId n : population.servers) is_server[n] = 1;
  for (NodeId n : population.clients) is_client[n] = 1;

  // The query-counter clocks and the global replica counts live in
  // SimulationState's flat arrays; nodes view their clock there (the SoA
  // constructor).
  SimulationState soa(num_nodes, num_items);
  detail::SimState state;
  state.nodes.reserve(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    state.nodes.emplace_back(soa, n, num_items, options.cache_capacity,
                             is_server[n] != 0, is_client[n] != 0);
  }

  // Incremental expected-welfare probe: validated and cleared before the
  // listeners attach, so every cache change of the run — initial fill
  // included — flows into the oracle exactly once.
  if (options.welfare_probe && options.expected_welfare) {
    throw std::invalid_argument(
        "simulate: welfare_probe and expected_welfare are mutually exclusive");
  }
  alloc::MarginalOracle* probe = options.welfare_probe;
  if (probe) {
    if (probe->num_items() != num_items || probe->num_servers() != num_servers) {
      throw std::invalid_argument(
          "simulate: welfare_probe dimensions do not match the scenario");
    }
    probe->reset(
        alloc::Placement(num_items, num_servers, options.cache_capacity));
  }

  // Global replica counts, maintained incrementally by cache change
  // listeners. Attached before any content is placed so the initial
  // placement / sticky seeding / random fill are counted too; from then
  // on every insert, eviction and erase (including the ones policies
  // perform during meetings) updates `counts` in O(1) instead of the
  // per-sample full rescan of all server caches. The listener is a plain
  // function pointer + context (no std::function dispatch on the cache
  // mutation hot path); each server gets its own context so the welfare
  // probe learns which oracle row a delta belongs to.
  std::vector<int>& counts = soa.replica_counts();
  std::vector<CacheSubscriber> subscribers(num_servers);
  for (NodeId s = 0; s < num_servers; ++s) {
    subscribers[s] = {&counts, probe, s};
    state.nodes[population.servers[s]].cache().set_change_listener(
        [](void* context, ItemId item, int delta) {
          auto* sub = static_cast<CacheSubscriber*>(context);
          (*sub->counts)[item] += delta;
          if (sub->probe) {
            if (delta > 0) {
              sub->probe->add(item, sub->server_index);
            } else {
              sub->probe->remove(item, sub->server_index);
            }
          }
        },
        &subscribers[s]);
  }

  // Initial cache contents.
  if (options.initial_placement) {
    const alloc::Placement& p = *options.initial_placement;
    if (p.num_servers() != num_servers || p.num_items() != num_items ||
        p.capacity_per_server() > options.cache_capacity) {
      throw std::invalid_argument(
          "simulate: initial placement incompatible with scenario");
    }
    for (NodeId s = 0; s < num_servers; ++s) {
      Cache& cache = state.nodes[population.servers[s]].cache();
      for (ItemId i = 0; i < num_items; ++i) {
        if (p.has(i, s)) cache.insert_random_replace(i, rng);
      }
    }
  }
  const bool alias_init = options.init_sampling == InitSampling::alias;
  std::vector<double> init_weights;
  util::AliasTable init_table;
  if (options.sticky_replicas) {
    // Item i is seeded at server index (i mod |S|); at most one sticky
    // per node, so with more items than servers the surplus items go
    // unseeded (the paper's scenario has |I| = |S|).
    for (ItemId i = 0; i < num_items; ++i) {
      const NodeId seeder = population.servers[i % num_servers];
      Cache& cache = state.nodes[seeder].cache();
      if (cache.sticky()) continue;
      if (alias_init) {
        force_pin_sticky_alias(cache, i, rng, init_weights, init_table);
      } else {
        force_pin_sticky(cache, i, rng);
      }
    }
  }
  if (!options.initial_placement) {
    for (NodeId s : population.servers) {
      if (alias_init) {
        fill_random_alias(state.nodes[s].cache(), num_items, rng,
                          init_weights, init_table);
      } else {
        fill_random(state.nodes[s].cache(), num_items, rng);
      }
    }
  }

  // Demand and measurement plumbing.
  auto make_demand = [&](const Catalog& cat) {
    if (options.popularity) {
      return DemandProcess(cat, population.clients,
                           options.popularity->pi);
    }
    return DemandProcess(cat, population.clients);
  };
  DemandProcess demand = make_demand(catalog);
  for (std::size_t k = 0; k < options.demand_schedule.size(); ++k) {
    const auto& [at, cat] = options.demand_schedule[k];
    if (cat.num_items() != num_items) {
      throw std::invalid_argument(
          "simulate: demand_schedule catalog item count mismatch");
    }
    if (at < 0 || (k > 0 && at < options.demand_schedule[k - 1].first)) {
      throw std::invalid_argument(
          "simulate: demand_schedule must be sorted by slot");
    }
  }
  std::size_t next_demand_change = 0;
  stats::BinnedSeries observed(options.metrics.bin_width,
                               static_cast<double>(duration));

  state.utilities = &utilities;
  state.policy = &policy;
  state.rng = &rng;
  state.observed = &observed;
  state.on_fulfillment = &options.on_fulfillment;

  SimulationResult result;
  result.policy = policy.name();
  result.duration = duration;
  result.replica_series.resize(options.metrics.tracked_items.size());

  auto* qcr = dynamic_cast<QcrPolicy*>(&policy);
  const long mandates_before = qcr ? qcr->mandates_created() : 0;
  const long written_before = qcr ? qcr->replicas_written() : 0;

  // Fault injection (docs/robustness.md). The plan draws every decision
  // from its own stream, so the fault-free path below is untouched bit
  // for bit whenever the plan is inert.
  fault::FaultPlan fault_plan(options.faults);
  // down_until[n] > slot  <=>  node n is crashed during `slot`.
  std::vector<Slot> down_until;
  std::vector<trace::ContactEvent> delivery;
  if (fault_plan.active()) {
    down_until.assign(num_nodes, 0);
    // A slot's delivered sequence is at most every surviving meeting plus
    // one duplicate each; reserving here keeps the staging buffer from
    // reallocating inside the slot loop. Sources without a cheap bound
    // report 0 and the buffer grows on first use instead.
    delivery.reserve(2 * feed.max_slot_events_hint());
  }

  // Intra-run meeting-level parallelism (docs/perf.md §5): >= 1 switches
  // every meeting batch to the plan/commit path, bit-identical to the
  // fused walk; 0 keeps the fused walk itself (the bit-locked default —
  // same results either way, but the reference code path stays live).
  const unsigned intra_threads =
      engine::resolve_intra_threads(options.meeting_parallelism, 1);
  std::optional<MeetingBatchRunner> meeting_runner;
  if (intra_threads >= 1) {
    meeting_runner.emplace(state, num_nodes, intra_threads);
  }

  // Policies that track global state seed themselves from the initial
  // allocation (e.g. HillClimbPolicy).
  policy.on_initialized(std::span<const int>(counts));

  const bool event_kernel = options.kernel == SimKernel::event_driven;

  // Shared per-request handling: resolve an own-cache hit at the creation
  // slot, otherwise enqueue the request.
  auto admit_request = [&](ItemId item, NodeId node_id, Slot slot) {
    ++result.requests_created;
    Node& node = state.nodes[node_id];
    if (node.holds(item)) {
      // Immediate own-cache hit.
      if (!utilities[item].bounded_at_zero()) {
        throw std::logic_error(
            "simulate: immediate fulfilment with unbounded h(0+); use "
            "the dedicated-node population for this utility");
      }
      const double gain = utilities[item].value_at_zero();
      state.total_gain += gain;
      detail::record_gain(state, static_cast<double>(slot), gain);
      if (options.on_fulfillment) {
        options.on_fulfillment(item, node_id, 0.0, gain);
      }
      ++result.immediate_fulfillments;
    } else {
      node.create_request(item, slot);
    }
  };

  // Periodic metrics sampling at `slot` (after the slot's meetings).
  auto sample_metrics = [&](Slot slot) {
    if (options.expected_welfare || probe ||
        !options.metrics.tracked_items.empty()) {
      if (options.expected_welfare) {
        result.expected_series.push_back(
            {static_cast<double>(slot),
             options.expected_welfare(std::span<const int>(counts))});
      }
      if (probe) {
        result.expected_series.push_back(
            {static_cast<double>(slot), probe->welfare_cached()});
      }
      for (std::size_t k = 0; k < options.metrics.tracked_items.size();
           ++k) {
        const ItemId item = options.metrics.tracked_items[k];
        result.replica_series[k].push_back(
            {static_cast<double>(slot), static_cast<double>(counts[item])});
      }
    }
  };

  // Faulty delivery of one slot's meetings, shared by both kernels: stage
  // the slot's surviving meetings so reordering and duplication act on
  // the delivered sequence, not the trace. The body is the slot-stepped
  // fault block verbatim, so that kernel stays bit-locked.
  auto process_faulty_meetings =
      [&](Slot slot, std::span<const trace::ContactEvent> slot_events) {
        auto& counters = fault_plan.counters();
        delivery.clear();
        for (const trace::ContactEvent& e : slot_events) {
          if (down_until[e.a] > slot || down_until[e.b] > slot) {
            ++counters.meetings_skipped_down;
            continue;
          }
          if (fault_plan.drop_meeting()) continue;
          delivery.push_back(e);
          if (fault_plan.duplicate_meeting()) delivery.push_back(e);
        }
        if (delivery.size() >= 2 && fault_plan.reorder_slot()) {
          fault_plan.shuffle_delivery(delivery);
        }
        if (meeting_runner) {
          meeting_runner->run(
              std::span<const trace::ContactEvent>(delivery), &fault_plan);
          return;
        }
        for (const trace::ContactEvent& e : delivery) {
          if (fault_plan.should_truncate()) {
            // Cut the exchange after a seeded prefix of the negotiated
            // (fulfillable) items; the rest stay pending. The policy's
            // mandate-execution step still runs — truncation models a
            // cut data transfer, not a lost control channel.
            const long negotiated = detail::count_fulfillable(
                state.nodes[e.a], state.nodes[e.b]);
            if (negotiated > 0) {
              state.transfer_budget = fault_plan.truncation_prefix(negotiated);
              counters.fulfilments_deferred += static_cast<std::uint64_t>(
                  negotiated - state.transfer_budget);
            }
          }
          detail::process_meeting(state, state.nodes[e.a], state.nodes[e.b]);
          state.transfer_budget = -1;
        }
      };

  if (event_kernel) {
    // ---- event-driven kernel (next-event time advance) ----
    //
    // Nothing observable happens in a slot without a meeting, a metrics
    // sample tick, a demand switch, or a scheduled node crash: caches,
    // pending lists and replica counts only change at meetings and
    // crashes, and a request created in an empty slot just ages until
    // the next one. So the loop jumps straight between those slots and
    // draws each empty gap's demand as a single batch — Poisson(gap *
    // rate) arrivals with uniform slots in the gap (distribution-
    // identical to per-slot draws by Poisson splitting), alias-sampled
    // (item, node) pairs, own-cache hits resolved at the batched
    // creation slot in order. Fault-active runs ride the same loop: each
    // node's crash slots come from its own geometric-skip stream
    // (FaultPlan::next_node_crash) through a min-heap of scheduled
    // crashes, and per-meeting fault decisions are drawn only at slots
    // that have meetings — exactly the draws the slot-stepped loop
    // makes, minus the per-(slot, node) crash coins.
    constexpr Slot kNever = std::numeric_limits<Slot>::max();
    static_assert(trace::EventSource::kNoMoreEvents == kNever);
    const Slot sample_every = options.metrics.sample_every;
    const bool sampling_active = options.expected_welfare || probe ||
                                 !options.metrics.tracked_items.empty();
    const bool faults_on = fault_plan.active();
    std::vector<BatchedRequest> batch;

    // Observed gains are folded into the series one bin-batch at a time
    // (detail::record_gain); flushed after the loop, before rate_series.
    stats::BinnedSeries::Batcher observed_batch(observed);
    state.observed_batch = &observed_batch;

    // Scheduled crashes, ordered by (slot, node). Each node draws its
    // next crash from its private stream when the previous one fires, so
    // the heap holds at most one entry per node.
    struct ScheduledCrash {
      Slot slot;
      NodeId node;
      bool persist;
      Slot down;
    };
    auto crash_later = [](const ScheduledCrash& x, const ScheduledCrash& y) {
      return x.slot != y.slot ? x.slot > y.slot : x.node > y.node;
    };
    std::priority_queue<ScheduledCrash, std::vector<ScheduledCrash>,
                        decltype(crash_later)>
        crashes(crash_later);
    if (faults_on && options.faults.p_crash > 0.0) {
      fault_plan.prepare_node_streams(num_nodes);
      for (NodeId n = 0; n < num_nodes; ++n) {
        const auto c = fault_plan.next_node_crash(n, 0);
        if (c.slot < duration) {
          crashes.push({c.slot, n, c.persist_cache, c.downtime});
        }
      }
    }

    Slot cur = 0;
    while (cur < duration) {
      // Cooperative cancellation (the engine's deadline watchdog),
      // checked once per event step.
      if (options.cancel && options.cancel->cancelled()) {
        throw util::cancelled_error(*options.cancel,
                                    "simulate: cancelled at slot " +
                                        std::to_string(cur));
      }

      // Scheduled popularity changes due now; each switch rebuilds the
      // demand process and with it the alias tables.
      while (next_demand_change < options.demand_schedule.size() &&
             options.demand_schedule[next_demand_change].first <= cur) {
        demand =
            make_demand(options.demand_schedule[next_demand_change].second);
        ++next_demand_change;
      }
      const Slot next_switch =
          next_demand_change < options.demand_schedule.size()
              ? options.demand_schedule[next_demand_change].first
              : kNever;
      // Peek the feed: idempotent, and on a generating source it draws
      // ahead only as far as the next nonempty slot (the look-ahead
      // window) using the source's own rng, never the simulation rng.
      const Slot next_meeting = feed.next_slot();
      const Slot next_sample =
          sampling_active ? ((cur + sample_every - 1) / sample_every) *
                                sample_every
                          : kNever;
      const Slot next_crash = crashes.empty() ? kNever : crashes.top().slot;

      // The next slot where work happens *at* the slot itself, and the
      // last slot this demand batch may cover: a switch applies before
      // its own slot's demand, so the batch stops strictly before it.
      const Slot event_slot =
          std::min({next_meeting, next_sample, next_crash});
      Slot batch_end = std::min(event_slot, duration - 1);
      if (next_switch != kNever) {
        batch_end = std::min(batch_end, next_switch - 1);
      }

      // Batched demand over [cur, batch_end] (>= 1 slot by construction:
      // switches due now were applied above, so next_switch > cur). The
      // batch is admitted in two halves around the event slot's crashes
      // so the slot-stepped intra-slot order (crashes, then demand, then
      // meetings, then the sample tick) is preserved: requests created
      // before the crash slot must exist — the crash wipes them — while
      // the crash slot's own demand is suppressed at a just-downed node.
      demand.sample_gap(rng, cur, batch_end - cur + 1, batch);
      std::size_t bi = 0;
      auto admit_before = [&](Slot limit) {  // batch slots < limit
        for (; bi < batch.size() && batch[bi].slot < limit; ++bi) {
          const BatchedRequest& req = batch[bi];
          if (faults_on && down_until[req.node] > req.slot) {
            // A crashed node generates no demand while down.
            ++fault_plan.counters().requests_suppressed;
            continue;
          }
          admit_request(req.item, req.node, req.slot);
        }
      };

      if (event_slot <= batch_end) {
        admit_before(event_slot);
        while (!crashes.empty() && crashes.top().slot == event_slot) {
          const ScheduledCrash c = crashes.top();
          crashes.pop();
          auto& counters = fault_plan.counters();
          fault_plan.record_crash();
          const Node::CrashLosses losses = state.nodes[c.node].crash(c.persist);
          if (c.persist) ++counters.cold_restarts;
          counters.replicas_lost += losses.replicas;
          counters.mandates_lost += losses.mandates;
          counters.requests_lost += losses.requests;
          down_until[c.node] = event_slot + 1 + c.down;
          // The hazard resumes at the rejoin slot, matching the
          // slot-stepped loop's "no crash checks while down".
          const auto next =
              fault_plan.next_node_crash(c.node, down_until[c.node]);
          if (next.slot < duration) {
            crashes.push({next.slot, c.node, next.persist_cache,
                          next.downtime});
          }
        }
        admit_before(event_slot + 1);

        // Meetings of this slot, then the sample tick — the slot-stepped
        // intra-slot order.
        state.now = event_slot;
        std::span<const trace::ContactEvent> meetings;
        if (next_meeting == event_slot) meetings = feed.take_batch();
        if (!faults_on) {
          if (meeting_runner && !meetings.empty()) {
            meeting_runner->run(meetings, nullptr);
          } else {
            for (const trace::ContactEvent& e : meetings) {
              detail::process_meeting(state, state.nodes[e.a],
                                      state.nodes[e.b]);
            }
          }
        } else if (!meetings.empty()) {
          process_faulty_meetings(event_slot, meetings);
        }
        if (next_sample == event_slot) sample_metrics(event_slot);
        cur = event_slot + 1;
      } else {
        admit_before(batch_end + 1);
        cur = batch_end + 1;
      }
    }
    observed_batch.flush();
    state.observed_batch = nullptr;
  } else {
    // ---- slot-stepped kernel (the bit-locked Section-6.1 reference) ----
    std::vector<NewRequest> new_requests;
    for (Slot slot = 0; slot < duration; ++slot) {
      state.now = slot;

      // Cooperative cancellation (the engine's deadline watchdog).
      if (options.cancel && options.cancel->cancelled()) {
        throw util::cancelled_error(*options.cancel,
                                    "simulate: cancelled at slot " +
                                        std::to_string(slot));
      }

      // Node churn: crash checks before demand, so a node that dies in
      // this slot neither requests nor meets anyone until it rejoins.
      if (fault_plan.active()) {
        auto& counters = fault_plan.counters();
        for (NodeId n = 0; n < num_nodes; ++n) {
          if (down_until[n] > slot) continue;  // still down
          if (!fault_plan.crash_now()) continue;
          const bool persist = fault_plan.crash_persists_cache();
          const Node::CrashLosses losses = state.nodes[n].crash(persist);
          if (persist) ++counters.cold_restarts;
          counters.replicas_lost += losses.replicas;
          counters.mandates_lost += losses.mandates;
          counters.requests_lost += losses.requests;
          down_until[n] = slot + 1 + fault_plan.downtime();
        }
      }

      // Scheduled popularity changes.
      while (next_demand_change < options.demand_schedule.size() &&
             options.demand_schedule[next_demand_change].first <= slot) {
        demand =
            make_demand(options.demand_schedule[next_demand_change].second);
        ++next_demand_change;
      }

      // New demand.
      demand.sample_slot(rng, new_requests);
      for (const NewRequest& req : new_requests) {
        if (fault_plan.active() && down_until[req.node] > slot) {
          // A crashed node generates no demand while down.
          ++fault_plan.counters().requests_suppressed;
          continue;
        }
        admit_request(req.item, req.node, slot);
      }

      // Meetings. The feed hands out exactly the nonempty slot_events()
      // runs of the materialized trace, so an empty span here is the
      // same empty span trace.slot_events(slot) returned before.
      std::span<const trace::ContactEvent> meetings;
      if (feed.next_slot() == slot) meetings = feed.take_batch();
      if (!fault_plan.active()) {
        if (meeting_runner) {
          meeting_runner->run(meetings, nullptr);
        } else {
          for (const trace::ContactEvent& e : meetings) {
            detail::process_meeting(state, state.nodes[e.a],
                                    state.nodes[e.b]);
          }
        }
      } else {
        process_faulty_meetings(slot, meetings);
      }

      // Periodic sampling.
      if (slot % options.metrics.sample_every == 0) {
        sample_metrics(slot);
      }
    }
  }

  // Censor still-pending requests at the horizon.
  if (options.censor_pending_at_end) {
    for (const Node& node : state.nodes) {
      for (const PendingRequest& req : node.pending()) {
        const double age =
            static_cast<double>(duration - req.created) + 1.0;
        state.total_gain += utilities[req.item].value(age);
        ++result.censored_requests;
      }
    }
  } else {
    for (const Node& node : state.nodes) {
      result.censored_requests += node.pending().size();
    }
  }

  // Final bookkeeping.
  result.final_counts = counts;
  result.total_gain = state.total_gain;
  result.observed_series = observed.rate_series();
  result.fulfillments = state.fulfillments;
  result.mean_delay = state.fulfillments
                          ? state.delay_sum /
                                static_cast<double>(state.fulfillments)
                          : 0.0;
  result.mean_query_count =
      state.fulfillments
          ? state.query_sum / static_cast<double>(state.fulfillments)
          : 0.0;
  for (const Node& node : state.nodes) {
    result.outstanding_mandates += node.mandates().total();
  }
  if (qcr) {
    result.mandates_created = qcr->mandates_created() - mandates_before;
    result.replicas_written = qcr->replicas_written() - written_before;
  }
  result.faults = fault_plan.counters();
  return result;
}

}  // namespace

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  trace::MaterializedSource feed(trace);
  return simulate_impl(feed, catalog, utilities, policy, population, options,
                       rng);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility, catalog.num_items());
  return simulate(trace, catalog, utilities, policy, population, options,
                  rng);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(trace, catalog, utilities, policy,
                  Population::pure_p2p(trace.num_nodes()), options, rng);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(trace, catalog, utility, policy,
                  Population::pure_p2p(trace.num_nodes()), options, rng);
}

SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  return simulate_impl(source, catalog, utilities, policy, population,
                       options, rng);
}

SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility, catalog.num_items());
  return simulate_impl(source, catalog, utilities, policy, population,
                       options, rng);
}

SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(source, catalog, utilities, policy,
                  Population::pure_p2p(source.num_nodes()), options, rng);
}

SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(source, catalog, utility, policy,
                  Population::pure_p2p(source.num_nodes()), options, rng);
}

}  // namespace impatience::core
