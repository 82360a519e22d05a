#include "impatience/service/state_store.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "impatience/engine/artifacts.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/engine/thread_pool.hpp"
#include "impatience/stats/percentile.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/utility/factory.hpp"
#include "impatience/utility/reaction.hpp"

namespace impatience::service {

namespace {

bool config_equal(const StoreConfig& a, const StoreConfig& b) {
  return a.num_nodes == b.num_nodes && a.num_items == b.num_items &&
         a.cache_capacity == b.cache_capacity &&
         a.sticky_replicas == b.sticky_replicas &&
         a.utility_spec == b.utility_spec && a.mu == b.mu &&
         a.reaction_scale == b.reaction_scale &&
         a.mandate_routing == b.mandate_routing;
}

}  // namespace

void StoreConfig::validate() const {
  if (num_nodes == 0) {
    throw std::invalid_argument("StoreConfig: num_nodes must be > 0");
  }
  if (num_items == 0) {
    throw std::invalid_argument("StoreConfig: num_items must be > 0");
  }
  if (cache_capacity <= 0) {
    throw std::invalid_argument("StoreConfig: cache_capacity must be > 0");
  }
  if (!(mu > 0.0)) {
    throw std::invalid_argument("StoreConfig: mu must be > 0");
  }
  if (!(reaction_scale > 0.0)) {
    throw std::invalid_argument("StoreConfig: reaction_scale must be > 0");
  }
  if (utility_spec.empty() ||
      utility_spec.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument(
        "StoreConfig: utility_spec must be a non-empty token");
  }
}

StateStore::StateStore(const StoreConfig& config, std::uint64_t seed,
                       const ApplyOptions& options)
    : config_(config), seed_(seed), options_(options) {
  config_.validate();
  options_.validate();
  if (options_.parallel()) {
    // The scheduler and team exist only when the pipeline engages; the
    // sequential path never pays for them.
    scheduler_ = std::make_unique<ShardWaveScheduler>(config_.num_nodes,
                                                      options_.shards);
    team_ = std::make_unique<engine::ForkJoinTeam>(options_.threads - 1);
  }
  utility_ = utility::make_utility(config_.utility_spec);
  // Same stabilizers as core::run_qcr: clamp the counter at |S|, cap one
  // fulfilment's burst at rho, bound any node's backlog by the global
  // cache volume.
  const double servers = static_cast<double>(config_.num_nodes);
  const double burst_cap = static_cast<double>(config_.cache_capacity);
  auto reaction = std::make_shared<utility::ReactionFunction>(
      *utility_, config_.mu, servers, config_.reaction_scale);
  policy_ = std::make_unique<core::QcrPolicy>(
      "QCR-service",
      std::function<double(double)>([reaction, servers, burst_cap](double y) {
        return std::min((*reaction)(std::min(y, servers)), burst_cap);
      }),
      config_.mandate_routing ? core::QcrPolicy::MandateRouting::kOn
                              : core::QcrPolicy::MandateRouting::kOff,
      static_cast<long>(config_.cache_capacity) * config_.num_nodes);
  init_fresh();
}

StateStore::StateStore(const StoreConfig& config, std::uint64_t seed,
                       const StateImage& image, const ApplyOptions& options)
    : StateStore(config, seed, options) {
  if (!config_equal(config_, image.config)) {
    throw std::invalid_argument(
        "StateStore: snapshot config does not match this scenario");
  }
  if (image.seed != seed_) {
    throw std::invalid_argument(
        "StateStore: snapshot seed " + std::to_string(image.seed) +
        " does not match --seed " + std::to_string(seed_) +
        " (replay determinism would break)");
  }
  init_from_image(image);
}

StateStore::~StateStore() {
  // Detach listeners: the nodes die with us, but be explicit about the
  // context pointer's lifetime.
  for (core::Node& node : nodes_) {
    node.cache().set_change_listener(nullptr, nullptr);
  }
}

void StateStore::init_fresh() {
  nodes_.clear();
  nodes_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    // Pure P2P (paper Section 3.1): every node both serves and requests.
    nodes_.emplace_back(n, config_.num_items, config_.cache_capacity,
                        /*is_server=*/true, /*is_client=*/true);
  }
  // Sticky seeders first (slot 0 of seeder i is item i), then a seeded
  // distinct-uniform fill per node. Each node gets its own child stream,
  // so the initial placement is a pure function of (config, seed).
  if (config_.sticky_replicas) {
    const NodeId seeders = std::min<NodeId>(config_.num_nodes,
                                            static_cast<NodeId>(config_.num_items));
    for (NodeId n = 0; n < seeders; ++n) {
      nodes_[n].cache().pin_sticky(static_cast<ItemId>(n));
    }
  }
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    util::Rng rng(engine::child_seed(seed_, "service-init", n));
    core::Cache& cache = nodes_[n].cache();
    // Rejection fill is fine: the catalog is small and draws are cheap.
    while (!cache.full() && cache.size() < static_cast<int>(config_.num_items)) {
      const auto item = static_cast<ItemId>(rng.uniform_index(config_.num_items));
      if (!cache.contains(item)) cache.insert_random_replace(item, rng);
    }
  }

  replica_counts_.assign(config_.num_items, 0);
  for (const core::Node& node : nodes_) {
    for (ItemId item : node.cache().items()) ++replica_counts_[item];
  }
  version_ = 0;
  version_mirror_.store(0, std::memory_order_release);
  seq_ = 0;
  clock_ = 0;
  counters_ = StoreCounters{};
  faults_ = fault::FaultCounters{};
  mandates_created_base_ = 0;
  replicas_written_base_ = 0;
  recent_delays_.clear();
  dirty_.assign(config_.num_nodes, 0);
  dirty_list_.clear();
  attach_listeners();
}

void StateStore::init_from_image(const StateImage& image) {
  if (image.nodes.size() != config_.num_nodes) {
    throw util::IoError("StateStore: snapshot node count mismatch");
  }
  // Rebuild every node exactly. Cache slot order is state (random
  // replacement evicts by slot index), so items are re-inserted in the
  // stored order — appends consume no RNG while the cache is not full —
  // and the sticky pin is applied afterwards, which for an already
  // present item only sets the flag without reordering.
  nodes_.clear();
  nodes_.reserve(config_.num_nodes);
  util::Rng dummy(0);  // never consumed: inserts below never evict
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    const StateImage::NodeImage& ni = image.nodes[n];
    core::Node& node = nodes_.emplace_back(
        n, config_.num_items, config_.cache_capacity,
        /*is_server=*/true, /*is_client=*/true);
    node.restore_server_meetings(ni.server_meetings);
    if (static_cast<int>(ni.cache.size()) > config_.cache_capacity) {
      throw util::IoError("StateStore: snapshot cache exceeds capacity");
    }
    for (ItemId item : ni.cache) {
      if (item >= config_.num_items || node.cache().contains(item)) {
        throw util::IoError("StateStore: snapshot cache is not a valid set");
      }
      node.cache().insert_random_replace(item, dummy);
    }
    if (ni.sticky >= 0) {
      if (ni.sticky >= static_cast<std::int64_t>(config_.num_items) ||
          !node.cache().contains(static_cast<ItemId>(ni.sticky))) {
        throw util::IoError("StateStore: snapshot sticky item not cached");
      }
      node.cache().pin_sticky(static_cast<ItemId>(ni.sticky));
    }
    for (const auto& [item, count] : ni.mandates) {
      if (item >= config_.num_items || count <= 0) {
        throw util::IoError("StateStore: snapshot mandate entry invalid");
      }
      node.mandates().add(item, count);
    }
    for (const core::PendingRequest& req : ni.pending) {
      if (req.item >= config_.num_items) {
        throw util::IoError("StateStore: snapshot pending item out of range");
      }
      // create_request snapshots the (already restored) meeting clock;
      // overwrite with the persisted creation-time values.
      node.create_request(req.item, req.created);
      node.pending().back() = req;
    }
  }

  replica_counts_.assign(config_.num_items, 0);
  for (const core::Node& node : nodes_) {
    for (ItemId item : node.cache().items()) ++replica_counts_[item];
  }
  version_ = image.version;
  version_mirror_.store(version_, std::memory_order_release);
  seq_ = image.seq;
  clock_ = image.clock;
  counters_ = image.counters;
  faults_ = image.faults;
  // The policy object is freshly constructed (its counters read 0), so
  // fold the persisted totals in as base offsets: total = base + policy.
  mandates_created_base_ = image.counters.mandates_created;
  replicas_written_base_ = image.counters.replicas_written;
  recent_delays_ = image.recent_delays;
  if (recent_delays_.size() > kDelayWindow) {
    throw util::IoError("StateStore: snapshot delay window too large");
  }
  dirty_.assign(config_.num_nodes, 0);
  dirty_list_.clear();
  attach_listeners();
}

void StateStore::attach_listeners() {
  for (core::Node& node : nodes_) {
    node.cache().set_change_listener(&StateStore::cache_listener, this);
  }
}

void StateStore::cache_listener(void* context, ItemId item, int delta) {
  // Always invoked with mu_ held: every cache mutation happens inside
  // apply() (policy execution, crashes) after construction.
  auto* store = static_cast<StateStore*>(context);
  store->replica_counts_[item] += delta;
  ++store->version_;
  store->version_mirror_.store(store->version_, std::memory_order_release);
}

void StateStore::bump_locked(std::uint64_t n) {
  version_ += n;
  version_mirror_.store(version_, std::memory_order_release);
}

std::uint64_t StateStore::apply(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++seq_;
  // Every event draws from its own child stream, a pure function of
  // (seed, seq): replaying the stream tail after a warm restart consumes
  // identical randomness, making restore + replay bit-equal to an
  // uninterrupted run.
  util::Rng rng(engine::child_seed(seed_, "service-apply", seq_));
  apply_event_locked(event, rng);
  counters_.events_applied = seq_;
  sync_policy_counters_locked();
  bump_locked();
  return version_;
}

void StateStore::apply_event_locked(const Event& event, util::Rng& rng) {
  switch (event.kind) {
    case Event::Kind::clock:
      apply_clock(event.slot);
      break;
    case Event::Kind::contact:
      if (event.a >= config_.num_nodes || event.b >= config_.num_nodes ||
          event.a == event.b) {
        ++counters_.events_malformed;
      } else {
        apply_contact(event.a, event.b, rng);
      }
      break;
    case Event::Kind::request:
      if (event.a >= config_.num_nodes || event.item >= config_.num_items) {
        ++counters_.events_malformed;
      } else {
        apply_request(event.a, event.item, rng);
      }
      break;
    case Event::Kind::crash:
      if (event.a >= config_.num_nodes) {
        ++counters_.events_malformed;
      } else {
        apply_crash(event.a);
      }
      break;
    case Event::Kind::hello:
    case Event::Kind::quit:
      break;  // stream control; the ingest loop reacts, the state doesn't
  }
}

void StateStore::apply_line_locked(const IngestLine& line) {
  ++seq_;
  if (line.malformed) {
    ++counters_.events_malformed;
  } else {
    util::Rng rng(engine::child_seed(seed_, "service-apply", seq_));
    apply_event_locked(line.event, rng);
  }
  counters_.events_applied = seq_;
  sync_policy_counters_locked();
  bump_locked();
}

std::uint64_t StateStore::apply_batch(std::span<const IngestLine> lines) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.parallel() || lines.size() < 2) {
    for (const IngestLine& line : lines) apply_line_locked(line);
    return version_;
  }
  for (std::size_t begin = 0; begin < lines.size();
       begin += options_.window) {
    apply_window_locked(lines.subspan(
        begin, std::min(options_.window, lines.size() - begin)));
  }
  return version_;
}

void StateStore::apply_window_locked(std::span<const IngestLine> lines) {
  // Schedule the window into shard-disjoint plan waves; commits walk
  // the window in original order, advancing exactly as far as the
  // planned waves cover (trace::WavePartitioner's run protocol — see
  // apply_plan.hpp for the correctness argument).
  scheduler_->schedule(lines, config_.num_nodes, order_, wave_ends_,
                       commit_ends_);
  plans_.resize(std::max(plans_.size(), lines.size()));
  const unsigned width = team_->num_workers() + 1;
  std::size_t wave_begin = 0;
  std::size_t committed = 0;
  for (std::size_t k = 0; k < wave_ends_.size(); ++k) {
    const std::size_t wave_end = wave_ends_[k];
    const std::size_t count = wave_end - wave_begin;
    if (count > 1) {
      // Strided fan-out: worker t plans order_[wave_begin + t, +width,
      // ...]. Plans only read node state; the barrier inside run()
      // orders them against the commits below.
      team_->run([&, wave_begin, wave_end](unsigned tid) {
        for (std::size_t j = wave_begin + tid; j < wave_end; j += width) {
          const std::uint32_t i = order_[j];
          plan_line(lines[i], plans_[i]);
        }
      });
    } else if (count == 1) {
      const std::uint32_t i = order_[wave_begin];
      plan_line(lines[i], plans_[i]);
    }
    for (; committed < commit_ends_[k]; ++committed) {
      commit_line_locked(lines[committed], plans_[committed]);
    }
    wave_begin = wave_end;
  }
}

void StateStore::plan_line(const IngestLine& line, ContactPlan& plan) const {
  plan.planned = false;
  if (line.malformed) return;
  const Event& e = line.event;
  if (e.kind != Event::Kind::contact || e.a >= config_.num_nodes ||
      e.b >= config_.num_nodes || e.a == e.b) {
    // Only contacts carry plannable work (the O(rho * pending) match
    // scan); requests and crashes are O(capacity) at commit.
    return;
  }
  plan.planned = true;
  plan_direction(nodes_[e.a], nodes_[e.b], plan.ab);
  plan_direction(nodes_[e.b], nodes_[e.a], plan.ba);
}

void StateStore::plan_direction(const core::Node& requester,
                                const core::Node& provider,
                                std::vector<std::uint32_t>& matches) const {
  // Read-only twin of fulfil_from's match scan: same O(rho) prefilter,
  // then the pending indices the provider can serve. Valid at commit
  // time because no line between plan and commit touches these shards
  // (direction 1's commit mutates only the requester's mandates and
  // pending — never the provider cache or the other direction's list).
  matches.clear();
  if (requester.pending().empty()) return;
  bool any_match = false;
  for (ItemId item : provider.cache().items()) {
    if (requester.may_have_pending(item)) {
      any_match = true;
      break;
    }
  }
  if (!any_match) return;
  const auto& pending = requester.pending();
  for (std::size_t k = 0; k < pending.size(); ++k) {
    if (provider.holds(pending[k].item)) {
      matches.push_back(static_cast<std::uint32_t>(k));
    }
  }
}

void StateStore::commit_line_locked(const IngestLine& line,
                                    const ContactPlan& plan) {
  ++seq_;
  if (line.malformed) {
    ++counters_.events_malformed;
  } else if (plan.planned) {
    util::Rng rng(engine::child_seed(seed_, "service-apply", seq_));
    ++counters_.contacts;
    core::Node& na = nodes_[line.event.a];
    core::Node& nb = nodes_[line.event.b];
    mark_dirty_locked(line.event.a);
    mark_dirty_locked(line.event.b);
    fulfil_planned(na, nb, plan.ab, rng);
    fulfil_planned(nb, na, plan.ba, rng);
    policy_->on_meeting_complete(na, nb, rng);
  } else {
    util::Rng rng(engine::child_seed(seed_, "service-apply", seq_));
    apply_event_locked(line.event, rng);
  }
  counters_.events_applied = seq_;
  sync_policy_counters_locked();
  bump_locked();
}

void StateStore::apply_clock(Slot slot) {
  // Monotonic: a stale or repeated T frame never rewinds time.
  clock_ = std::max(clock_, slot);
}

void StateStore::apply_contact(NodeId a, NodeId b, util::Rng& rng) {
  ++counters_.contacts;
  core::Node& na = nodes_[a];
  core::Node& nb = nodes_[b];
  // Both sides mutate unconditionally (note_server_meeting ticks the
  // query counter even on a dry meeting).
  mark_dirty_locked(a);
  mark_dirty_locked(b);
  fulfil_from(na, nb, rng);
  fulfil_from(nb, na, rng);
  policy_->on_meeting_complete(na, nb, rng);
}

void StateStore::apply_request(NodeId node_id, ItemId item, util::Rng& rng) {
  (void)rng;
  ++counters_.requests_created;
  core::Node& node = nodes_[node_id];
  if (node.holds(item)) {
    // Own-cache hit: fulfilled at zero delay, no query counter, no
    // reaction (QCR only reacts to fulfilments that cost meetings).
    const double gain = utility_->bounded_at_zero()
                            ? utility_->value_at_zero()
                            : utility_->value(1.0);
    ++counters_.immediate_fulfillments;
    counters_.total_gain += gain;
    record_delay_locked(0.0);
    return;
  }
  node.create_request(item, clock_);
  mark_dirty_locked(node_id);
  ++counters_.requests_pending;
}

void StateStore::apply_crash(NodeId node_id) {
  mark_dirty_locked(node_id);
  const core::Node::CrashLosses losses = nodes_[node_id].crash(false);
  ++faults_.crashes;
  faults_.replicas_lost += losses.replicas;
  faults_.mandates_lost += losses.mandates;
  faults_.requests_lost += losses.requests;
  counters_.requests_pending -= losses.requests;
}

void StateStore::fulfil_from(core::Node& requester, core::Node& provider,
                             util::Rng& rng) {
  // Service twin of the simulator's meeting protocol (src/core/meeting.cpp),
  // kept step-identical so the daemon's online QCR matches the offline
  // kernel: query tick first (clock semantics — the fulfilling meeting
  // counts), O(rho) prefilter, then one compaction pass.
  requester.note_server_meeting();
  if (requester.pending().empty()) return;
  auto& pending = requester.pending();

  bool any_match = false;
  for (ItemId item : provider.cache().items()) {
    if (requester.may_have_pending(item)) {
      any_match = true;
      break;
    }
  }
  if (!any_match) return;

  std::size_t kept = 0;
  for (std::size_t k = 0; k < pending.size(); ++k) {
    core::PendingRequest& req = pending[k];
    if (provider.holds(req.item)) {
      fulfil_one(requester, provider, req, rng);
    } else {
      pending[kept++] = req;
    }
  }
  pending.resize(kept);
}

void StateStore::fulfil_planned(core::Node& requester, core::Node& provider,
                                const std::vector<std::uint32_t>& matches,
                                util::Rng& rng) {
  // Commit half of the planned direction: the plan already decided
  // *which* pending indices the provider serves (bit-equal to
  // fulfil_from's holds() scan, since no committed line since the plan
  // touched either shard); delay/gain/queries are evaluated here against
  // the live clock and meeting counters, like the sequential path.
  requester.note_server_meeting();
  if (matches.empty()) return;
  auto& pending = requester.pending();
  std::size_t m = 0;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < pending.size(); ++k) {
    if (m < matches.size() && matches[m] == k) {
      ++m;
      fulfil_one(requester, provider, pending[k], rng);
    } else {
      pending[kept++] = pending[k];
    }
  }
  pending.resize(kept);
}

void StateStore::fulfil_one(core::Node& requester, core::Node& provider,
                            core::PendingRequest& req, util::Rng& rng) {
  const double delay = static_cast<double>(clock_ - req.created) + 1.0;
  const double gain = utility_->value(delay);
  const long queries = requester.server_meetings() - req.queries_at_creation;
  ++counters_.fulfillments;
  --counters_.requests_pending;
  counters_.total_gain += gain;
  counters_.delay_sum += delay;
  record_delay_locked(delay);
  requester.note_fulfilled(req.item);
  policy_->on_fulfillment(requester, provider, req.item, queries, rng);
}

void StateStore::sync_policy_counters_locked() {
  counters_.mandates_created =
      mandates_created_base_ + policy_->mandates_created();
  counters_.replicas_written =
      replicas_written_base_ + policy_->replicas_written();
  // mandates_outstanding is NOT summed here: the O(nodes) sweep per
  // event would dominate the sharded pipeline. Read paths call
  // refresh_outstanding_locked() instead — externally observable
  // counters are unchanged.
}

void StateStore::refresh_outstanding_locked() const {
  long outstanding = 0;
  for (const core::Node& node : nodes_) outstanding += node.mandates().total();
  counters_.mandates_outstanding = outstanding;
}

void StateStore::mark_dirty_locked(NodeId node) {
  if (!dirty_[node]) {
    dirty_[node] = 1;
    dirty_list_.push_back(node);
  }
}

void StateStore::record_delay_locked(double delay) {
  if (recent_delays_.size() >= kDelayWindow) {
    // Chronological window: drop the oldest half in one move instead of
    // shifting per insert (amortized O(1), order preserved).
    recent_delays_.erase(recent_delays_.begin(),
                         recent_delays_.begin() + kDelayWindow / 2);
  }
  recent_delays_.push_back(delay);
}

std::uint64_t StateStore::apply_malformed() {
  std::lock_guard<std::mutex> lock(mu_);
  // Malformed countable lines advance seq like any other: the seq cursor
  // must be an exact position into the stream's countable lines, or a
  // reconnecting feeder could not resume from it (docs/service.md).
  ++seq_;
  ++counters_.events_malformed;
  counters_.events_applied = seq_;
  bump_locked();
  return version_;
}

StateImage::NodeImage StateStore::node_image_locked(NodeId n) const {
  const core::Node& node = nodes_[n];
  StateImage::NodeImage ni;
  ni.server_meetings = node.server_meetings();
  const auto sticky = node.cache().sticky();
  ni.sticky = sticky ? static_cast<std::int64_t>(*sticky) : -1;
  ni.cache = node.cache().items();
  ni.mandates = node.mandates().entries();
  ni.pending = node.pending();
  return ni;
}

StateImage StateStore::image() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  StateImage image;
  image.config = config_;
  image.seed = seed_;
  image.version = version_;
  image.seq = seq_;
  image.clock = clock_;
  image.counters = counters_;
  image.faults = faults_;
  image.nodes.reserve(nodes_.size());
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    image.nodes.push_back(node_image_locked(n));
  }
  image.recent_delays = recent_delays_;
  return image;
}

StateImage StateStore::checkpoint_image() {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  StateImage image;
  image.config = config_;
  image.seed = seed_;
  image.version = version_;
  image.seq = seq_;
  image.clock = clock_;
  image.counters = counters_;
  image.faults = faults_;
  image.nodes.reserve(nodes_.size());
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    image.nodes.push_back(node_image_locked(n));
  }
  image.recent_delays = recent_delays_;
  // Image + dirty reset under one lock: the next delta is relative to
  // exactly this image, with no apply slipping in between.
  for (NodeId n : dirty_list_) dirty_[n] = 0;
  dirty_list_.clear();
  return image;
}

StateDelta StateStore::take_delta() {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  StateDelta delta;
  delta.config = config_;
  delta.seed = seed_;
  delta.version = version_;
  delta.seq = seq_;
  delta.clock = clock_;
  delta.counters = counters_;
  delta.faults = faults_;
  std::sort(dirty_list_.begin(), dirty_list_.end());
  delta.nodes.reserve(dirty_list_.size());
  for (NodeId n : dirty_list_) {
    delta.nodes.emplace_back(n, node_image_locked(n));
    dirty_[n] = 0;
  }
  dirty_list_.clear();
  delta.recent_delays = recent_delays_;
  return delta;
}

std::size_t StateStore::dirty_node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_list_.size();
}

void StateStore::save_snapshot(const std::string& path) const {
  // Copy-on-read, then serialize outside the lock: the ingest path only
  // stalls for the in-memory copy, never for disk I/O.
  const StateImage snapshot = image();
  save_image(path, snapshot);
}

StoreCounters StateStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  return counters_;
}

fault::FaultCounters StateStore::faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

Slot StateStore::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

std::uint64_t StateStore::seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::vector<long> StateStore::replica_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replica_counts_;
}

double StateStore::delay_percentile(double p) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window = recent_delays_;
  }
  if (window.empty()) return 0.0;
  return stats::percentile(window, p);
}

bool StateStore::mandate_conservation_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  return counters_.mandates_created ==
         counters_.replicas_written + counters_.mandates_outstanding +
             faults_.mandates_lost;
}

std::unique_ptr<StateStore> StateStore::restore(const StoreConfig& config,
                                                std::uint64_t seed,
                                                const std::string& path) {
  return std::make_unique<StateStore>(config, seed, load_image(path));
}

// ---------------------------------------------------------------------------
// Snapshot serialization: versioned header, ASCII lines, FNV-1a checksum
// line plus `end` trailer so truncation and torn writes are detectable.

namespace {

constexpr std::string_view kMagic = "impatience.replicationd_snapshot/1";

class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next line; throws on EOF (snapshots end with an explicit trailer).
  std::string next() {
    std::string line;
    if (!std::getline(in_, line)) {
      throw util::IoError("snapshot: truncated (unexpected end of file)");
    }
    return line;
  }

 private:
  std::istream& in_;
};

/// Tokenizing reader for one expected record line: "key v1 v2 ...".
class Record {
 public:
  Record(std::string line, std::string_view key) : stream_(std::move(line)) {
    std::string got;
    if (!(stream_ >> got) || got != key) {
      throw util::IoError("snapshot: expected '" + std::string(key) +
                          "' record, got '" + got + "'");
    }
  }

  template <typename T>
  T get(const char* what) {
    T value{};
    if (!(stream_ >> value)) {
      throw util::IoError(std::string("snapshot: bad or missing field: ") +
                          what);
    }
    return value;
  }

  /// Remainder of the line, stripped of one leading space.
  std::string rest() {
    std::string tail;
    std::getline(stream_, tail);
    if (!tail.empty() && tail.front() == ' ') tail.erase(0, 1);
    return tail;
  }

 private:
  std::istringstream stream_;
};

}  // namespace

namespace {

constexpr std::string_view kDeltaMagic = "impatience.replicationd_delta/1";

/// Builds one snapshot or delta file in a single buffer allocated up
/// front from an upper bound on its size, so the text is held once, is
/// never reallocated, and each field is formatted straight into place.
/// Integers go through std::to_chars; doubles through to_chars(general,
/// 17), which is byte-identical to printf's %.17g and round-trips every
/// finite double through text exactly.
class RecordWriter {
 public:
  explicit RecordWriter(std::size_t bound)
      : text_(std::make_unique_for_overwrite<char[]>(bound)),
        pos_(text_.get()),
        end_(text_.get() + bound) {}

  RecordWriter& operator<<(std::string_view s) {
    if (s.size() > static_cast<std::size_t>(end_ - pos_)) overrun();
    pos_ = std::copy(s.begin(), s.end(), pos_);
    return *this;
  }
  RecordWriter& operator<<(char c) {
    if (pos_ == end_) overrun();
    *pos_++ = c;
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  RecordWriter& operator<<(T v) {
    return advance(std::to_chars(pos_, end_, v));
  }
  RecordWriter& operator<<(double v) {
    return advance(
        std::to_chars(pos_, end_, v, std::chars_format::general, 17));
  }

  /// Appends "checksum <hex>\nend\n", writes the whole file to `out`
  /// and returns the checksum of the body before the trailer.
  std::uint64_t seal(std::ostream& out) {
    const std::uint64_t sum =
        engine::fnv1a64(std::string_view(text_.get(), pos_ - text_.get()));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, sum);
    *this << "checksum " << std::string_view(hex, 16) << "\nend\n";
    out.write(text_.get(), pos_ - text_.get());
    return sum;
  }

  /// Widest field of each kind: a sign and 20 digits; "-d.<16>e-308".
  static constexpr std::size_t kMaxInt = 21;
  static constexpr std::size_t kMaxDouble = 24;

 private:
  RecordWriter& advance(std::to_chars_result r) {
    if (r.ec != std::errc()) overrun();
    pos_ = r.ptr;
    return *this;
  }
  /// The size bound below is wrong: a program bug, never a short write.
  [[noreturn]] static void overrun() {
    throw std::logic_error("snapshot writer: size bound exceeded");
  }

  std::unique_ptr<char[]> text_;
  char* pos_;
  char* end_;
};

/// Upper bounds on the bytes each record takes, fields plus separators.
constexpr std::size_t kIntField = RecordWriter::kMaxInt + 1;
constexpr std::size_t kDoubleField = RecordWriter::kMaxDouble + 1;
constexpr std::size_t kLineSlack = 16;  // record keyword and newline

std::size_t scalar_records_bound(const StoreConfig& c) {
  // The magic, then the parent, config, seed, state, counters, faults and
  // nodes lines: 1 + 5 + 1 + 3 + 10 + 4 + 1 integers and 2 + 2 doubles.
  return 64 + 7 * kLineSlack + c.utility_spec.size() + 25 * kIntField +
         4 * kDoubleField;
}

std::size_t node_records_bound(const StateImage::NodeImage& ni) {
  return 4 * kLineSlack + 6 * kIntField + ni.cache.size() * kIntField +
         ni.mandates.size() * 2 * kIntField +
         ni.pending.size() * 3 * kIntField;
}

std::size_t delays_record_bound(const std::vector<double>& d) {
  return kLineSlack + kIntField + d.size() * kDoubleField;
}

constexpr std::size_t kTrailerBound = 32;

void write_config_record(RecordWriter& body, const StoreConfig& c) {
  body << "config " << c.num_nodes << ' ' << c.num_items << ' '
       << c.cache_capacity << ' ' << (c.sticky_replicas ? 1 : 0) << ' '
       << c.mu << ' ' << c.reaction_scale << ' '
       << (c.mandate_routing ? 1 : 0) << ' ' << c.utility_spec << '\n';
}

void write_counters_record(RecordWriter& body, const StoreCounters& k) {
  body << "counters " << k.events_applied << ' ' << k.events_malformed << ' '
       << k.contacts << ' ' << k.requests_created << ' '
       << k.immediate_fulfillments << ' ' << k.fulfillments << ' '
       << k.requests_pending << ' ' << k.mandates_created << ' '
       << k.replicas_written << ' ' << k.mandates_outstanding << ' '
       << k.total_gain << ' ' << k.delay_sum << '\n';
}

void write_faults_record(RecordWriter& body, const fault::FaultCounters& f) {
  body << "faults " << f.crashes << ' ' << f.replicas_lost << ' '
       << f.mandates_lost << ' ' << f.requests_lost << '\n';
}

void write_node_records(RecordWriter& body, std::uint64_t id,
                        const StateImage::NodeImage& ni) {
  body << "node " << id << ' ' << ni.server_meetings << ' ' << ni.sticky
       << '\n';
  body << "cache " << ni.cache.size();
  for (ItemId item : ni.cache) body << ' ' << item;
  body << '\n';
  body << "mandates " << ni.mandates.size();
  for (const auto& [item, count] : ni.mandates) {
    body << ' ' << item << ' ' << count;
  }
  body << '\n';
  body << "pending " << ni.pending.size();
  for (const core::PendingRequest& req : ni.pending) {
    body << ' ' << req.item << ' ' << req.created << ' '
         << req.queries_at_creation;
  }
  body << '\n';
}

void write_delays_record(RecordWriter& body, const std::vector<double>& d) {
  body << "delays " << d.size();
  for (double v : d) body << ' ' << v;
  body << '\n';
}

/// Pass 1 of every reader: collect the body, verify checksum + trailer.
/// Any torn or bit-flipped file is rejected before a field is parsed.
std::string read_checked_body(std::istream& in, std::uint64_t* checksum) {
  std::string body;
  std::string line;
  bool have_checksum = false;
  std::uint64_t stored_checksum = 0;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      stored_checksum = std::stoull(line.substr(9), nullptr, 16);
      have_checksum = true;
      break;
    }
    body += line;
    body += '\n';
  }
  if (!have_checksum) {
    throw util::IoError("snapshot: missing checksum line (torn file?)");
  }
  if (engine::fnv1a64(body) != stored_checksum) {
    throw util::IoError("snapshot: checksum mismatch (corrupt file)");
  }
  if (!std::getline(in, line) || line != "end") {
    throw util::IoError("snapshot: missing end trailer");
  }
  if (checksum) *checksum = stored_checksum;
  return body;
}

void read_config_record(LineReader& lines, StoreConfig& config) {
  Record r(lines.next(), "config");
  config.num_nodes = r.get<NodeId>("num_nodes");
  config.num_items = r.get<ItemId>("num_items");
  config.cache_capacity = r.get<int>("cache_capacity");
  config.sticky_replicas = r.get<int>("sticky_replicas") != 0;
  config.mu = r.get<double>("mu");
  config.reaction_scale = r.get<double>("reaction_scale");
  config.mandate_routing = r.get<int>("mandate_routing") != 0;
  config.utility_spec = r.rest();
  config.validate();
}

void read_counters_record(LineReader& lines, StoreCounters& k) {
  Record r(lines.next(), "counters");
  k.events_applied = r.get<std::uint64_t>("events_applied");
  k.events_malformed = r.get<std::uint64_t>("events_malformed");
  k.contacts = r.get<std::uint64_t>("contacts");
  k.requests_created = r.get<std::uint64_t>("requests_created");
  k.immediate_fulfillments = r.get<std::uint64_t>("immediate_fulfillments");
  k.fulfillments = r.get<std::uint64_t>("fulfillments");
  k.requests_pending = r.get<std::uint64_t>("requests_pending");
  k.mandates_created = r.get<long>("mandates_created");
  k.replicas_written = r.get<long>("replicas_written");
  k.mandates_outstanding = r.get<long>("mandates_outstanding");
  k.total_gain = r.get<double>("total_gain");
  k.delay_sum = r.get<double>("delay_sum");
}

void read_faults_record(LineReader& lines, fault::FaultCounters& f) {
  Record r(lines.next(), "faults");
  f.crashes = r.get<std::uint64_t>("crashes");
  f.replicas_lost = r.get<std::uint64_t>("replicas_lost");
  f.mandates_lost = r.get<long>("mandates_lost");
  f.requests_lost = r.get<std::uint64_t>("requests_lost");
}

/// Reads one node/cache/mandates/pending block; returns the node id.
std::uint64_t read_node_records(LineReader& lines,
                                StateImage::NodeImage& ni) {
  std::uint64_t id = 0;
  {
    Record r(lines.next(), "node");
    id = r.get<std::uint64_t>("node id");
    ni.server_meetings = r.get<long>("server_meetings");
    ni.sticky = r.get<std::int64_t>("sticky");
  }
  {
    Record r(lines.next(), "cache");
    const auto count = r.get<std::size_t>("cache size");
    ni.cache.resize(count);
    for (auto& item : ni.cache) item = r.get<ItemId>("cache item");
  }
  {
    Record r(lines.next(), "mandates");
    const auto count = r.get<std::size_t>("mandate entries");
    ni.mandates.resize(count);
    for (auto& [item, cnt] : ni.mandates) {
      item = r.get<ItemId>("mandate item");
      cnt = r.get<long>("mandate count");
    }
  }
  {
    Record r(lines.next(), "pending");
    const auto count = r.get<std::size_t>("pending entries");
    ni.pending.resize(count);
    for (auto& req : ni.pending) {
      req.item = r.get<ItemId>("pending item");
      req.created = r.get<Slot>("pending created");
      req.queries_at_creation = r.get<long>("pending queries");
    }
  }
  return id;
}

void read_delays_record(LineReader& lines, std::vector<double>& delays) {
  Record r(lines.next(), "delays");
  const auto count = r.get<std::size_t>("delay count");
  delays.resize(count);
  for (auto& d : delays) d = r.get<double>("delay");
}

}  // namespace

std::uint64_t write_image(std::ostream& out, const StateImage& image) {
  std::size_t bound = scalar_records_bound(image.config) +
                      delays_record_bound(image.recent_delays) +
                      kTrailerBound;
  for (const auto& ni : image.nodes) bound += node_records_bound(ni);
  RecordWriter body(bound);
  body << kMagic << '\n';
  write_config_record(body, image.config);
  body << "seed " << image.seed << '\n';
  body << "state " << image.version << ' ' << image.seq << ' ' << image.clock
       << '\n';
  write_counters_record(body, image.counters);
  write_faults_record(body, image.faults);
  body << "nodes " << image.nodes.size() << '\n';
  for (std::size_t n = 0; n < image.nodes.size(); ++n) {
    write_node_records(body, n, image.nodes[n]);
  }
  write_delays_record(body, image.recent_delays);
  return body.seal(out);
}

StateImage read_image(std::istream& in, std::uint64_t* checksum) {
  std::istringstream text(read_checked_body(in, checksum));
  LineReader lines(text);
  if (lines.next() != kMagic) {
    throw util::IoError("snapshot: bad magic (not a replicationd snapshot)");
  }

  StateImage image;
  read_config_record(lines, image.config);
  {
    Record r(lines.next(), "seed");
    image.seed = r.get<std::uint64_t>("seed");
  }
  {
    Record r(lines.next(), "state");
    image.version = r.get<std::uint64_t>("version");
    image.seq = r.get<std::uint64_t>("seq");
    image.clock = r.get<Slot>("clock");
  }
  read_counters_record(lines, image.counters);
  read_faults_record(lines, image.faults);
  std::size_t num_nodes = 0;
  {
    Record r(lines.next(), "nodes");
    num_nodes = r.get<std::size_t>("nodes");
  }
  image.nodes.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (read_node_records(lines, image.nodes[n]) != n) {
      throw util::IoError("snapshot: node records out of order");
    }
  }
  read_delays_record(lines, image.recent_delays);
  return image;
}

std::uint64_t save_image(const std::string& path, const StateImage& image) {
  std::uint64_t checksum = 0;
  engine::atomic_write_file(path, [&](std::ostream& out) {
    checksum = write_image(out, image);
  });
  return checksum;
}

StateImage load_image(const std::string& path, std::uint64_t* checksum) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("snapshot: cannot open " + path);
  }
  return read_image(in, checksum);
}

std::uint64_t write_delta(std::ostream& out, const StateDelta& delta) {
  std::size_t bound = scalar_records_bound(delta.config) +
                      delays_record_bound(delta.recent_delays) +
                      kTrailerBound;
  for (const auto& [id, ni] : delta.nodes) bound += node_records_bound(ni);
  RecordWriter body(bound);
  body << kDeltaMagic << '\n';
  body << "parent " << delta.parent_checksum << '\n';
  write_config_record(body, delta.config);
  body << "seed " << delta.seed << '\n';
  body << "state " << delta.version << ' ' << delta.seq << ' ' << delta.clock
       << '\n';
  write_counters_record(body, delta.counters);
  write_faults_record(body, delta.faults);
  body << "nodes " << delta.nodes.size() << '\n';
  for (const auto& [id, ni] : delta.nodes) {
    write_node_records(body, id, ni);
  }
  write_delays_record(body, delta.recent_delays);
  return body.seal(out);
}

StateDelta read_delta(std::istream& in, std::uint64_t* checksum) {
  std::istringstream text(read_checked_body(in, checksum));
  LineReader lines(text);
  if (lines.next() != kDeltaMagic) {
    throw util::IoError("snapshot: bad magic (not a replicationd delta)");
  }

  StateDelta delta;
  {
    Record r(lines.next(), "parent");
    delta.parent_checksum = r.get<std::uint64_t>("parent checksum");
  }
  read_config_record(lines, delta.config);
  {
    Record r(lines.next(), "seed");
    delta.seed = r.get<std::uint64_t>("seed");
  }
  {
    Record r(lines.next(), "state");
    delta.version = r.get<std::uint64_t>("version");
    delta.seq = r.get<std::uint64_t>("seq");
    delta.clock = r.get<Slot>("clock");
  }
  read_counters_record(lines, delta.counters);
  read_faults_record(lines, delta.faults);
  std::size_t num_nodes = 0;
  {
    Record r(lines.next(), "nodes");
    num_nodes = r.get<std::size_t>("nodes");
  }
  delta.nodes.resize(num_nodes);
  std::uint64_t prev_id = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& [id, ni] = delta.nodes[n];
    const std::uint64_t got = read_node_records(lines, ni);
    if (n > 0 && got <= prev_id) {
      throw util::IoError("snapshot: delta node records not ascending");
    }
    id = static_cast<NodeId>(got);
    prev_id = got;
  }
  read_delays_record(lines, delta.recent_delays);
  return delta;
}

std::uint64_t save_delta(const std::string& path, const StateDelta& delta) {
  std::uint64_t checksum = 0;
  engine::atomic_write_file(path, [&](std::ostream& out) {
    checksum = write_delta(out, delta);
  });
  return checksum;
}

StateDelta load_delta(const std::string& path, std::uint64_t* checksum) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("snapshot: cannot open " + path);
  }
  return read_delta(in, checksum);
}

void apply_delta(StateImage& image, const StateDelta& delta) {
  if (!config_equal(image.config, delta.config)) {
    throw util::IoError("snapshot: delta config does not match base");
  }
  if (image.seed != delta.seed) {
    throw util::IoError("snapshot: delta seed does not match base");
  }
  if (delta.seq < image.seq) {
    throw util::IoError("snapshot: delta seq regresses past base");
  }
  for (const auto& [id, ni] : delta.nodes) {
    if (id >= image.nodes.size()) {
      throw util::IoError("snapshot: delta node id out of range");
    }
  }
  image.version = delta.version;
  image.seq = delta.seq;
  image.clock = delta.clock;
  image.counters = delta.counters;
  image.faults = delta.faults;
  for (const auto& [id, ni] : delta.nodes) {
    image.nodes[id] = ni;
  }
  image.recent_delays = delta.recent_delays;
}

}  // namespace impatience::service
