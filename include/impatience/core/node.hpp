// A participant in the P2P caching system. Depending on the scenario a
// node is a server (carries a cache), a client (creates requests), or
// both (the pure P2P case, Section 3.1). Every node can carry replication
// mandates regardless of role.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "impatience/core/cache.hpp"
#include "impatience/core/mandate.hpp"
#include "impatience/trace/contact.hpp"

namespace impatience::core {

using trace::NodeId;
using trace::Slot;

class SimulationState;

/// An outstanding request with its query counter (Section 5.1): the
/// counter increments on every meeting with a server while the request
/// is unfulfilled, including the meeting that fulfils it, so its
/// expectation is |S|/x_i. Stored as a snapshot of the owning node's
/// running server-meeting count at creation: the live counter value is
/// `node.server_meetings() - queries_at_creation`, which makes the
/// per-meeting update O(1) for the whole pending list instead of a walk
/// (the values produced are identical, so the slot-stepped kernel stays
/// bit-locked).
struct PendingRequest {
  ItemId item;
  Slot created;
  long queries_at_creation = 0;
};

class Node {
 public:
  /// cache_capacity is ignored unless is_server. This standalone form
  /// owns its query-counter clock on a private heap cell (move-stable).
  Node(NodeId id, ItemId num_items, int cache_capacity, bool is_server,
       bool is_client);

  /// Structure-of-arrays form: the query-counter clock is a raw view
  /// into `state`'s flat array (sim_state.hpp), which must outlive the
  /// node. The simulator builds its population this way.
  Node(SimulationState& state, NodeId id, ItemId num_items,
       int cache_capacity, bool is_server, bool is_client);

  NodeId id() const noexcept { return id_; }
  bool is_server() const noexcept { return cache_.has_value(); }
  bool is_client() const noexcept { return is_client_; }

  /// Server cache; throws std::logic_error for non-servers.
  Cache& cache();
  const Cache& cache() const;

  MandateBag& mandates() noexcept { return mandates_; }
  const MandateBag& mandates() const noexcept { return mandates_; }

  std::vector<PendingRequest>& pending() noexcept { return pending_; }
  const std::vector<PendingRequest>& pending() const noexcept {
    return pending_;
  }

  /// Registers a new request. Throws std::logic_error for non-clients.
  void create_request(ItemId item, Slot now);

  /// Prefilter for the meeting protocol: false only if no pending request
  /// targets `item`, so a provider whose cache items all read false can
  /// fulfil nothing and the pending walk is skipped. O(1): a counter of
  /// pending requests per item bucket (item mod B), maintained by
  /// create_request/note_fulfilled. B is a power of two, 64 to start;
  /// once the pending list passes B/4 requests, B grows to 4× the list.
  /// It stops at the catalog size rounded up, where every item has its
  /// own bucket and the answer is exact. Memory is O(pending), never
  /// more than one counter per catalog item.
  bool may_have_pending(ItemId item) const noexcept {
    return pending_buckets_[item & bucket_mask_] != 0;
  }

  /// Records that one pending request for `item` left the pending list
  /// (fulfilled). Must be called once per removed request.
  void note_fulfilled(ItemId item) noexcept {
    --pending_buckets_[item & bucket_mask_];
  }

  /// Records a meeting with a server (the query-counter clock). Called by
  /// the meeting protocol before fulfilment, so the fulfilling meeting is
  /// included in every fulfilled request's counter.
  void note_server_meeting() noexcept { ++*server_meetings_; }
  /// Running count of this node's meetings with servers.
  long server_meetings() const noexcept { return *server_meetings_; }
  /// Warm-restart support (service::StateStore): sets the query-counter
  /// clock directly when rebuilding a node from a persisted snapshot.
  /// Must run before the pending list is restored, since create_request
  /// snapshots the clock.
  void restore_server_meetings(long meetings) noexcept {
    *server_meetings_ = meetings;
  }

  /// True if this node holds a replica of the item (servers only).
  bool holds(ItemId item) const noexcept {
    return cache_ && cache_->contains(item);
  }

  /// What a crash wiped out, for the fault accounting in
  /// SimulationResult::faults.
  struct CrashLosses {
    std::uint64_t replicas = 0;
    long mandates = 0;
    std::uint64_t requests = 0;
  };

  /// Fault-injection support: the node crashes, losing its in-flight
  /// mandates and pending requests. Unless `persist_cache`, a server's
  /// cache (sticky pin included) is wiped too, notifying the cache's
  /// change listener so global replica counts stay exact.
  CrashLosses crash(bool persist_cache);

 private:
  /// Sizes the buckets for the current pending list and recounts it.
  void rebucket_pending();

  NodeId id_;
  bool is_client_;
  std::optional<Cache> cache_;
  MandateBag mandates_;
  std::vector<PendingRequest> pending_;
  std::size_t max_buckets_;  // the catalog size rounded up to a power of 2
  std::size_t rebucket_at_ = 0;  // pending size that triggers a resize
  std::uint32_t bucket_mask_ = 0;  // bucket count - 1
  /// Outstanding requests per item bucket (may_have_pending).
  std::vector<std::uint32_t> pending_buckets_;
  /// Heap home of the query-counter clock when the node is NOT bound to
  /// a SimulationState (null otherwise). Heap rather than a member so
  /// the view below survives vector<Node> reallocation.
  std::unique_ptr<long> own_clock_;
  /// Query-counter clock (PendingRequest): a view into own_clock_ or
  /// into the SimulationState's flat array.
  long* server_meetings_ = nullptr;
};

}  // namespace impatience::core
