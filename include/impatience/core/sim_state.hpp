// Structure-of-arrays home of the simulator's per-node hot state.
//
// One run's flat counters — the Section-5.1 query-counter clocks and the
// global per-item replica counts — live here as contiguous arrays; `Node`
// binds a raw view into its clock (node.hpp). The replica-count array is
// the span handed to ReplicationPolicy::on_initialized, the
// expected-welfare functor and the MarginalOracle welfare fold. Per-node
// item state (pending-request buckets, mandates) lives in the node itself
// and does not grow with the catalog (node.hpp, mandate.hpp).
//
// Nodes constructed without a SimulationState (tests, the service
// StateStore) keep their clock on a private heap cell, so the public
// Node API is unchanged.
#pragma once

#include <span>
#include <vector>

#include "impatience/core/catalog.hpp"
#include "impatience/trace/contact.hpp"

namespace impatience::core {

using trace::NodeId;

class SimulationState {
 public:
  SimulationState(NodeId num_nodes, ItemId num_items);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  ItemId num_items() const noexcept { return num_items_; }

  /// The node's server-meeting clock (see PendingRequest).
  long* query_clock(NodeId node) noexcept {
    return query_clocks_.data() + node;
  }

  /// Global replicas per item, maintained by the simulator's cache
  /// change listeners.
  std::span<const int> replica_counts() const noexcept {
    return replica_counts_;
  }
  std::vector<int>& replica_counts() noexcept { return replica_counts_; }

 private:
  NodeId num_nodes_;
  ItemId num_items_;
  std::vector<long> query_clocks_;   // [node]
  std::vector<int> replica_counts_;  // [item]
};

}  // namespace impatience::core
