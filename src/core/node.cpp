#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "impatience/core/node.hpp"
#include "impatience/core/sim_state.hpp"

namespace impatience::core {

Node::Node(NodeId id, ItemId num_items, int cache_capacity, bool is_server,
           bool is_client)
    : id_(id),
      is_client_(is_client),
      mandates_(num_items),
      max_buckets_(std::bit_ceil(std::size_t{num_items})),
      own_clock_(std::make_unique<long>(0)),
      server_meetings_(own_clock_.get()) {
  rebucket_pending();
  if (is_server) {
    cache_.emplace(cache_capacity);
  }
  // A node that is neither server nor client still participates as a
  // mandate relay.
}

Node::Node(SimulationState& state, NodeId id, ItemId num_items,
           int cache_capacity, bool is_server, bool is_client)
    : id_(id),
      is_client_(is_client),
      mandates_(num_items),
      max_buckets_(std::bit_ceil(std::size_t{num_items})) {
  if (id >= state.num_nodes() || num_items != state.num_items()) {
    throw std::invalid_argument("Node: SimulationState dimension mismatch");
  }
  server_meetings_ = state.query_clock(id);
  rebucket_pending();
  if (is_server) {
    cache_.emplace(cache_capacity);
  }
}

Cache& Node::cache() {
  if (!cache_) {
    throw std::logic_error("Node::cache: node is not a server");
  }
  return *cache_;
}

const Cache& Node::cache() const {
  if (!cache_) {
    throw std::logic_error("Node::cache: node is not a server");
  }
  return *cache_;
}

Node::CrashLosses Node::crash(bool persist_cache) {
  CrashLosses losses;
  if (cache_ && !persist_cache) {
    losses.replicas = static_cast<std::uint64_t>(cache_->crash_clear());
  }
  losses.mandates = mandates_.drain();
  losses.requests = pending_.size();
  pending_.clear();
  std::fill(pending_buckets_.begin(), pending_buckets_.end(), 0u);
  return losses;
}

void Node::create_request(ItemId item, Slot now) {
  if (!is_client_) {
    throw std::logic_error("Node::create_request: node is not a client");
  }
  pending_.push_back({item, now, *server_meetings_});
  if (pending_.size() >= rebucket_at_) {
    rebucket_pending();  // counts the new request too
  } else {
    ++pending_buckets_[item & bucket_mask_];
  }
}

void Node::rebucket_pending() {
  constexpr std::size_t kMinBuckets = 64;
  const std::size_t buckets = std::min(
      max_buckets_, std::max(kMinBuckets, std::bit_ceil(4 * pending_.size())));
  pending_buckets_.assign(buckets, 0u);
  bucket_mask_ = static_cast<std::uint32_t>(buckets - 1);
  for (const PendingRequest& req : pending_) {
    ++pending_buckets_[req.item & bucket_mask_];
  }
  // Grow once the list passes a quarter of the buckets; never past one
  // bucket per item, where the counts are exact.
  rebucket_at_ = buckets < max_buckets_
                     ? buckets / 4 + 1
                     : std::numeric_limits<std::size_t>::max();
}

}  // namespace impatience::core
