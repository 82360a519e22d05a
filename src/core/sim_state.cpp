#include <stdexcept>

#include "impatience/core/sim_state.hpp"

namespace impatience::core {

SimulationState::SimulationState(NodeId num_nodes, ItemId num_items)
    : num_nodes_(num_nodes), num_items_(num_items) {
  if (num_nodes == 0) {
    throw std::invalid_argument("SimulationState: need at least one node");
  }
  if (num_items == 0) {
    throw std::invalid_argument("SimulationState: need at least one item");
  }
  query_clocks_.assign(num_nodes, 0);
  replica_counts_.assign(num_items, 0);
}

}  // namespace impatience::core
