#include <algorithm>
#include <stdexcept>

#include "impatience/core/cache.hpp"

namespace impatience::core {

Cache::Cache(int capacity) : capacity_(capacity) {
  if (capacity <= 0) {
    throw std::invalid_argument("Cache: capacity must be > 0");
  }
  items_.reserve(static_cast<std::size_t>(capacity));
}

bool Cache::contains(ItemId item) const noexcept {
  return std::find(items_.begin(), items_.end(), item) != items_.end();
}

void Cache::pin_sticky(ItemId item) {
  if (sticky_ && *sticky_ != item) {
    throw std::logic_error("Cache: a different sticky item is pinned");
  }
  if (!contains(item)) {
    if (full()) {
      throw std::logic_error("Cache: full, cannot pin sticky item");
    }
    items_.push_back(item);
    notify(item, +1);
  }
  sticky_ = item;
}

std::optional<ItemId> Cache::insert_random_replace(ItemId item,
                                                   util::Rng& rng) {
  if (contains(item)) {
    throw std::logic_error("Cache: item already present");
  }
  if (!full()) {
    items_.push_back(item);
    notify(item, +1);
    return std::nullopt;
  }
  // Choose a uniformly random victim among non-sticky slots: draw k over
  // their count and take the k-th non-sticky slot in slot order.
  std::size_t sticky_slot = items_.size();  // none
  if (sticky_) {
    sticky_slot = static_cast<std::size_t>(
        std::find(items_.begin(), items_.end(), *sticky_) - items_.begin());
  }
  const std::size_t victims =
      items_.size() - (sticky_slot < items_.size() ? 1 : 0);
  if (victims == 0) {
    throw std::logic_error("Cache: full of sticky content");
  }
  std::size_t slot = rng.uniform_index(victims);
  if (slot >= sticky_slot) ++slot;
  const ItemId evicted = items_[slot];
  items_[slot] = item;
  notify(evicted, -1);
  notify(item, +1);
  return evicted;
}

int Cache::crash_clear() {
  // The sticky replica models the paper's immortal origin copy (its
  // anti-absorption measure), so it survives the crash; everything else
  // is lost. Wiping it too would let items go extinct, which no policy
  // can recover from and the paper's model rules out.
  int lost = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (sticky_ && items_[i] == *sticky_) {
      items_[kept++] = items_[i];
    } else {
      notify(items_[i], -1);
      ++lost;
    }
  }
  items_.resize(kept);
  return lost;
}

void Cache::erase(ItemId item) {
  if (sticky_ && *sticky_ == item) {
    throw std::logic_error("Cache: cannot erase the sticky replica");
  }
  auto it = std::find(items_.begin(), items_.end(), item);
  if (it == items_.end()) {
    throw std::logic_error("Cache: erase of absent item");
  }
  items_.erase(it);
  notify(item, -1);
}

}  // namespace impatience::core
