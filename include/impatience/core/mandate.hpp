// Replication mandates (Section 5.3): lightweight "make one more replica
// of item i" instructions that wait at nodes for an execution opportunity
// and are routed towards replica holders to avoid the divergence
// pathology described in the paper.
#pragma once

#include <utility>
#include <vector>

#include "impatience/core/catalog.hpp"

namespace impatience::core {

/// A multiset of mandates per item, stored sparsely: only items with at
/// least one mandate, as (item, count) pairs sorted by item. A node holds
/// mandates for a handful of items, so lookups search a few entries and
/// the bag costs nothing for the rest of the catalog.
class MandateBag {
 public:
  explicit MandateBag(ItemId num_items);

  long count(ItemId item) const;
  long total() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  void add(ItemId item, long n);
  /// Removes up to n mandates for the item; returns how many were taken.
  long take(ItemId item, long n);
  /// Drops every mandate (node crash); returns how many were lost.
  long drain();

  /// (item, count) for every item with at least one mandate, in
  /// ascending item order.
  const std::vector<std::pair<ItemId, long>>& entries() const noexcept {
    return entries_;
  }

  /// Items with at least one mandate, in ascending item order.
  std::vector<ItemId> active_items() const;

  /// Appends the active items to `out` in ascending item order — the
  /// allocation-free form for callers that merge two bags (QcrPolicy's
  /// per-meeting item unions).
  void append_active_items(std::vector<ItemId>& out) const {
    for (const auto& entry : entries_) out.push_back(entry.first);
  }

 private:
  /// Throws std::out_of_range for an item outside the catalog (`what`
  /// names the caller).
  void check_item(ItemId item, const char* what) const;

  ItemId num_items_;
  std::vector<std::pair<ItemId, long>> entries_;
  long total_ = 0;
};

}  // namespace impatience::core
