#include <algorithm>
#include <stdexcept>
#include <string>

#include "impatience/core/mandate.hpp"

namespace impatience::core {

MandateBag::MandateBag(ItemId num_items) : num_items_(num_items) {
  if (num_items == 0) {
    throw std::invalid_argument("MandateBag: need at least one item");
  }
}

namespace {

/// First entry whose item is >= `item` (entries are sorted by item).
template <class Entries>
auto lower(Entries& entries, ItemId item) {
  return std::lower_bound(
      entries.begin(), entries.end(), item,
      [](const auto& entry, ItemId key) { return entry.first < key; });
}

}  // namespace

void MandateBag::check_item(ItemId item, const char* what) const {
  if (item >= num_items_) {
    throw std::out_of_range(std::string("MandateBag::") + what +
                            ": bad item");
  }
}

long MandateBag::count(ItemId item) const {
  check_item(item, "count");
  const auto it = lower(entries_, item);
  return it != entries_.end() && it->first == item ? it->second : 0;
}

void MandateBag::add(ItemId item, long n) {
  check_item(item, "add");
  if (n < 0) {
    throw std::invalid_argument("MandateBag::add: negative count");
  }
  if (n == 0) return;
  const auto it = lower(entries_, item);
  if (it != entries_.end() && it->first == item) {
    it->second += n;
  } else {
    entries_.insert(it, {item, n});
  }
  total_ += n;
}

long MandateBag::take(ItemId item, long n) {
  check_item(item, "take");
  if (n < 0) {
    throw std::invalid_argument("MandateBag::take: negative count");
  }
  const auto it = lower(entries_, item);
  if (it == entries_.end() || it->first != item) return 0;
  const long taken = std::min(n, it->second);
  it->second -= taken;
  total_ -= taken;
  if (it->second == 0) entries_.erase(it);
  return taken;
}

long MandateBag::drain() {
  const long lost = total_;
  entries_.clear();
  total_ = 0;
  return lost;
}

std::vector<ItemId> MandateBag::active_items() const {
  std::vector<ItemId> out;
  out.reserve(entries_.size());
  append_active_items(out);
  return out;
}

}  // namespace impatience::core
