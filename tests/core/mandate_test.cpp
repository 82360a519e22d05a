#include "impatience/core/mandate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "impatience/core/node.hpp"
#include "impatience/util/rng.hpp"

namespace impatience::core {
namespace {

TEST(MandateBag, AddTakeCount) {
  MandateBag bag(4);
  EXPECT_TRUE(bag.empty());
  bag.add(2, 5);
  EXPECT_EQ(bag.count(2), 5);
  EXPECT_EQ(bag.total(), 5);
  EXPECT_EQ(bag.take(2, 3), 3);
  EXPECT_EQ(bag.count(2), 2);
  EXPECT_EQ(bag.total(), 2);
}

TEST(MandateBag, TakeMoreThanAvailable) {
  MandateBag bag(2);
  bag.add(0, 2);
  EXPECT_EQ(bag.take(0, 10), 2);
  EXPECT_EQ(bag.count(0), 0);
  EXPECT_TRUE(bag.empty());
}

TEST(MandateBag, TakeFromEmptyItem) {
  MandateBag bag(2);
  EXPECT_EQ(bag.take(1, 5), 0);
}

TEST(MandateBag, AddZeroIsNoop) {
  MandateBag bag(2);
  bag.add(0, 0);
  EXPECT_TRUE(bag.empty());
}

TEST(MandateBag, ActiveItems) {
  MandateBag bag(5);
  bag.add(1, 1);
  bag.add(4, 2);
  const auto items = bag.active_items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 1u);
  EXPECT_EQ(items[1], 4u);
}

TEST(MandateBag, Validation) {
  EXPECT_THROW(MandateBag(0), std::invalid_argument);
  MandateBag bag(2);
  EXPECT_THROW(bag.add(2, 1), std::out_of_range);
  EXPECT_THROW(bag.take(2, 1), std::out_of_range);
  EXPECT_THROW(bag.count(2), std::out_of_range);
  EXPECT_THROW(bag.add(0, -1), std::invalid_argument);
  EXPECT_THROW(bag.take(0, -1), std::invalid_argument);
}

/// A handful of distinct item ids spread over [0, num_items): the low end,
/// the top end (num_items - 1 down) and a few random ids, so the sparse
/// bag holds several live entries at once and sees both boundaries.
std::vector<ItemId> item_pool(ItemId num_items, util::Rng& rng) {
  std::vector<ItemId> pool;
  for (ItemId k = 0; k < 3 && k < num_items; ++k) {
    pool.push_back(k);
    pool.push_back(num_items - 1 - k);
  }
  for (int k = 0; k < 6; ++k) {
    pool.push_back(static_cast<ItemId>(rng.uniform_index(num_items)));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

// Differential test: the sparse bag against a dense per-item array,
// checked after every add/take/drain over several item universes.
TEST(MandateBag, MatchesDenseReferenceUnderRandomOps) {
  for (const ItemId num_items : {1u, 2u, 5u, 50u, 1000u, 4096u}) {
    util::Rng rng(0x5eed + num_items);
    const std::vector<ItemId> pool = item_pool(num_items, rng);
    MandateBag bag(num_items);
    std::vector<long> dense(num_items, 0);
    for (int step = 0; step < 5000; ++step) {
      const ItemId item = pool[rng.uniform_index(pool.size())];
      const double op = rng.uniform();
      if (op < 0.48) {
        const long n = rng.uniform_int(0, 3);
        bag.add(item, n);
        dense[item] += n;
      } else if (op < 0.98) {
        const long n = rng.uniform_int(0, 4);
        const long expected = std::min(n, dense[item]);
        ASSERT_EQ(bag.take(item, n), expected)
            << "items " << num_items << " step " << step;
        dense[item] -= expected;
      } else {
        const long total = std::accumulate(dense.begin(), dense.end(), 0L);
        ASSERT_EQ(bag.drain(), total);
        std::fill(dense.begin(), dense.end(), 0L);
      }

      const long total = std::accumulate(dense.begin(), dense.end(), 0L);
      ASSERT_EQ(bag.total(), total) << "items " << num_items;
      ASSERT_EQ(bag.empty(), total == 0);
      std::vector<ItemId> active;
      for (ItemId i = 0; i < num_items; ++i) {
        if (dense[i] > 0) active.push_back(i);
      }
      ASSERT_EQ(bag.active_items(), active)
          << "items " << num_items << " step " << step;
      const auto entries = bag.entries();
      ASSERT_EQ(entries.size(), active.size());
      for (std::size_t k = 0; k < active.size(); ++k) {
        ASSERT_EQ(entries[k].first, active[k]);
        ASSERT_EQ(entries[k].second, dense[active[k]]);
      }
      for (ItemId i : pool) ASSERT_EQ(bag.count(i), dense[i]);
      ASSERT_EQ(bag.count(num_items - 1), dense[num_items - 1]);
    }
  }
}

TEST(Node, RolesAndAccess) {
  Node server(0, 3, 5, true, false);
  EXPECT_TRUE(server.is_server());
  EXPECT_FALSE(server.is_client());
  EXPECT_NO_THROW(server.cache());
  EXPECT_THROW(server.create_request(0, 1), std::logic_error);

  Node client(1, 3, 5, false, true);
  EXPECT_FALSE(client.is_server());
  EXPECT_THROW(client.cache(), std::logic_error);
  client.create_request(2, 7);
  ASSERT_EQ(client.pending().size(), 1u);
  EXPECT_EQ(client.pending()[0].item, 2u);
  EXPECT_EQ(client.pending()[0].created, 7);
  // Fresh request: its live query counter (clock minus snapshot) is zero.
  EXPECT_EQ(client.server_meetings() - client.pending()[0].queries_at_creation,
            0);
}

TEST(Node, HoldsChecksCache) {
  Node n(0, 3, 2, true, true);
  util::Rng rng(1);
  EXPECT_FALSE(n.holds(1));
  n.cache().insert_random_replace(1, rng);
  EXPECT_TRUE(n.holds(1));
  Node client(1, 3, 2, false, true);
  EXPECT_FALSE(client.holds(1));
}

bool lists_item(const Node& node, ItemId item) {
  return std::any_of(node.pending().begin(), node.pending().end(),
                     [item](const PendingRequest& r) { return r.item == item; });
}

// may_have_pending against the pending list itself, after every step of
// request creation, fulfilment and crash: never false for a pending item,
// exact whenever the catalog fits the 64 smallest buckets, and exact for
// any catalog once the pending list is long enough that every item has
// its own bucket.
TEST(Node, MayHavePendingTracksThePendingList) {
  for (const ItemId num_items : {1u, 3u, 64u, 65u, 1000u}) {
    util::Rng rng(0xfee1 + num_items);
    const std::vector<ItemId> pool = item_pool(num_items, rng);
    Node node(0, num_items, 2, true, true);
    EXPECT_FALSE(node.may_have_pending(0));
    for (int step = 0; step < 3000; ++step) {
      const double op = rng.uniform();
      if (op < 0.5) {
        node.create_request(pool[rng.uniform_index(pool.size())], step);
      } else if (op < 0.99) {
        // Fulfil one pending request, as the meeting protocol does: drop
        // it from the list and note it.
        auto& pending = node.pending();
        if (!pending.empty()) {
          const std::size_t k = rng.uniform_index(pending.size());
          const ItemId item = pending[k].item;
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
          node.note_fulfilled(item);
        }
      } else {
        const std::size_t open = node.pending().size();
        EXPECT_EQ(node.crash(true).requests, open);
      }
      for (ItemId item = 0; item < num_items; ++item) {
        const bool listed = lists_item(node, item);
        if (listed || num_items <= 64) {
          ASSERT_EQ(node.may_have_pending(item), listed)
              << "items " << num_items << " step " << step << " item "
              << item;
        }
      }
    }
    // A long pending list spreads the buckets over the whole catalog.
    for (int k = 0; k < 300; ++k) {
      node.create_request(
          static_cast<ItemId>(rng.uniform_index(num_items)), 3000 + k);
    }
    for (ItemId item = 0; item < num_items; ++item) {
      ASSERT_EQ(node.may_have_pending(item), lists_item(node, item))
          << "items " << num_items << " item " << item;
    }
  }
}

TEST(Node, RelayNodeCarriesMandates) {
  Node relay(0, 3, 2, false, false);
  relay.mandates().add(1, 2);
  EXPECT_EQ(relay.mandates().total(), 2);
}

}  // namespace
}  // namespace impatience::core
