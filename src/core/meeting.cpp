#include <algorithm>
#include <cstddef>

#include "sim_internal.hpp"

namespace impatience::core::detail {

namespace {

/// Queries the partner (query-counter increments), then fulfils every
/// pending request the partner can serve. Returns the gains recorded.
void fulfil_from(SimState& state, Node& requester, Node& provider) {
  if (!requester.is_client()) return;
  // A non-server partner can neither be queried nor fulfil anything.
  if (!provider.is_server()) return;

  // Every pending request queries the met server; the counter includes
  // the fulfilling meeting, so E[counter] = |S| / x_i. One O(1) tick of
  // the node's server-meeting clock updates the whole pending list (each
  // request holds the clock value from its creation); ticking with an
  // empty pending list is invisible, since later requests snapshot the
  // clock at creation.
  requester.note_server_meeting();
  if (requester.pending().empty()) return;
  auto& pending = requester.pending();

  // O(rho) prefilter: look the provider's cache up in the requester's
  // pending-request buckets before walking the pending list. Most
  // meetings fulfil nothing, so this skips the compaction pass entirely.
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
    PendingRequest& req = pending[k];
    if (provider.holds(req.item) && state.transfer_budget != 0) {
      if (state.transfer_budget > 0) --state.transfer_budget;
      const double delay =
          static_cast<double>(state.now - req.created) + 1.0;
      const double gain = (*state.utilities)[req.item].value(delay);
      const long queries =
          requester.server_meetings() - req.queries_at_creation;
      state.total_gain += gain;
      record_gain(state, static_cast<double>(state.now), gain);
      if (state.on_fulfillment && *state.on_fulfillment) {
        (*state.on_fulfillment)(req.item, requester.id(), delay, gain);
      }
      ++state.fulfillments;
      state.delay_sum += delay;
      state.query_sum += static_cast<double>(queries);
      requester.note_fulfilled(req.item);
      state.policy->on_fulfillment(requester, provider, req.item, queries,
                                   *state.rng);
    } else {
      pending[kept++] = req;
    }
  }
  pending.resize(kept);
}

/// Matched requests `requester` could fulfil from `provider`'s cache.
long count_fulfillable_from(const Node& requester, const Node& provider) {
  if (!requester.is_client() || !provider.is_server()) return 0;
  long matched = 0;
  for (const PendingRequest& req : requester.pending()) {
    if (provider.holds(req.item)) ++matched;
  }
  return matched;
}

}  // namespace

long count_fulfillable(const Node& a, const Node& b) {
  return count_fulfillable_from(a, b) + count_fulfillable_from(b, a);
}

void process_meeting(SimState& state, Node& a, Node& b) {
  fulfil_from(state, a, b);
  fulfil_from(state, b, a);
  state.policy->on_meeting_complete(a, b, *state.rng);
}

namespace {

/// Read-only mirror of fulfil_from's scan: which pending requests the
/// provider can serve, with the delay and gain the fused walk would
/// compute. The expressions match fulfil_from character for character so
/// the floating-point results are bit-identical.
void plan_direction(const SimState& state, const Node& requester,
                    const Node& provider, MeetingPlan::Direction& dir) {
  dir.tick = false;
  dir.matches.clear();
  if (!requester.is_client()) return;
  if (!provider.is_server()) return;
  dir.tick = true;
  const auto& pending = requester.pending();
  if (pending.empty()) return;

  // Same O(rho) prefilter as the fused walk.
  bool any_match = false;
  for (ItemId item : provider.cache().items()) {
    if (requester.may_have_pending(item)) {
      any_match = true;
      break;
    }
  }
  if (!any_match) return;

  for (std::size_t k = 0; k < pending.size(); ++k) {
    const PendingRequest& req = pending[k];
    if (provider.holds(req.item)) {
      const double delay =
          static_cast<double>(state.now - req.created) + 1.0;
      const double gain = (*state.utilities)[req.item].value(delay);
      dir.matches.push_back(
          {static_cast<std::uint32_t>(k), delay, gain});
    }
  }
}

/// Mutating mirror of fulfil_from, consuming a plan: the clock tick, the
/// accounting and the policy hook run in exactly the fused walk's order,
/// and the pending list ends up in exactly the fused walk's state (a
/// stable compaction of the fulfilled entries). Instead of re-walking
/// every pending entry the way the fused loop must, the match indices
/// let the unmatched runs between fulfilments shift down as blocks —
/// the commit's cost per non-matched entry is a move, not a re-test.
/// When the transfer budget runs out mid-list, the remaining matched
/// requests stay pending (they join the tail block), exactly as the
/// fused budget condition leaves them.
void commit_direction(SimState& state, Node& requester, Node& provider,
                      const MeetingPlan::Direction& dir) {
  if (!dir.tick) return;
  requester.note_server_meeting();
  if (dir.matches.empty()) return;
  auto& pending = requester.pending();

  std::size_t kept = 0;  // write cursor: entries surviving so far
  std::size_t read = 0;  // first pending index not yet placed
  for (const MeetingPlan::Match& match : dir.matches) {
    if (state.transfer_budget == 0) break;  // rest stays pending
    if (state.transfer_budget > 0) --state.transfer_budget;
    const std::size_t k = match.pending_index;
    if (kept != read) {
      std::move(pending.begin() + static_cast<std::ptrdiff_t>(read),
                pending.begin() + static_cast<std::ptrdiff_t>(k),
                pending.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    kept += k - read;
    read = k + 1;
    const PendingRequest req = pending[k];
    const long queries =
        requester.server_meetings() - req.queries_at_creation;
    state.total_gain += match.gain;
    record_gain(state, static_cast<double>(state.now), match.gain);
    if (state.on_fulfillment && *state.on_fulfillment) {
      (*state.on_fulfillment)(req.item, requester.id(), match.delay,
                              match.gain);
    }
    ++state.fulfillments;
    state.delay_sum += match.delay;
    state.query_sum += static_cast<double>(queries);
    requester.note_fulfilled(req.item);
    state.policy->on_fulfillment(requester, provider, req.item, queries,
                                 *state.rng);
  }
  if (read != pending.size()) {
    if (kept != read) {
      std::move(pending.begin() + static_cast<std::ptrdiff_t>(read),
                pending.end(),
                pending.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    kept += pending.size() - read;
  }
  pending.resize(kept);
}

}  // namespace

void plan_meeting(const SimState& state, const Node& a, const Node& b,
                  MeetingPlan& plan) {
  plan_direction(state, a, b, plan.ab);
  plan_direction(state, b, a, plan.ba);
}

void commit_meeting(SimState& state, Node& a, Node& b,
                    const MeetingPlan& plan) {
  commit_direction(state, a, b, plan.ab);
  commit_direction(state, b, a, plan.ba);
  state.policy->on_meeting_complete(a, b, *state.rng);
}

}  // namespace impatience::core::detail
