// Interest-signature dispatch lists for the serial MonitorSet.
//
// For every DataplaneEventType the table keeps two lists in engine-attach
// order: engines whose property can react to the type (interested — they
// get the full ProcessDispatchedEvent) and the rest (filtered — they only
// observe the timestamp so their timeout windows keep expiring).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "monitor/property_monitor.hpp"

namespace swmon {

class DispatchTable {
 public:
  /// Slots the engine into interested/filtered per event type from its
  /// interest signature. Call in attach order — list order is dispatch
  /// order, and dispatch order is part of the determinism contract.
  void Register(PropertyMonitor* engine) {
    const EventTypeMask sig = engine->interest_signature();
    for (std::size_t t = 0; t < kNumDataplaneEventTypes; ++t) {
      auto& list = lists_[t];
      (sig >> t & 1 ? list.interested : list.filtered).push_back(engine);
    }
  }

  /// Removes every entry for `engine`, preserving the relative order of the
  /// remaining entries (detach must not perturb dispatch order for resident
  /// engines — that order is part of the determinism contract).
  void Unregister(const PropertyMonitor* engine) {
    for (auto& lists : lists_) {
      for (auto* list : {&lists.interested, &lists.filtered})
        list->erase(std::remove(list->begin(), list->end(), engine),
                    list->end());
    }
  }

  /// Delivers one event to this table's engines (interested: full
  /// processing; filtered: clock only) and bumps the caller's counters by
  /// the per-delivery amounts — the same amounts the parallel workers count
  /// per engine, which is what makes the set-level counters agree.
  void Deliver(const DataplaneEvent& event, std::uint64_t& dispatched,
               std::uint64_t& filtered) const {
    const Lists& list = lists_[static_cast<std::size_t>(event.type)];
    for (PropertyMonitor* e : list.interested) e->ProcessDispatchedEvent(event);
    dispatched += list.interested.size();
    // All-interested fast path: when nothing is filtered for this type
    // (the common case — one attached property subscribed to every event
    // type), skip the filtered walk and its counter write entirely so the
    // pre-filtered path costs no more than direct delivery (bench_dispatch
    // guards the parity).
    if (list.filtered.empty()) return;
    for (PropertyMonitor* e : list.filtered) e->NoteFilteredEvent(event.time);
    filtered += list.filtered.size();
  }

 private:
  struct Lists {
    std::vector<PropertyMonitor*> interested;
    std::vector<PropertyMonitor*> filtered;
  };
  std::array<Lists, kNumDataplaneEventTypes> lists_;
};

}  // namespace swmon
