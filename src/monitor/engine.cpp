#include "monitor/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "monitor/features.hpp"

namespace swmon {
namespace {

/// The instance-independent part of MatchPattern for an abort: its event
/// type, the presence of its required fields, and its constant conditions.
/// False means the abort matches no instance, whatever its bindings.
bool AbortMayMatch(const Pattern& a, std::uint64_t need,
                   const DataplaneEvent& ev) {
  if (a.event_type && *a.event_type != ev.type) return false;
  if ((ev.fields.presence_mask() & need) != need) return false;
  for (const Condition& c : a.conditions) {
    if (c.rhs.kind != Term::Kind::kConst) continue;
    const auto v = ev.fields.Get(c.field);
    if (!v) continue;  // absent: holds when allow_absent, else `need` failed
    const bool eq = (*v & c.mask) == (c.rhs.constant & c.mask);
    if (eq != (c.op == CmpOp::kEq)) return false;
  }
  return true;
}

}  // namespace

MonitorEngine::MonitorEngine(Property property, MonitorConfig config)
    : property_(std::move(property)),
      config_(config),
      timers_([this](std::uint64_t id, SimTime deadline) {
        OnTimerExpiry(id, deadline);
      }) {
  const std::string err = property_.Validate();
  SWMON_ASSERT_MSG(err.empty(), err.c_str());

  eviction_.Configure(config_.eviction, property_.num_vars());
  evict_enabled_ = eviction_.enabled();

  interest_ = InterestSignature(property_);
  stores_.resize(property_.num_stages());
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    const Stage& st = property_.stages[k];
    StageStore& store = stores_[k];
    StageIndexPlan plan;
    if (!config_.force_linear_store) plan = PlanStageIndex(property_, k);
    store.link = std::move(plan.link);
    for (std::size_t i = 0; i < st.aborts.size(); ++i) {
      AbortIndex a;
      a.need = RequiredFieldMask(st.aborts[i]);
      if (!plan.abort_probes.empty()) a.probe = std::move(plan.abort_probes[i]);
      store.aborts.push_back(std::move(a));
    }
  }
  for (const Binding& b : property_.stages[0].bindings)
    stage0_bound_vars_.push_back(b.var);
}

// ---------------------------------------------------------------- matching

bool MonitorEngine::EvalCondition(
    const Condition& c, const FieldMap& fields,
    const std::vector<std::optional<std::uint64_t>>& env) const {
  const auto lhs = fields.Get(c.field);
  if (!lhs) return c.allow_absent;
  std::uint64_t rhs;
  if (c.rhs.kind == Term::Kind::kConst) {
    rhs = c.rhs.constant;
  } else {
    const auto& bound = env[c.rhs.var];
    if (!bound) return false;  // conditions on unbound vars never hold
    rhs = *bound;
  }
  const bool eq = (*lhs & c.mask) == (rhs & c.mask);
  return c.op == CmpOp::kEq ? eq : !eq;
}

bool MonitorEngine::MatchPattern(
    const Pattern& p, const DataplaneEvent& ev,
    const std::vector<std::optional<std::uint64_t>>& env) const {
  if (p.event_type && *p.event_type != ev.type) return false;
  for (const Condition& c : p.conditions)
    if (!EvalCondition(c, ev.fields, env)) return false;
  if (!p.forbidden.empty()) {
    bool all_hold = true;
    for (const Condition& c : p.forbidden) {
      if (!EvalCondition(c, ev.fields, env)) {
        all_hold = false;
        break;
      }
    }
    if (all_hold) return false;  // the forbidden tuple matched exactly
  }
  return true;
}

bool MonitorEngine::ApplyBindings(
    const Stage& stage, const DataplaneEvent& ev,
    std::vector<std::optional<std::uint64_t>>& env) {
  // Validate before mutating: a binding on an absent field means the stage
  // does not match (and the round-robin counter must not advance).
  for (const Binding& b : stage.bindings) {
    if (b.kind == Binding::Kind::kField && !ev.fields.Has(b.field))
      return false;
    if (b.kind == Binding::Kind::kHashPort) {
      for (FieldId f : b.hash_inputs)
        if (!ev.fields.Has(f)) return false;
    }
  }
  if (stage.window_from_field && !ev.fields.Has(*stage.window_from_field))
    return false;

  for (const Binding& b : stage.bindings) {
    switch (b.kind) {
      case Binding::Kind::kField:
        env[b.var] = ev.fields.GetUnchecked(b.field);
        break;
      case Binding::Kind::kHashPort:
        env[b.var] =
            HashFieldsToRange(ev.fields, b.hash_inputs, b.modulus, b.base);
        break;
      case Binding::Kind::kRoundRobin:
        env[b.var] = rr_counter_++ % b.modulus + b.base;
        break;
    }
  }
  return true;
}

// ------------------------------------------------------------------ stores

void MonitorEngine::InsertIntoStore(Instance& inst) {
  SWMON_ASSERT(inst.stage >= 1 && inst.stage < property_.num_stages());
  StageStore& store = stores_[inst.stage];
  if (!store.link.empty()) {
    FlowKey key;
    key.values.reserve(store.link.size());
    bool all_bound = true;
    for (const auto& [field, var] : store.link) {
      if (!inst.env[var]) {
        all_bound = false;
        break;
      }
      key.values.push_back(*inst.env[var]);
    }
    if (all_bound) {
      store.keyed[key].push_back(inst.id);
      return;
    }
  }
  store.scan.push_back(inst.id);
}

void MonitorEngine::RemoveFromStore(const Instance& inst) {
  if (inst.stage < 1 || inst.stage >= property_.num_stages()) return;
  StageStore& store = stores_[inst.stage];
  auto erase_id = [&](std::vector<std::uint64_t>& v) {
    auto it = std::find(v.begin(), v.end(), inst.id);
    if (it != v.end()) {
      *it = v.back();
      v.pop_back();
      return true;
    }
    return false;
  };
  if (!store.link.empty()) {
    FlowKey key;
    bool all_bound = true;
    for (const auto& [field, var] : store.link) {
      if (!inst.env[var]) {
        all_bound = false;
        break;
      }
      key.values.push_back(*inst.env[var]);
    }
    if (all_bound) {
      auto it = store.keyed.find(key);
      if (it != store.keyed.end()) {
        erase_id(it->second);
        if (it->second.empty()) store.keyed.erase(it);
      }
      return;
    }
  }
  erase_id(store.scan);
}

std::optional<FlowKey> MonitorEngine::Stage0Key(
    const std::vector<std::optional<std::uint64_t>>& env) const {
  FlowKey key;
  key.values.reserve(stage0_bound_vars_.size());
  for (VarId v : stage0_bound_vars_) {
    if (!env[v]) return std::nullopt;
    key.values.push_back(*env[v]);
  }
  return key;
}

// -------------------------------------------------------------- lifecycle

void MonitorEngine::ArmWindow(Instance& inst, const Stage& completed,
                              const DataplaneEvent* ev) {
  Duration window = completed.window;
  if (completed.window_from_field && ev != nullptr) {
    // Presence was verified in ApplyBindings.
    window = Duration::Seconds(static_cast<std::int64_t>(
        ev->fields.GetUnchecked(*completed.window_from_field)));
  }
  if (window > Duration::Zero()) {
    inst.deadline = now_ + window;
    // Ordinal = instance id: deadline ties fire in id order, a pure function
    // of monitor state that per-replica timer heaps reproduce independently
    // (the instance-sharded merge depends on it; see timer_set.hpp).
    timers_.Arm(inst.id, inst.deadline, inst.id);
    if (evict_enabled_)
      eviction_.OnDeadline(inst.id,
                           static_cast<std::uint64_t>(inst.deadline.nanos()));
  } else {
    inst.deadline = SimTime::Infinity();
    timers_.Cancel(inst.id);
    if (evict_enabled_)
      eviction_.OnDeadline(inst.id, EvictionState::kNoDeadline);
  }
}

void MonitorEngine::ReportViolation(const Instance& inst, SimTime when,
                                    const std::string& trigger,
                                    std::uint32_t trigger_stage_index) {
  Violation v;
  v.property = property_.name;
  v.time = when;
  v.instance_id = inst.id;
  v.trigger_stage = trigger;
  v.trigger_stage_index = trigger_stage_index;
  if (config_.provenance >= ProvenanceLevel::kLimited) {
    for (std::size_t i = 0; i < property_.vars.size(); ++i) {
      if (inst.env[i]) v.bindings.emplace_back(property_.vars[i], *inst.env[i]);
    }
  }
  if (config_.provenance == ProvenanceLevel::kFull) v.history = inst.history;
  SWMON_LOG_INFO("monitor", "%s", v.ToString().c_str());
  violations_.push_back(std::move(v));
  ++stats_.violations;
}

void MonitorEngine::DestroyInstance(std::uint64_t id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  RemoveFromStore(inst);
  if (const auto key = Stage0Key(inst.env)) {
    auto bucket = stage0_index_.find(*key);
    if (bucket != stage0_index_.end()) {
      std::erase(bucket->second, id);
      if (bucket->second.empty()) stage0_index_.erase(bucket);
    }
  }
  timers_.Cancel(id);
  instances_.erase(it);
  if (evict_enabled_) eviction_.OnDestroy(id);
}

void MonitorEngine::AdvanceInstance(Instance& inst, const DataplaneEvent* ev) {
  // Caller verified the match, committed env updates, and UNFILED the
  // instance from its stage store (removal must use the pre-update env —
  // the keyed store can only locate an instance under the key it was
  // inserted with); this commits the stage transition.
  if (config_.provenance == ProvenanceLevel::kFull) {
    ProvenanceEvent pe;
    pe.time = now_;
    pe.stage = inst.stage;
    if (ev != nullptr) pe.fields = ev->fields;
    inst.history.push_back(std::move(pe));
  }
  const Stage& completed = property_.stages[inst.stage];
  const auto completed_index = inst.stage;
  ++inst.stage;
  inst.stage_matches = 0;
  if (inst.stage == property_.num_stages()) {
    ReportViolation(inst, now_, completed.label, completed_index);
    DestroyInstance(inst.id);
    return;
  }
  ArmWindow(inst, completed, ev);
  InsertIntoStore(inst);
}

void MonitorEngine::OnTimerExpiry(std::uint64_t id, SimTime deadline) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  now_ = std::max(now_, deadline);
  if (inst.stage < property_.num_stages() &&
      property_.stages[inst.stage].kind == StageKind::kTimeout) {
    // Feature 7: the elapsed window IS the observation.
    ++stats_.timeout_observations;
    ++stats_.instances_advanced;
    RemoveFromStore(inst);  // env is unchanged, so the filed key is current
    AdvanceInstance(inst, nullptr);
  } else {
    // Feature 3: the window lapsed before the next observation; the
    // candidate violation evaporates.
    ++stats_.instances_expired;
    DestroyInstance(id);
  }
}

void MonitorEngine::EvictIfNeeded() {
  if (!evict_enabled_) return;
  while (instances_.size() > eviction_.cap()) {
    const EvictionState::Victim victim = eviction_.PickVictim();
    DestroyInstance(victim.id);
    ++stats_.instances_evicted;
    if (eviction_.bytes_bound())
      ++evictions_bytes_;
    else
      ++evictions_capacity_;
  }
}

// ------------------------------------------------------------- event path

void MonitorEngine::AdvanceTime(SimTime now) {
  // Stale timestamps (e.g. an AdvanceTime(horizon) after late scheduled
  // events already pushed the clock further) are a no-op: time is monotone.
  if (now <= now_) return;
  timers_.Advance(now);
  now_ = now;
}

void MonitorEngine::ProcessEvent(const DataplaneEvent& event) {
  ++event_seq_;
  ++stats_.events;
  AdvanceTime(event.time);
  RunAbortPass(event, ~std::uint64_t{0});
  RunAdvancePass(event, ~std::uint64_t{0});
  if (config_.naive_timeout_refresh) RunNaiveRefreshPass(event);
  RunCreatePass(event);
  RunSuppressorPass(event);
  stats_.peak_live = std::max(stats_.peak_live, instances_.size());
}

void MonitorEngine::ProcessShardedEvent(const DataplaneEvent& event,
                                        std::uint64_t stage_mask, bool count) {
  // Same pass sequence as ProcessEvent, restricted to the stages this
  // replica owns for this event. Exactly one replica per event runs with
  // `count` set, so summing replica counters reproduces the serial ones.
  // The driver already advanced time (timer phase); the AdvanceTime here is
  // a monotonicity no-op kept for direct callers.
  ++event_seq_;
  if (count) {
    ++stats_.events;
    ++stats_.events_dispatched;
  }
  AdvanceTime(event.time);
  RunAbortPass(event, stage_mask);
  RunAdvancePass(event, stage_mask);
  if (config_.naive_timeout_refresh) RunNaiveRefreshPass(event);
  if (stage_mask & 1) {
    RunCreatePass(event);
    RunSuppressorPass(event);
  }
  stats_.peak_live = std::max(stats_.peak_live, instances_.size());
}

void MonitorEngine::RunNaiveRefreshPass(const DataplaneEvent& ev) {
  // Unsound-by-design ablation (see MonitorConfig::naive_timeout_refresh):
  // an event re-matching the observation BEFORE a pending timeout stage
  // resets that stage's timer, postponing the negative observation.
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    if (property_.stages[k].kind != StageKind::kTimeout) continue;
    const Stage& prev = property_.stages[k - 1];
    if (prev.kind != StageKind::kEvent) continue;
    if (prev.pattern.event_type && *prev.pattern.event_type != ev.type)
      continue;
    StageStore& store = stores_[k];
    if (prev.window_from_field && !ev.fields.Has(*prev.window_from_field))
      continue;
    auto consider = [&](std::uint64_t id) {
      auto it = instances_.find(id);
      if (it == instances_.end() || it->second.stage != k) return;
      if (MatchPattern(prev.pattern, ev, it->second.env)) {
        ArmWindow(it->second, prev, &ev);
        ++stats_.instances_refreshed;
      }
    };
    for (const auto& [key, bucket] : store.keyed)
      for (auto id : bucket) consider(id);
    for (auto id : store.scan) consider(id);
  }
}

void MonitorEngine::RunAbortPass(const DataplaneEvent& ev,
                                 std::uint64_t stage_mask) {
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    if (!(stage_mask >> k & 1)) continue;
    const Stage& st = property_.stages[k];
    if (st.aborts.empty()) continue;
    const StageStore& store = stores_[k];
    // Per-event prefilter, before any instance is visited.
    std::vector<std::size_t> live;  // indexes into st.aborts
    bool walk = false;
    for (std::size_t i = 0; i < st.aborts.size(); ++i) {
      if (!AbortMayMatch(st.aborts[i], store.aborts[i].need, ev)) continue;
      live.push_back(i);
      walk |= store.aborts[i].probe.empty();
    }
    if (live.empty()) continue;

    std::vector<std::uint64_t> victims;
    auto consider = [&](std::uint64_t id) {
      const auto it = instances_.find(id);
      if (it == instances_.end() || it->second.stage != k) return;
      ++stats_.candidate_checks;
      ++stats_.abort_checks;
      for (const std::size_t i : live) {
        if (MatchPattern(st.aborts[i], ev, it->second.env)) {
          victims.push_back(id);
          return;
        }
      }
    };
    if (walk) {
      // Some surviving abort leaves a link variable free, so it can match
      // anywhere in the stage (a link-down discharging every instance).
      for (const auto& [key, bucket] : store.keyed)
        for (auto id : bucket) consider(id);
      for (auto id : store.scan) consider(id);
    } else {
      // Every surviving abort pins the whole link key, so its victims sit
      // in the one bucket its fields project to. Scan-list instances leave
      // a link variable unbound, and a condition on an unbound variable
      // never holds, so they are skipped.
      std::vector<const std::vector<std::uint64_t>*> visited;
      for (const std::size_t i : live) {
        FlowKey key;
        for (const FieldId f : store.aborts[i].probe)
          key.values.push_back(ev.fields.GetUnchecked(f));
        const auto it = store.keyed.find(key);
        if (it == store.keyed.end() ||
            std::find(visited.begin(), visited.end(), &it->second) !=
                visited.end())
          continue;
        visited.push_back(&it->second);
        for (auto id : it->second) consider(id);
      }
    }

    // The victim set was gathered in unordered_map bucket order; sort so
    // destruction order is deterministic and engine-independent (part of
    // the compiled-vs-interpreted bit-identity contract).
    std::sort(victims.begin(), victims.end());
    for (auto id : victims) {
      DestroyInstance(id);
      ++stats_.instances_aborted;
    }
  }
}

void MonitorEngine::RunAdvancePass(const DataplaneEvent& ev,
                                   std::uint64_t stage_mask) {
  // Highest stage first so an instance advanced into stage k+1 is not
  // examined again there by the same event.
  for (std::size_t k = property_.num_stages(); k-- > 1;) {
    if (!(stage_mask >> k & 1)) continue;
    const Stage& st = property_.stages[k];
    if (st.kind != StageKind::kEvent) continue;
    if (st.pattern.event_type && *st.pattern.event_type != ev.type) continue;

    StageStore& store = stores_[k];
    std::vector<std::uint64_t> candidates;
    if (!store.link.empty()) {
      FlowKey key;
      bool projectable = true;
      for (const auto& [field, var] : store.link) {
        const auto v = ev.fields.Get(field);
        if (!v) {
          projectable = false;
          break;
        }
        key.values.push_back(*v);
      }
      if (projectable) {
        const auto it = store.keyed.find(key);
        if (it != store.keyed.end()) candidates = it->second;
      }
      candidates.insert(candidates.end(), store.scan.begin(),
                        store.scan.end());
    } else {
      // Multiple match (Feature 8): every instance at this stage is a
      // candidate — e.g. a link-down event advances all learned addresses.
      candidates.reserve(store.keyed.size() + store.scan.size());
      for (const auto& [key, bucket] : store.keyed)
        candidates.insert(candidates.end(), bucket.begin(), bucket.end());
      candidates.insert(candidates.end(), store.scan.begin(),
                        store.scan.end());
    }

    for (const std::uint64_t id : candidates) {
      auto it = instances_.find(id);
      if (it == instances_.end()) continue;
      Instance& inst = it->second;
      if (inst.stage != k || inst.last_event_seq == event_seq_) continue;
      ++stats_.candidate_checks;
      if (!MatchPattern(st.pattern, ev, inst.env)) continue;
      auto new_env = inst.env;
      if (!ApplyBindings(st, ev, new_env)) continue;
      inst.last_event_seq = event_seq_;
      // LRU recency: stamped with the event seq (idempotent per event), the
      // finest clock both engines provably agree on — see eviction.hpp.
      if (evict_enabled_) eviction_.OnTouch(id, event_seq_);
      // A stage with bindings may rebind one of its own link variables, so
      // the instance must be unfiled under the OLD env before the commit;
      // removing afterwards computes a key the store never saw, leaving a
      // stale entry the matching events can no longer reach.
      const bool rebinds = !st.bindings.empty();
      if (rebinds) RemoveFromStore(inst);
      inst.env = std::move(new_env);
      // Quantitative stages (extension): accumulate matches until the
      // stage's threshold before the observation counts as complete.
      if (++inst.stage_matches < st.min_count) {
        if (rebinds) InsertIntoStore(inst);  // re-file under the new key
        continue;
      }
      if (!rebinds) RemoveFromStore(inst);
      ++stats_.instances_advanced;
      AdvanceInstance(inst, &ev);
    }
  }
}

void MonitorEngine::RunCreatePass(const DataplaneEvent& ev) {
  const Stage& st0 = property_.stages[0];
  std::vector<std::optional<std::uint64_t>> env(property_.num_vars());
  if (!MatchPattern(st0.pattern, ev, env)) return;

  // Suppression (negated-history preconditions).
  if (!property_.suppression_key_fields.empty()) {
    if (const auto key =
            ProjectKey(ev.fields, property_.suppression_key_fields);
        key && suppressed_.contains(*key)) {
      ++stats_.suppressed_creations;
      return;
    }
  }

  // ApplyBindings validates every fallible part (field presence) before
  // mutating, so a failed stage never advances rr_counter_. The dedup path
  // below discards a *successful* env, though — snapshot the counter so an
  // event that does not complete stage 0 never consumes a round-robin slot
  // (a duplicate stage-0 match must not desynchronize later assignments).
  const std::uint64_t rr_before = rr_counter_;
  if (!ApplyBindings(st0, ev, env)) return;

  // Dedup / refresh (Feature 3's per-pair timer semantics).
  if (const auto key = Stage0Key(env)) {
    const auto bucket = stage0_index_.find(*key);
    if (bucket != stage0_index_.end() && !bucket->second.empty()) {
      rr_counter_ = rr_before;
      if (st0.refresh_window_on_rematch) {
        for (const std::uint64_t id : bucket->second) {
          auto it = instances_.find(id);
          if (it == instances_.end() || it->second.stage != 1) continue;
          ArmWindow(it->second, st0, &ev);
          ++stats_.instances_refreshed;
          if (evict_enabled_) eviction_.OnTouch(id, event_seq_);
        }
      }
      return;  // an equivalent attempt is already live
    }
  }

  const std::uint64_t id = next_instance_id_++;
  auto [it, inserted] = instances_.emplace(id, Instance{});
  SWMON_ASSERT(inserted);
  Instance& inst = it->second;
  inst.id = id;
  inst.stage = 0;
  inst.created = now_;
  inst.env = std::move(env);
  inst.last_event_seq = event_seq_;
  if (const auto key = Stage0Key(inst.env))
    stage0_index_[*key].push_back(id);
  // Eviction bookkeeping is only maintained under a cap; recording
  // unconditionally would grow the policy queue forever when unbounded.
  if (evict_enabled_) eviction_.OnCreate(id, id, event_seq_);
  ++stats_.instances_created;
  AdvanceInstance(inst, &ev);  // commits stage 0 -> 1 (or violates if n==1)
  EvictIfNeeded();
}

void MonitorEngine::RunSuppressorPass(const DataplaneEvent& ev) {
  for (const Suppressor& sup : property_.suppressors) {
    std::vector<std::optional<std::uint64_t>> env(property_.num_vars());
    if (!MatchPattern(sup.pattern, ev, env)) continue;
    if (const auto key = ProjectKey(ev.fields, sup.key_fields))
      suppressed_.insert(*key);
  }
}

std::size_t MonitorEngine::StateBytes() const {
  std::size_t bytes = suppressed_.size() * sizeof(FlowKey);
  for (const auto& [id, inst] : instances_) {
    bytes += sizeof(Instance);
    bytes += inst.env.capacity() * sizeof(std::optional<std::uint64_t>);
    bytes += inst.history.capacity() * sizeof(ProvenanceEvent);
  }
  return bytes;
}

void MonitorEngine::CollectInto(telemetry::Snapshot& snap,
                                std::string_view name) const {
  PublishEngineCounters(snap, name, stats_, instances_.size(),
                        property_.num_vars(), timers_, eviction_,
                        evictions_capacity_, evictions_bytes_);
}

}  // namespace swmon
