// Pluggable bounded-memory eviction (ROADMAP item 3).
//
// Switch monitor state is finite, and PAPERS.md's adversarial-settings
// line of work argues that the bound itself is attack surface: a flood
// that forces a victim instance out of the store before its violating
// suffix arrives blinds the monitor. This header turns the old bare
// `max_instances` knob into a first-class EvictionConfig — a policy enum,
// an instance cap, and an approximate state-byte cap — plus the
// EvictionState strategy object both engines (interpreted and compiled)
// drive through the same hook points, which is what makes eviction
// decisions bit-identical across engines by construction.
//
// Determinism contract (part of the compiled-vs-interpreted differential
// contract in tests/eviction_policy_test.cpp):
//   * kCreationOrder — evict the live instance with the smallest id.
//   * kLru           — evict the smallest (last-touch event seq, id).
//     Touches are stamped with the *event sequence number*, never a
//     per-touch counter: within one event the two engines visit
//     candidates in different hash-bucket orders, and the event seq is
//     the finest clock on which they provably agree.
//   * kRandom        — evict the r-th live instance in ascending-id
//     order, r drawn from a seeded xorshift64* stream advanced exactly
//     once per eviction.
//   * kTimeoutPriority — evict the instance whose deadline is furthest
//     away (no deadline = furthest of all), ties to the smallest id.
//     Instances about to take a timeout observation are the ones a
//     state-exhaustion attack wants displaced, so they go last.
//
// The byte cap is enforced against an engine-neutral per-instance byte
// model (ModelInstanceBytes) rather than either engine's actual resident
// size — actual sizes differ by engine (slab vs. node-based stores) and
// would break bit-identity. The same model value backs the `state_bytes`
// telemetry gauge.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace swmon {

enum class EvictionPolicy : std::uint8_t {
  kCreationOrder = 0,
  kLru,
  kRandom,
  kTimeoutPriority,
};

const char* EvictionPolicyName(EvictionPolicy policy);
/// Accepts the canonical names ("creation-order", "lru", "random",
/// "timeout-priority") and the short CLI aliases ("creation", "timeout").
bool ParseEvictionPolicy(std::string_view name, EvictionPolicy* out);

/// The bounded-memory knobs, extracted from MonitorConfig's old loose
/// `max_instances` field. Disabled (both caps 0) costs nothing: engines
/// skip every hook behind one cached bool.
struct EvictionConfig {
  EvictionPolicy policy = EvictionPolicy::kCreationOrder;
  /// Cap on live instances; 0 = unbounded.
  std::size_t max_instances = 0;
  /// Cap on modeled state bytes (ModelInstanceBytes per instance);
  /// 0 = unbounded. When both caps are set the tighter one binds.
  std::size_t max_state_bytes = 0;
  /// Seed of the kRandom draw stream (deterministic across engines).
  std::uint64_t seed = 0x5eedULL;

  bool enabled() const { return max_instances != 0 || max_state_bytes != 0; }

  // Builder-style setters (chainable), mirrored by PropertyBuilder.
  EvictionConfig& WithPolicy(EvictionPolicy p) {
    policy = p;
    return *this;
  }
  EvictionConfig& WithMaxInstances(std::size_t n) {
    max_instances = n;
    return *this;
  }
  EvictionConfig& WithMaxStateBytes(std::size_t n) {
    max_state_bytes = n;
    return *this;
  }
  EvictionConfig& WithSeed(std::uint64_t s) {
    seed = s;
    return *this;
  }
};

/// Parses "policy[:max_instances[:max_state_bytes]]", e.g. "lru:512" or
/// "timeout-priority:0:65536" (swmond's --eviction and the per-tenant
/// eviction file use this grammar). Returns false with *error set on a
/// malformed spec.
bool ParseEvictionSpec(std::string_view spec, EvictionConfig* out,
                       std::string* error);

/// Engine-neutral modeled bytes per live instance: a fixed record header
/// plus one slot per property variable. Deliberately NOT either engine's
/// actual footprint (see file comment).
inline std::size_t ModelInstanceBytes(std::size_t num_vars) {
  return 64 + 16 * num_vars;
}

/// The shared strategy state. One instance per engine; the engine calls
/// the On* hooks at its (deterministic, engine-agreed) lifecycle points
/// and PickVictim when over cap. `handle` is whatever the engine needs to
/// destroy the instance cheaply (the interpreter passes the id again, the
/// compiled engine its slab slot).
class EvictionState {
 public:
  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

  struct Victim {
    std::uint64_t id;
    std::uint64_t handle;
  };

  /// Resolves the effective instance cap (min of the instance cap and the
  /// byte cap divided through the model) and resets all bookkeeping.
  void Configure(const EvictionConfig& config, std::size_t num_vars);

  bool enabled() const { return cap_ != 0; }
  EvictionPolicy policy() const { return config_.policy; }
  /// Effective live-instance cap (nonzero iff enabled).
  std::size_t cap() const { return cap_; }
  /// True when the byte cap is the binding constraint — decides whether an
  /// eviction is accounted under evictions.reason.bytes or .capacity.
  bool bytes_bound() const { return bytes_bound_; }

  void OnCreate(std::uint64_t id, std::uint64_t handle,
                std::uint64_t event_seq);
  /// kLru recency stamp; idempotent per (id, event_seq).
  void OnTouch(std::uint64_t id, std::uint64_t event_seq);
  /// kTimeoutPriority key: absolute deadline in nanos, kNoDeadline for a
  /// windowless instance; idempotent per (id, deadline).
  void OnDeadline(std::uint64_t id, std::uint64_t deadline_nanos);
  /// Must be called on every destruction path (evict, abort, expire,
  /// violate) — meta_ mirrors the engine's live set exactly.
  void OnDestroy(std::uint64_t id);
  /// Chooses (and dequeues) the policy's victim. Precondition: at least
  /// one live instance (the engine only calls this while live > cap).
  Victim PickVictim();

  std::size_t live() const { return meta_.size(); }
  /// Pending policy-queue entries (live + not-yet-pruned stale ones);
  /// published as the eviction_queue gauge. Bounded by ~2x live via the
  /// same lazy-compaction rule the old creation-order deque used.
  std::size_t QueueSize() const;

 private:
  struct Meta {
    std::uint64_t handle = 0;
    std::uint64_t touch = 0;               // kLru
    std::uint64_t deadline = kNoDeadline;  // kTimeoutPriority
  };
  /// One lazily-invalidated priority entry; `key` is the policy ordering
  /// key a Meta field must still equal for the entry to be live.
  struct Entry {
    std::uint64_t key;
    std::uint64_t id;
  };

  void PushEntry(std::uint64_t key, std::uint64_t id);
  void PopEntry();
  void MaybeCompact();
  std::uint64_t NextRandom();
  /// Is this heap/deque entry still the id's current one?
  bool EntryLive(const Entry& e) const;

  EvictionConfig config_;
  std::size_t cap_ = 0;
  bool bytes_bound_ = false;
  std::uint64_t rng_ = 0;

  std::unordered_map<std::uint64_t, Meta> meta_;
  /// kCreationOrder: ids oldest-first, dead ids pruned lazily.
  std::deque<std::uint64_t> order_;
  /// kLru / kTimeoutPriority: lazy binary heap of Entry. Heap layout is
  /// engine-dependent after compaction (meta_ iteration order seeds it),
  /// but pops follow the comparator's strict total order over (key, id),
  /// so the *sequence* of popped entries — all that is observable — is
  /// engine-independent.
  std::vector<Entry> heap_;
  /// kRandom: live ids ascending (ids are monotone, so creation appends).
  std::vector<std::uint64_t> ids_;
};

}  // namespace swmon
