// One tenant: a named group of properties monitored over the shared event
// stream, with hot lifecycle and bounded violation retention.
//
// swmond multiplexes many property owners ("tenants" — a team, a customer,
// an experiment) onto one ingested stream. Each tenant owns its own
// MonitorSet (or ParallelMonitorSet when configured with workers > 1), so
// tenants are isolated: attaching, detaching, or drowning one tenant in
// violations cannot perturb another tenant's engines, dispatch order, or
// determinism. Properties arrive as SPL text — from `<config>/<tenant>/
// *.spl` at startup or over the control API at runtime — and parse errors
// are returned to the caller verbatim (the control plane turns them into
// HTTP 400 bodies).
//
// All methods are pump-thread-only (the daemon marshals control-plane calls
// onto the pump); the tenant itself takes no locks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "daemon/violation_ring.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {

struct TenantOptions {
  /// 0 or 1 = serial MonitorSet; >1 = ParallelMonitorSet with this many
  /// workers (started immediately; properties hot-attach onto the pool).
  std::size_t workers = 0;
  /// Worker-pool sharding policy (parallel tenants only). kProperty pins
  /// each property to one worker; kInstance splits shard-eligible
  /// properties across all workers by instance identity; kAuto splits only
  /// while the tenant has fewer live properties than workers — the right
  /// default for a tenant whose one hot property must use the whole pool.
  ShardMode shard_mode = ShardMode::kProperty;
  /// Per-engine monitor config (provenance, instance caps, ...).
  MonitorConfig monitor;
  /// Most-recent undrained violations retained per tenant (older ones are
  /// dropped and counted — see ViolationRing).
  std::size_t violation_capacity = 4096;
};

struct TenantProperty {
  PropertyId id;
  std::string name;
};

class Tenant {
 public:
  Tenant(std::string name, TenantOptions options);
  ~Tenant();
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }

  /// Parses `spl_text` and attaches the property. On parse or validation
  /// failure returns nullopt with the parser's message (line numbers
  /// included) in `*error` — the surface the control API reports to
  /// operators.
  std::optional<PropertyId> AttachSpl(const std::string& spl_text,
                                      std::string* error);
  PropertyId Attach(Property property);

  /// Hot-detaches; the property's violations observed so far are pushed
  /// into the tenant ring (nothing is lost, subject to ring capacity).
  /// False when `id` is unknown or already detached.
  bool Detach(PropertyId id);

  bool attached(PropertyId id) const;
  std::vector<TenantProperty> Properties() const;
  std::size_t attached_count() const;

  void Deliver(const DataplaneEvent& event);
  /// Flush the quiet point: publishes a parallel set's partial batch and
  /// waits for its workers (a serial set has nothing buffered).
  void Flush();
  void AdvanceTime(SimTime now);

  /// Moves violations accumulated inside the engines into the bounded
  /// ring. The daemon calls this every pump round — the step that keeps
  /// per-engine violation vectors (and parallel merge markers) from
  /// growing for the life of the process.
  void DrainEngines();

  /// Drains the ring (GET /violations) — oldest first.
  std::vector<Violation> DrainRing() { return ring_.Drain(); }

  std::uint64_t violations_total() const { return ring_.total(); }
  std::uint64_t violations_dropped() const { return ring_.dropped(); }

  /// Publishes this tenant's metrics under `daemon.tenant.<name>.` —
  /// the ring counters plus every monitor.set/monitor.engine metric of the
  /// underlying set, re-prefixed so tenants never collide in one snapshot.
  void CollectInto(telemetry::Snapshot& snap);

 private:
  std::string name_;
  TenantOptions options_;
  // Exactly one of these is live, chosen by options_.workers.
  std::unique_ptr<MonitorSet> serial_;
  std::unique_ptr<ParallelMonitorSet> parallel_;
  ViolationRing ring_;
};

}  // namespace swmon
