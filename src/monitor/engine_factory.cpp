// Engine selection for CreatePropertyMonitor, and the counter publisher
// both engines share (see property_monitor.hpp).

#include <cstdlib>
#include <string>
#include <string_view>

#include "event/timer_set.hpp"
#include "monitor/compiled/bytecode.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/property_monitor.hpp"

namespace swmon {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kDefault:
      return "default";
    case EngineKind::kInterpreted:
      return "interpreted";
    case EngineKind::kCompiled:
      return "compiled";
  }
  return "unknown";
}

EngineKind ResolveEngineKind(const Property& property,
                             const MonitorConfig& config) {
  EngineKind kind = config.engine;
  if (kind == EngineKind::kDefault) {
    // Read per call, not cached: tests and the daemon flip it per attach.
    const char* env = std::getenv("SWMON_ENGINE");
    kind = (env != nullptr && std::string_view(env) == "compiled")
               ? EngineKind::kCompiled
               : EngineKind::kInterpreted;
  }
  if (kind == EngineKind::kCompiled) {
    const bool lowerable = !config.force_linear_store &&
                           !config.naive_timeout_refresh &&
                           config.provenance != ProvenanceLevel::kFull &&
                           property.num_stages() <= 64 &&
                           property.num_vars() <= 64;
    if (!lowerable) kind = EngineKind::kInterpreted;
  }
  return kind;
}

std::unique_ptr<PropertyMonitor> CreatePropertyMonitor(Property property,
                                                       MonitorConfig config) {
  if (ResolveEngineKind(property, config) == EngineKind::kCompiled) {
    // ResolveEngineKind's size caps match CompileProperty's, so this cannot
    // assert; compile here (not in the ctor) to keep one compilation.
    std::optional<compiled::Program> program =
        compiled::CompileProperty(property);
    if (program.has_value())
      return std::make_unique<CompiledEngine>(std::move(property),
                                              std::move(*program), config);
  }
  return std::make_unique<MonitorEngine>(std::move(property), config);
}

void PublishEngineCounters(telemetry::Snapshot& snap, std::string_view name,
                           const MonitorStats& stats, std::size_t live,
                           std::size_t num_vars, const TimerSet& timers,
                           const EvictionState& eviction,
                           std::uint64_t evictions_capacity,
                           std::uint64_t evictions_bytes) {
  std::string prefix = "monitor.engine.";
  prefix.append(name);
  prefix += '.';
  const auto set = [&](const char* leaf, std::uint64_t v) {
    snap.SetCounter(prefix + leaf, v);
  };
  set("events", stats.events);
  set("events_dispatched", stats.events_dispatched);
  set("events_filtered", stats.events_filtered);
  set("instances_created", stats.instances_created);
  set("instances_refreshed", stats.instances_refreshed);
  set("instances_advanced", stats.instances_advanced);
  set("instances_expired", stats.instances_expired);
  set("instances_aborted", stats.instances_aborted);
  set("instances_evicted", stats.instances_evicted);
  set("timeout_observations", stats.timeout_observations);
  set("suppressed_creations", stats.suppressed_creations);
  set("violations", stats.violations);
  set("candidate_checks", stats.candidate_checks);
  set("abort_checks", stats.abort_checks);
  set("timers_armed", timers.total_armed());
  set("timer_stale_pops", timers.stale_popped());
  snap.SetGauge(prefix + "peak_live",
                static_cast<std::int64_t>(stats.peak_live));
  snap.SetGauge(prefix + "live_instances", static_cast<std::int64_t>(live));
  snap.SetGauge(prefix + "eviction_queue",
                static_cast<std::int64_t>(eviction.QueueSize()));
  snap.SetGauge(prefix + "timers_pending",
                static_cast<std::int64_t>(timers.armed_count()));
  snap.SetGauge(prefix + "state_bytes",
                static_cast<std::int64_t>(live * ModelInstanceBytes(num_vars)));
  if (eviction.enabled()) {
    // Enabled-only so the disabled default's snapshot name-set (and cost)
    // is unchanged.
    snap.SetCounter(prefix + "evictions.policy." +
                        EvictionPolicyName(eviction.policy()),
                    stats.instances_evicted);
    snap.SetCounter(prefix + "evictions.reason.capacity", evictions_capacity);
    snap.SetCounter(prefix + "evictions.reason.bytes", evictions_bytes);
  }
}

}  // namespace swmon
