// A bundle of monitor engines sharing one event stream, with pre-filtered
// dispatch.
//
// Attach a MonitorSet to a switch to check many properties at once. Instead
// of broadcasting every event to every engine, the set keeps one dispatch
// list per DataplaneEventType, built from each property's static interest
// signature (monitor/features.hpp): an event is delivered only to engines
// whose property has a pattern that can react to its type. With N properties
// attached, a packet touches only the interested subset — the per-packet
// cost the paper's Sec 3.3 wants held constant does not pay for properties
// that cannot match (bench_dispatch measures the ratio).
//
// Filtering is semantics-preserving: an event outside an engine's signature
// provably cannot change that engine's state except by advancing its clock,
// so filtered engines still receive the timestamp (NoteFilteredEvent) and
// their windows expire exactly as under broadcast delivery — including
// timeout-action observations in quiet periods via AdvanceTime.
//
// Lifecycle: properties can be attached and detached while the stream is
// live (AttachProperty/DetachProperty). Slots are never reused, detach
// drains the departing engine's violations to the caller, and resident
// engines keep their dispatch order and state — a lifecycle op is invisible
// to every property it does not name. DrainViolations() moves accumulated
// violations out of the set, the bounded-memory mode long-running daemons
// (src/daemon) use instead of letting per-engine vectors grow forever.
//
// Telemetry: counters are read through telemetry::Snapshot — either
// CollectInto()/TelemetrySnapshot() directly, or by attaching the set to a
// MetricsRegistry (AttachTelemetry), which also samples a per-event
// dispatch-latency histogram on the hot path. The instrumented and plain
// hot paths are the two specializations of DeliverEvent<bool>; the build's
// SWMON_TELEMETRY macro only selects which one OnDataplaneEvent uses, so
// bench_telemetry_overhead can compare both in a single binary.
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitor/dispatch_table.hpp"
#include "monitor/property_monitor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace swmon {

/// `base`, suffixed with "#2", "#3", ... if already present in `taken` —
/// engines publish metrics under their property name, which need not be
/// unique within a set.
inline std::string UniqueEngineName(const std::vector<std::string>& taken,
                                    const std::string& base) {
  std::string name = base;
  int n = 1;
  while (std::find(taken.begin(), taken.end(), name) != taken.end())
    name = base + "#" + std::to_string(++n);
  return name;
}

/// Stable handle for one attached property within a set. Slot indices are
/// never reused: detaching property 3 and attaching a new one yields id 4
/// (or higher), so a stale id can never silently alias a different engine.
using PropertyId = std::size_t;

class MonitorSet : public DataplaneObserver {
 public:
  MonitorSet() = default;
  ~MonitorSet() override { DetachTelemetry(); }

  // Not copyable/movable: an attached registry collector captures `this`.
  MonitorSet(const MonitorSet&) = delete;
  MonitorSet& operator=(const MonitorSet&) = delete;

  /// Adds a property; returns the engine for inspection.
  PropertyMonitor& Add(Property property, MonitorConfig config = {}) {
    return *engines_[AttachProperty(std::move(property), config)];
  }

  /// Adds a property and returns its stable id (the hot-lifecycle entry
  /// point: swmond attaches tenant properties through this). The new
  /// engine's clock starts at zero and advances with the next delivered
  /// event, exactly as if the set had been built with it from the start of
  /// an empty stream.
  PropertyId AttachProperty(Property property, MonitorConfig config = {}) {
    engine_names_.push_back(UniqueEngineName(engine_names_, property.name));
    engines_.push_back(CreatePropertyMonitor(std::move(property), config));
    PropertyMonitor* engine = engines_.back().get();
    dispatch_.Register(engine);
    return engines_.size() - 1;
  }

  /// Removes a property without disturbing any other engine: the detached
  /// engine's violations observed so far are drained and returned, its
  /// entries leave the dispatch lists (remaining order preserved), and its
  /// state is destroyed. Returns nullopt for an unknown or already-detached
  /// id. Resident engines are untouched — their dispatch order, state, and
  /// future violations are bit-identical to a run that never saw the
  /// detached property (monitor_lifecycle_test asserts this).
  std::optional<std::vector<Violation>> DetachProperty(PropertyId id) {
    if (id >= engines_.size() || engines_[id] == nullptr) return std::nullopt;
    std::vector<Violation> drained = engines_[id]->TakeViolations();
    dispatch_.Unregister(engines_[id].get());
    engines_[id].reset();
    return drained;
  }

  bool attached(PropertyId id) const {
    return id < engines_.size() && engines_[id] != nullptr;
  }

  /// Live (attached) engines; size() keeps counting slots.
  std::size_t attached_count() const {
    std::size_t n = 0;
    for (const auto& e : engines_)
      if (e) ++n;
    return n;
  }

  /// Moves every live engine's accumulated violations out (concatenated in
  /// attach order) and leaves the engines empty — the bounded-memory mode a
  /// resident daemon needs: violation storage is handed to the caller
  /// instead of growing inside the set for the process lifetime.
  std::vector<Violation> DrainViolations() {
    std::vector<Violation> out;
    for (auto& e : engines_) {
      if (!e) continue;
      std::vector<Violation> v = e->TakeViolations();
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }

  /// Registers a snapshot-time collector with `registry` (so
  /// registry->TakeSnapshot() includes this set's counters) and arms the
  /// sampled dispatch-latency histogram `monitor.set.dispatch_latency_ns`.
  /// Pass nullptr to detach. The set deregisters itself on destruction;
  /// destroy the set before the registry.
  void AttachTelemetry(telemetry::MetricsRegistry* registry) {
    DetachTelemetry();
    registry_ = registry;
    if (registry_ == nullptr) return;
    latency_hist_ = &registry_->histogram("monitor.set.dispatch_latency_ns");
    collector_token_ = registry_->AddCollector(
        [this](telemetry::Snapshot& snap) { CollectInto(snap); });
  }

  void DetachTelemetry() {
    if (registry_ != nullptr) registry_->RemoveCollector(collector_token_);
    registry_ = nullptr;
    latency_hist_ = nullptr;
    collector_token_ = 0;
  }

  void OnDataplaneEvent(const DataplaneEvent& event) override {
    DeliverEvent<telemetry::kCompiledIn>(event);
  }

  /// The dispatch hot path. The kInstrumented=false specialization is the
  /// compile-time no-op telemetry path (identical to the pre-telemetry
  /// code); kInstrumented=true additionally samples every
  /// (kLatencySamplePeriod)-th delivery into the dispatch-latency
  /// histogram when a registry is attached.
  template <bool kInstrumented>
  void DeliverEvent(const DataplaneEvent& event) {
    if constexpr (kInstrumented) {
      if (latency_hist_ != nullptr &&
          (delivery_seq_++ % kLatencySamplePeriod) == 0) {
        const std::uint64_t t0 = telemetry::NowNanos();
        dispatch_.Deliver(event, events_dispatched_, events_filtered_);
        latency_hist_->Record(telemetry::NowNanos() - t0);
        return;
      }
    }
    dispatch_.Deliver(event, events_dispatched_, events_filtered_);
  }

  /// Span delivery: exactly OnDataplaneEvent on each element, in order.
  void OnDataplaneEvents(const DataplaneEvent* events, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      DeliverEvent<telemetry::kCompiledIn>(events[i]);
  }

  void AdvanceTime(SimTime now) {
    for (auto& e : engines_)
      if (e) e->AdvanceTime(now);
  }

  /// Slot count (including detached slots — ids are never reused).
  std::size_t size() const { return engines_.size(); }
  PropertyMonitor& engine(std::size_t i) { return *engines_[i]; }
  const std::string& engine_name(std::size_t i) const {
    return engine_names_[i];
  }

  /// Publishes set-level counters (`monitor.set.events_dispatched`,
  /// `monitor.set.events_filtered`) plus every engine's counters
  /// (`monitor.engine.<name>.*`). ParallelMonitorSet emits the same names
  /// from its merged worker shards — the parity test compares the two
  /// snapshots for equality.
  void CollectInto(telemetry::Snapshot& snap) const {
    snap.SetCounter("monitor.set.events_dispatched", events_dispatched_);
    snap.SetCounter("monitor.set.events_filtered", events_filtered_);
    for (std::size_t i = 0; i < engines_.size(); ++i)
      if (engines_[i]) engines_[i]->CollectInto(snap, engine_names_[i]);
  }

  telemetry::Snapshot TelemetrySnapshot() const {
    telemetry::Snapshot snap;
    CollectInto(snap);
    return snap;
  }

  /// Live engines' accumulated (undrained) violations, in attach order.
  /// Violations of since-detached properties are not included — they were
  /// handed to the DetachProperty caller.
  std::vector<Violation> AllViolations() const {
    std::vector<Violation> out;
    for (const auto& e : engines_) {
      if (!e) continue;
      const auto& v = e->violations();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  std::size_t TotalViolations() const {
    std::size_t n = 0;
    for (const auto& e : engines_)
      if (e) n += e->violations().size();
    return n;
  }

 private:
  /// Sampling period for the dispatch-latency histogram: two steady_clock
  /// reads per sampled delivery, amortized to ~1/16th of events so the
  /// instrumented path stays within the <3% overhead budget.
  static constexpr std::uint64_t kLatencySamplePeriod = 16;

  std::vector<std::unique_ptr<PropertyMonitor>> engines_;
  std::vector<std::string> engine_names_;
  DispatchTable dispatch_;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t events_filtered_ = 0;
  std::uint64_t delivery_seq_ = 0;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Histogram* latency_hist_ = nullptr;
  std::uint64_t collector_token_ = 0;
};

}  // namespace swmon
