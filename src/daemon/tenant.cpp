#include "daemon/tenant.hpp"

#include "spl/spl.hpp"

namespace swmon {

Tenant::Tenant(std::string name, TenantOptions options)
    : name_(std::move(name)),
      options_(options),
      ring_(options.violation_capacity) {
  if (options_.workers > 1) {
    ParallelConfig config;
    config.workers = options_.workers;
    config.shard_mode = options_.shard_mode;
    parallel_ = std::make_unique<ParallelMonitorSet>(config);
    // Start the (empty) pool now: every subsequent attach is a hot attach
    // at the quiesce point, the same path the control API exercises.
    parallel_->Start();
  } else {
    serial_ = std::make_unique<MonitorSet>();
  }
}

Tenant::~Tenant() {
  if (parallel_) parallel_->Stop();
}

std::optional<PropertyId> Tenant::AttachSpl(const std::string& spl_text,
                                            std::string* error) {
  const SplParseResult parsed = ParseSpl(spl_text);
  if (!parsed.ok()) {
    if (error) *error = parsed.error;
    return std::nullopt;
  }
  return Attach(*parsed.property);
}

PropertyId Tenant::Attach(Property property) {
  if (parallel_)
    return parallel_->AttachProperty(std::move(property), options_.monitor);
  return serial_->AttachProperty(std::move(property), options_.monitor);
}

bool Tenant::Detach(PropertyId id) {
  std::optional<std::vector<Violation>> drained =
      parallel_ ? parallel_->DetachProperty(id) : serial_->DetachProperty(id);
  if (!drained) return false;
  ring_.PushAll(std::move(*drained));
  return true;
}

bool Tenant::attached(PropertyId id) const {
  return parallel_ ? parallel_->attached(id) : serial_->attached(id);
}

std::vector<TenantProperty> Tenant::Properties() const {
  std::vector<TenantProperty> out;
  const std::size_t n = parallel_ ? parallel_->size() : serial_->size();
  for (PropertyId id = 0; id < n; ++id) {
    if (!attached(id)) continue;
    out.push_back({id, parallel_ ? parallel_->engine_name(id)
                                 : serial_->engine_name(id)});
  }
  return out;
}

std::size_t Tenant::attached_count() const {
  return parallel_ ? parallel_->attached_count() : serial_->attached_count();
}

void Tenant::Deliver(const DataplaneEvent& event) {
  if (parallel_) {
    parallel_->OnDataplaneEvent(event);
  } else {
    serial_->OnDataplaneEvent(event);
  }
}

void Tenant::Flush() {
  if (parallel_) parallel_->Flush();
}

void Tenant::AdvanceTime(SimTime now) {
  if (parallel_) {
    parallel_->AdvanceTime(now);
  } else {
    serial_->AdvanceTime(now);
  }
}

void Tenant::DrainEngines() {
  ring_.PushAll(parallel_ ? parallel_->DrainViolations()
                          : serial_->DrainViolations());
}

void Tenant::CollectInto(telemetry::Snapshot& snap) {
  const std::string prefix = "daemon.tenant." + name_ + ".";
  snap.SetCounter(prefix + "violations_total", ring_.total());
  snap.SetCounter(prefix + "violations_dropped", ring_.dropped());
  snap.SetCounter(prefix + "violations_drained", ring_.drained());
  snap.SetGauge(prefix + "violations_buffered",
                static_cast<std::int64_t>(ring_.size()));
  snap.SetGauge(prefix + "properties_attached",
                static_cast<std::int64_t>(attached_count()));

  telemetry::Snapshot inner;
  if (parallel_) {
    parallel_->CollectInto(inner);
  } else {
    serial_->CollectInto(inner);
  }
  for (const auto& [name, sample] : inner.samples()) {
    switch (sample.kind) {
      case telemetry::Sample::Kind::kCounter:
        snap.SetCounter(prefix + name, sample.counter);
        break;
      case telemetry::Sample::Kind::kGauge:
        snap.SetGauge(prefix + name, sample.gauge);
        break;
      case telemetry::Sample::Kind::kHistogram:
        snap.SetHistogram(prefix + name, sample.histogram);
        break;
    }
  }
}

}  // namespace swmon
