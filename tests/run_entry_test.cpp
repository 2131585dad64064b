// Differential harness for the one run entry point,
// PropertyMonitor::ProcessRun: an engine driven through it with per-event
// ops must be observationally bit-identical to per-event delivery — same
// violations (instance ids, binding order), same counters for everything
// CollectInto publishes, including the lazily-maintained timer counters
// when AdvanceTime quiesce points fall between runs. Covers the base
// class's loop (the interpreter) and CompiledEngine's native override, and
// the parallel workers that drive every engine through it: the sharded
// grid across 1/2/4/8 workers in both shard modes, plus hot attach/detach
// on a running pool.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "properties/catalog.hpp"

namespace swmon {
namespace {

/// The EngineFuzz event soup (fuzz_test.cpp): random types, random field
/// sprinkles in a small value range so stages actually chain and violate.
std::vector<DataplaneEvent> FuzzSeedStream(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < count; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(50)));
    ev.time = t;
    const auto roll = rng.NextBelow(10);
    ev.type = roll < 4   ? DataplaneEventType::kArrival
              : roll < 8 ? DataplaneEventType::kEgress
                         : DataplaneEventType::kLinkStatus;
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.35))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(8));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

void ExpectViolationEq(const Violation& a, const Violation& b,
                       const std::string& label) {
  EXPECT_EQ(a.property, b.property) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.instance_id, b.instance_id) << label;
  EXPECT_EQ(a.trigger_stage, b.trigger_stage) << label;
  EXPECT_EQ(a.bindings, b.bindings) << label;
  EXPECT_EQ(a.history.size(), b.history.size()) << label;
}

void ExpectViolationsEq(const std::vector<Violation>& a,
                        const std::vector<Violation>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ExpectViolationEq(a[i], b[i], label + " [" + std::to_string(i) + "]");
}

TEST(MonitorSetSpanTest, SpanDeliveryMatchesPerEventDelivery) {
  // OnDataplaneEvents (the span entry e2e_bench's isolation pass feeds) is
  // exactly OnDataplaneEvent per element; an odd span split must not show.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(29, 1100);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  MonitorSet scalar;
  for (const Property& p : props) scalar.Add(p, cfg);
  MonitorSet span;
  for (const Property& p : props) span.Add(p, cfg);

  for (const DataplaneEvent& ev : events) scalar.OnDataplaneEvent(ev);
  for (std::size_t base = 0; base < events.size(); base += 171)
    span.OnDataplaneEvents(&events[base],
                           std::min<std::size_t>(171, events.size() - base));

  const SimTime end = events.back().time + Duration::Seconds(300);
  scalar.AdvanceTime(end);
  span.AdvanceTime(end);

  ExpectViolationsEq(scalar.AllViolations(), span.AllViolations(), "span");
  EXPECT_GT(scalar.TotalViolations(), 0u) << "vacuous stream";
  EXPECT_TRUE(scalar.TelemetrySnapshot() == span.TelemetrySnapshot());
}

// ------------------------------------------------- engine-direct parity

/// Everything in `a` must exist in `b` with a bit-identical value, and `b`
/// may add only names under `extra_prefix` (empty = nothing).
void ExpectSnapshotsAgree(const telemetry::Snapshot& a,
                          const telemetry::Snapshot& b,
                          const std::string& extra_prefix,
                          const std::string& label) {
  for (const auto& [name, sample] : a.samples()) {
    ASSERT_TRUE(b.Has(name)) << label << " missing " << name;
    EXPECT_TRUE(sample == b.samples().at(name)) << label << " at " << name;
  }
  std::size_t extra = 0;
  for (const auto& [name, sample] : b.samples())
    if (!extra_prefix.empty() && name.rfind(extra_prefix, 0) == 0) ++extra;
  EXPECT_EQ(a.size() + extra, b.size()) << label;
}

/// Chunked ProcessRun against the interpreter's scalar loop, with
/// AdvanceTime quiesce points between chunks. The ops come from the
/// interest signature — {~0, count, not filtered} for an interested event,
/// {0, no count, filtered} otherwise — exactly as the parallel workers
/// build them for property-sharded engines. Both the base class's loop
/// (interpreter) and CompiledEngine's native override run. The chunk size
/// is coprime to the quiesce cadence, so runs repeatedly straddle timer
/// activity — the lazily-maintained timer counters (timer_stale_pops and
/// friends) must still land on identical values in every snapshot
/// (timer_set.cpp counts compaction-discarded stale entries exactly like
/// lazy pops, making the counter a pure function of the arm/cancel
/// history).
TEST(ProcessRunDifferentialTest, ChunkedRunsMatchScalarInterpreter) {
  for (const CatalogEntry& e : BuildCatalog()) {
    for (const std::uint64_t seed : {5ull, 23ull}) {
      const auto events = FuzzSeedStream(seed, 1000);
      const std::string label = std::string(e.id) + " seed=" +
                                std::to_string(seed);
      MonitorConfig cfg;
      cfg.engine = EngineKind::kInterpreted;
      auto scalar = CreatePropertyMonitor(e.property, cfg);
      auto interp = CreatePropertyMonitor(e.property, cfg);
      cfg.engine = EngineKind::kCompiled;
      auto comp = CreatePropertyMonitor(e.property, cfg);
      ASSERT_NE(dynamic_cast<CompiledEngine*>(comp.get()), nullptr) << label;

      constexpr std::size_t kChunk = 64;
      const EventTypeMask sig = scalar->interest_signature();
      std::vector<RunOp> ops(kChunk);
      std::vector<RunMarks> marks(kChunk);
      for (std::size_t base = 0; base < events.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, events.size() - base);
        for (std::size_t i = 0; i < n; ++i) {
          const DataplaneEvent& ev = events[base + i];
          // The scalar loop the run entry point promises to equal.
          if (sig >> static_cast<std::size_t>(ev.type) & 1) {
            scalar->ProcessDispatchedEvent(ev);
            ops[i] = RunOp{~std::uint64_t{0}, true, false};
          } else {
            scalar->NoteFilteredEvent(ev.time);
            ops[i] = RunOp{0, false, true};
          }
        }
        for (PropertyMonitor* run : {interp.get(), comp.get()}) {
          run->ProcessRun(&events[base], n, ops.data(), marks.data());
          // The per-event marks must match the engine's own state at the
          // chunk boundary, and the clock mark never runs ahead.
          EXPECT_EQ(marks[n - 1].violations_after, run->violations().size())
              << label;
          EXPECT_EQ(marks[n - 1].created_after, run->created_count())
              << label;
          EXPECT_EQ(marks[n - 1].live_after, run->live_instances())
              << label;
          for (std::size_t i = 0; i < n; ++i)
            EXPECT_LE(marks[i].violations_clock,
                      marks[i].violations_after)
                << label;
        }
        // Quiesce between chunks: every clock advances past the boundary.
        const SimTime horizon =
            events[base + n - 1].time + Duration::Millis(40);
        scalar->AdvanceTime(horizon);
        interp->AdvanceTime(horizon);
        comp->AdvanceTime(horizon);
      }
      const SimTime end = events.back().time + Duration::Seconds(300);
      scalar->AdvanceTime(end);
      interp->AdvanceTime(end);
      comp->AdvanceTime(end);

      ExpectViolationsEq(scalar->violations(), interp->violations(),
                         label + " interpreted run");
      ExpectViolationsEq(scalar->violations(), comp->violations(),
                         label + " compiled run");
      // Full snapshot parity, timer counters included; the compiled
      // engine's extra monitor.compiled.* probe telemetry is the only
      // allowed addition.
      telemetry::Snapshot sa, sb, sc;
      scalar->CollectInto(sa, "e");
      interp->CollectInto(sb, "e");
      comp->CollectInto(sc, "e");
      ExpectSnapshotsAgree(sa, sb, "", label + " interpreted run");
      ExpectSnapshotsAgree(sa, sc, "monitor.compiled.", label + " compiled run");
    }
  }
}

// ------------------------------------------------ sharded worker parity

struct ShardedCase {
  std::size_t workers;
  ShardMode mode;
};

class ShardedBatchParity : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardedBatchParity, WorkersDrainingBatchesMatchSerial) {
  const auto [workers, mode] = GetParam();
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(99, 1500);
  const SimTime end = events.back().time + Duration::Seconds(300);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  MonitorSet serial;
  for (const Property& p : props) serial.Add(p, cfg);
  for (const DataplaneEvent& ev : events) serial.OnDataplaneEvent(ev);
  serial.AdvanceTime(end);

  ParallelConfig pcfg;
  pcfg.workers = workers;
  pcfg.batch_capacity = 128;
  pcfg.shard_mode = mode;
  ParallelMonitorSet parallel(pcfg);
  for (const Property& p : props) parallel.Add(p, cfg);
  parallel.Start();
  for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
  parallel.AdvanceTime(end);
  parallel.Stop();

  const std::string label =
      "workers=" + std::to_string(workers) +
      (mode == ShardMode::kInstance ? " instance" : " property");
  ExpectViolationsEq(serial.AllViolations(), parallel.AllViolations(), label);
  EXPECT_GT(serial.TotalViolations(), 0u) << label << " (vacuous)";
  // Property-sharded engines run the whole stream through their interest
  // ops, so every serial counter (set-level dispatch totals included) must
  // come back unchanged; the parallel set adds only its runtime metrics.
  if (mode == ShardMode::kProperty)
    ExpectSnapshotsAgree(serial.TelemetrySnapshot(),
                         parallel.TelemetrySnapshot(), "monitor.parallel.",
                         label);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardedBatchParity,
    ::testing::Values(ShardedCase{1, ShardMode::kProperty},
                      ShardedCase{2, ShardMode::kProperty},
                      ShardedCase{4, ShardMode::kProperty},
                      ShardedCase{8, ShardMode::kProperty},
                      ShardedCase{1, ShardMode::kInstance},
                      ShardedCase{2, ShardMode::kInstance},
                      ShardedCase{4, ShardMode::kInstance},
                      ShardedCase{8, ShardMode::kInstance}));

TEST(ShardedBatchLifecycleTest, HotAttachDetachOnRunningPool) {
  // Hot lifecycle on a running pool: the quiesce-point attach/detach
  // reshapes every worker's engine list (and, instance-sharded, its
  // replicas), and the stream around the ops must still merge to the
  // serial order — including the detached property's markers, which
  // resolve through the retired violation lists.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(3, 1200);
  const SimTime end = events.back().time + Duration::Seconds(300);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  for (const ShardMode mode : {ShardMode::kProperty, ShardMode::kInstance}) {
    const auto run = [&](auto& set, auto deliver) {
      std::vector<Violation> detached;
      std::vector<PropertyId> ids;
      for (std::size_t i = 0; i < 6; ++i)
        ids.push_back(set.AttachProperty(props[i], cfg));
      for (std::size_t i = 0; i < events.size(); ++i) {
        deliver(events[i]);
        if (i == 399) {
          for (std::size_t k = 6; k < props.size(); ++k)
            ids.push_back(set.AttachProperty(props[k], cfg));
        }
        if (i == 799) {
          auto d = set.DetachProperty(ids[1]);
          EXPECT_TRUE(d.has_value());
          if (d) detached = std::move(*d);
        }
      }
      set.AdvanceTime(end);
      return detached;
    };

    MonitorSet serial;
    const auto serial_detached = run(
        serial, [&](const DataplaneEvent& ev) { serial.OnDataplaneEvent(ev); });

    ParallelConfig pcfg;
    pcfg.workers = 4;
    pcfg.batch_capacity = 64;
    pcfg.shard_mode = mode;
    ParallelMonitorSet parallel(pcfg);
    parallel.Start();
    const auto parallel_detached = run(
        parallel,
        [&](const DataplaneEvent& ev) { parallel.OnDataplaneEvent(ev); });
    parallel.Stop();

    const std::string label =
        mode == ShardMode::kInstance ? "instance" : "property";
    ExpectViolationsEq(serial_detached, parallel_detached,
                       label + " detached");
    EXPECT_FALSE(serial_detached.empty()) << label << " (vacuous detach)";
    ExpectViolationsEq(serial.AllViolations(), parallel.AllViolations(),
                       label);
    // The detached property's violations stay in the merged stream (its
    // markers resolve through the retired lists) until the drain.
    const std::size_t total = serial.TotalViolations() + serial_detached.size();
    EXPECT_EQ(parallel.MergedViolations().size(), total) << label;
    EXPECT_EQ(parallel.DrainViolations().size(), total) << label;
    EXPECT_TRUE(parallel.MergedViolations().empty()) << label;
  }
}

}  // namespace
}  // namespace swmon
