// Robustness ("never crash, never lie") sweeps: random and mutated inputs
// through the packet parser, the SPL parser, and the monitor engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "packet/builder.hpp"
#include "packet/parser.hpp"
#include "properties/catalog.hpp"
#include "spl/spl.hpp"
#include "telemetry_helpers.hpp"

namespace swmon {
namespace {

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBytesNeverCrashTheParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.NextBelow(400);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
    const ParsedPacket parsed =
        ParsePacket(std::span(bytes), ParseDepth::kL7);
    // Invariants even on garbage: field presence implies layer presence.
    if (parsed.fields.Has(FieldId::kL4SrcPort))
      EXPECT_TRUE(parsed.tcp || parsed.udp);
    if (parsed.fields.Has(FieldId::kIpSrc)) EXPECT_TRUE(parsed.ipv4);
    if (parsed.fields.Has(FieldId::kDhcpMsgType)) EXPECT_TRUE(parsed.dhcp);
    if (!parsed.valid) EXPECT_LT(len, EthernetHeader::kSize);
  }
}

TEST_P(PacketFuzz, TruncatedRealPacketsNeverCrash) {
  Rng rng(GetParam());
  DhcpMessage msg;
  msg.msg_type = DhcpMsgType::kAck;
  msg.yiaddr = Ipv4Addr(10, 0, 0, 9);
  msg.lease_secs = 60;
  const Packet originals[] = {
      BuildTcp(MacAddr(0x02, 0, 0, 0, 0, 1), MacAddr(0x02, 0, 0, 0, 0, 2),
               Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2, kTcpSyn),
      BuildArpRequest(MacAddr(0x02, 0, 0, 0, 0, 1), Ipv4Addr(10, 0, 0, 1),
                      Ipv4Addr(10, 0, 0, 2)),
      BuildDhcp(MacAddr(0x02, 0, 0, 0, 0, 1), MacAddr::Broadcast(),
                Ipv4Addr(10, 0, 0, 3), Ipv4Addr(10, 0, 0, 9), false, msg),
      BuildFtpControlLine(MacAddr(0x02, 0, 0, 0, 0, 1),
                          MacAddr(0x02, 0, 0, 0, 0, 2), Ipv4Addr(10, 0, 0, 1),
                          Ipv4Addr(10, 0, 0, 2), 40000, 21,
                          FormatFtpPort(Ipv4Addr(10, 0, 0, 1), 5000)),
  };
  for (const Packet& original : originals) {
    for (std::size_t cut = 0; cut <= original.size(); ++cut) {
      Packet truncated = original;
      truncated.data.resize(cut);
      ParsePacket(truncated, ParseDepth::kL7);  // must not crash
    }
    // Random single-byte corruptions.
    for (int i = 0; i < 200; ++i) {
      Packet mutated = original;
      mutated.data[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      ParsePacket(mutated, ParseDepth::kL7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3, 4));

class SplFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplFuzz, TokenSoupAlwaysYieldsErrorOrValidProperty) {
  Rng rng(GetParam());
  const char* words[] = {"property", "stage",  "timeout", "match", "bind",
                         "on",       "arrival", "egress",  "{",     "}",
                         ";",        "==",      "!=",      "$",     "(",
                         ")",        ",",       "ip_src",  "x",     "7",
                         "0x1f",     "\"s\"",   "window",  "1s",    "vars",
                         "unless",   "forbid",  "suppress", "key",  "hash",
                         "%",        "+",       "/",        "mode", "exact"};
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const std::size_t n = 1 + rng.NextBelow(40);
    for (std::size_t w = 0; w < n; ++w) {
      text += words[rng.NextBelow(std::size(words))];
      text += " ";
    }
    const SplParseResult result = ParseSpl(text);  // must not crash
    if (result.ok()) {
      EXPECT_TRUE(result.property->Validate().empty());
    } else {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST_P(SplFuzz, MutatedCatalogTextNeverCrashes) {
  Rng rng(GetParam());
  for (const auto& entry : BuildCatalog()) {
    const std::string good = SerializeSpl(entry.property);
    for (int i = 0; i < 30; ++i) {
      std::string bad = good;
      // Random deletion, duplication, or byte flip.
      const std::size_t pos = rng.NextBelow(bad.size());
      switch (rng.NextBelow(3)) {
        case 0: bad.erase(pos, 1 + rng.NextBelow(5)); break;
        case 1: bad.insert(pos, bad.substr(pos, 1 + rng.NextBelow(5))); break;
        default: bad[pos] = static_cast<char>(32 + rng.NextBelow(95)); break;
      }
      const SplParseResult result = ParseSpl(bad);
      if (result.ok()) EXPECT_TRUE(result.property->Validate().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplFuzz, ::testing::Values(10, 20, 30));

TEST(EngineFuzz, RandomEventSoupNeverCrashesAnyCatalogProperty) {
  Rng rng(99);
  // Pre-generate a shared random event stream with plausible field mixes.
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 3000; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Micros(static_cast<std::int64_t>(rng.NextBelow(200000)));
    ev.time = t;
    const auto roll = rng.NextBelow(10);
    ev.type = roll < 4   ? DataplaneEventType::kArrival
              : roll < 8 ? DataplaneEventType::kEgress
                         : DataplaneEventType::kLinkStatus;
    // Sprinkle random fields (including nonsense combinations).
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.35))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(16));
    }
    events.push_back(std::move(ev));
  }
  for (const auto& entry : BuildCatalog()) {
    MonitorConfig mc;
    // Exercise eviction under the soup.
    mc.eviction = EvictionConfig{}.WithMaxInstances(512);
    MonitorEngine engine(entry.property, mc);
    for (const auto& ev : events) engine.ProcessEvent(ev);
    engine.AdvanceTime(t + Duration::Seconds(300));
    // Sanity: stats are internally consistent.
    telemetry::Snapshot snap;
    engine.CollectInto(snap, "t");
    EXPECT_EQ(snap.counter("monitor.engine.t.events"), events.size());
    EXPECT_LE(engine.live_instances(), 512u);
    EXPECT_LE(snap.counter("monitor.engine.t.violations"),
              snap.counter("monitor.engine.t.instances_created"));
  }
}

/// Everything CollectInto publishes outside the compiled engine's probe
/// telemetry (which the interpreter has no counterpart for), minus `skip`.
std::map<std::string, telemetry::Sample> SharedSamples(
    const PropertyMonitor& m, const std::set<std::string>& skip = {}) {
  telemetry::Snapshot snap;
  m.CollectInto(snap, "e");
  std::map<std::string, telemetry::Sample> out;
  for (const auto& [name, sample] : snap.samples()) {
    if (name.rfind("monitor.compiled.", 0) == 0) continue;
    if (skip.contains(name.substr(name.rfind('.') + 1))) continue;
    out.emplace(name, sample);
  }
  return out;
}

void ExpectSameViolations(std::vector<Violation> a, std::vector<Violation> b,
                          bool sort_within_time, const std::string& label) {
  // Instances completing on the same event report in candidate order,
  // which is store layout; (time, id) is the layout-free order.
  if (sort_within_time) {
    const auto by_time_id = [](const Violation& x, const Violation& y) {
      return std::tie(x.time, x.instance_id) < std::tie(y.time, y.instance_id);
    };
    std::sort(a.begin(), a.end(), by_time_id);
    std::sort(b.begin(), b.end(), by_time_id);
  }
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << label << " [" << i << "]";
    EXPECT_EQ(a[i].instance_id, b[i].instance_id) << label << " [" << i << "]";
    EXPECT_EQ(a[i].trigger_stage_index, b[i].trigger_stage_index)
        << label << " [" << i << "]";
    EXPECT_EQ(a[i].bindings, b[i].bindings) << label << " [" << i << "]";
  }
}

TEST(EngineFuzz, IndexedAndLinearAgreeOnTheSoup) {
  // Three parties per property and seed: the interpreter with its keyed
  // stores, the interpreter scanning every stage (force_linear_store), and
  // the compiled engine. Indexing may change only how many instances the
  // passes visit; the compiled engine must match the indexed interpreter
  // exactly, visits included.
  std::size_t total_violations = 0;
  for (const std::uint64_t seed : {123ull, 456ull, 789ull}) {
    Rng rng(seed);
    std::vector<DataplaneEvent> events;
    SimTime t = SimTime::Zero();
    for (int i = 0; i < 1500; ++i) {
      DataplaneEvent ev;
      t = t +
          Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(50)));
      ev.time = t;
      const auto roll = rng.NextBelow(10);
      ev.type = roll < 4   ? DataplaneEventType::kArrival
                : roll < 9 ? DataplaneEventType::kEgress
                           : DataplaneEventType::kLinkStatus;
      for (std::size_t f = 0; f < kNumFieldIds; ++f) {
        if (rng.NextBool(0.5))
          ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(6));
      }
      events.push_back(std::move(ev));
    }
    const SimTime end = t + Duration::Seconds(300);
    for (const auto& entry : BuildCatalog()) {
      const std::string label =
          entry.property.name + " seed=" + std::to_string(seed);
      MonitorConfig linear;
      linear.force_linear_store = true;
      MonitorEngine indexed(entry.property);
      MonitorEngine scan(entry.property, linear);
      auto compiled = CreatePropertyMonitor(
          entry.property, MonitorConfig{}.WithEngine(EngineKind::kCompiled));
      ASSERT_NE(dynamic_cast<CompiledEngine*>(compiled.get()), nullptr);
      for (const auto& ev : events) {
        indexed.ProcessEvent(ev);
        scan.ProcessEvent(ev);
        compiled->ProcessEvent(ev);
      }
      indexed.AdvanceTime(end);
      scan.AdvanceTime(end);
      compiled->AdvanceTime(end);

      ExpectSameViolations(indexed.violations(), scan.violations(),
                           /*sort_within_time=*/true, label + " linear");
      ExpectSameViolations(indexed.violations(), compiled->violations(),
                           /*sort_within_time=*/false, label + " compiled");
      const std::set<std::string> visits = {"candidate_checks", "abort_checks"};
      EXPECT_EQ(SharedSamples(indexed, visits), SharedSamples(scan, visits))
          << label;
      EXPECT_EQ(SharedSamples(indexed), SharedSamples(*compiled)) << label;
      total_violations += indexed.violations().size();
    }
  }
  EXPECT_GT(total_violations, 0u);
}

}  // namespace
}  // namespace swmon
