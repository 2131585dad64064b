// Abort-pass indexing: a pinned table of which catalog aborts probe their
// stage's keyed store instead of walking it, and a deterministic guard that
// the abort pass stays O(1) per event at live-instance plateaus — on
// ftp-data-port's 48x48 key space, dhcp-reply-deadline's open requests,
// and the Sec-2 firewall and learning-switch properties — identically in
// both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "monitor/compiled/engine.hpp"
#include "monitor/property_monitor.hpp"
#include "packet/dhcp.hpp"
#include "packet/ftp.hpp"
#include "packet/headers.hpp"
#include "properties/catalog.hpp"

namespace swmon {
namespace {

/// "k:" per stage with aborts, then I (probes the keyed store) or W (walks
/// the stage) per abort, e.g. "1:IW".
std::string IndexShape(const Property& p) {
  std::string out;
  for (std::size_t k = 1; k < p.num_stages(); ++k) {
    if (p.stages[k].aborts.empty()) continue;
    if (!out.empty()) out += ' ';
    out += std::to_string(k) + ':';
    for (const auto& probe : PlanStageIndex(p, k).abort_probes)
      out += probe.empty() ? 'W' : 'I';
  }
  return out;
}

TEST(AbortIndexPlanTest, CatalogAbortsIndexedAsPinned) {
  // The link-down aborts of the learning-switch properties discharge every
  // learned address at once (a genuine multiple match), and
  // arp-unknown-forwarded's two aborts pin disjoint variables (pid, A), so
  // its timeout stage has no link key: those walk. Everything else probes.
  const std::map<std::string, std::string> want = {
      {"fw-return-not-dropped-until-close", "1:II"},
      {"arp-proxy-reply-deadline", "2:I"},
      {"lsw-no-flood-after-learn", "1:IW"},
      {"lsw-correct-port", "1:IW"},
      {"lsw-linkdown-flush", "2:I"},
      {"arp-unknown-forwarded", "1:WW"},
      {"knock-invalidation", "2:I 3:I 4:I"},
      {"knock-recognize", "1:I 2:I"},
      {"lb-hashed-port", "1:I"},
      {"lb-round-robin-port", "1:I"},
      {"lb-sticky-port", "1:I"},
      {"ftp-data-port", "1:I"},
      {"dhcp-reply-deadline", "1:II"},
      {"dhcp-no-lease-reuse", "1:I"},
      {"dhcparp-cache-preload", "2:I"},
  };
  std::map<std::string, std::string> got;
  for (const CatalogEntry& e : BuildCatalog()) {
    const std::string shape = IndexShape(e.property);
    if (!shape.empty()) got[e.property.name] = shape;
  }
  EXPECT_EQ(got, want);
}

TEST(AbortIndexPlanTest, ProbesProjectTheLinkKeyInLinkOrder) {
  // ftp-data-port links (S via ip_src, C via ip_dst); its abort pins C via
  // ip_src and S via ip_dst, so it probes (ip_dst, ip_src).
  const Property ftp = FtpDataPortMatchesControl();
  const StageIndexPlan plan = PlanStageIndex(ftp, 1);
  ASSERT_EQ(plan.link.size(), 2u);
  EXPECT_EQ(ftp.vars[plan.link[0].second], "S");
  EXPECT_EQ(ftp.vars[plan.link[1].second], "C");
  ASSERT_EQ(plan.abort_probes.size(), 1u);
  EXPECT_EQ(plan.abort_probes[0],
            (std::vector<FieldId>{FieldId::kIpDst, FieldId::kIpSrc}));

  // A timeout stage is keyed on the variables every abort pins.
  const Property dhcp = DhcpReplyDeadline();
  const StageIndexPlan timeout = PlanStageIndex(dhcp, 1);
  ASSERT_EQ(timeout.link.size(), 2u);
  EXPECT_EQ(dhcp.vars[timeout.link[0].second], "M");
  EXPECT_EQ(dhcp.vars[timeout.link[1].second], "xid");
  for (const auto& probe : timeout.abort_probes)
    EXPECT_EQ(probe,
              (std::vector<FieldId>{FieldId::kDhcpChaddr, FieldId::kDhcpXid}));

  EXPECT_TRUE(PlanStageIndex(ArpUnknownForwarded(), 1).link.empty());
}

// ------------------------------------------------------- plateau streams

class StreamBuilder {
 public:
  /// Appends one event, 100 us after the previous one.
  void Add(DataplaneEventType type,
           std::initializer_list<std::pair<FieldId, std::uint64_t>> kv) {
    DataplaneEvent ev;
    ev.type = type;
    ev.time = SimTime::Zero() + Duration::Micros(100 * ++ticks_);
    for (const auto& [f, v] : kv) ev.fields.Set(f, v);
    events_.push_back(std::move(ev));
  }
  std::vector<DataplaneEvent> Take() { return std::move(events_); }

 private:
  std::int64_t ticks_ = 0;
  std::vector<DataplaneEvent> events_;
};

constexpr auto kArrival = DataplaneEventType::kArrival;
constexpr auto kEgress = DataplaneEventType::kEgress;

std::uint64_t Action(EgressActionValue a) {
  return static_cast<std::uint64_t>(a);
}

/// 48 clients x 48 servers re-announcing data ports: every PORT after the
/// first supersedes (aborts) the pair's live instance, with occasional
/// data connections to the wrong port and non-PORT control traffic.
std::vector<DataplaneEvent> FtpPlateauStream() {
  StreamBuilder s;
  const auto port = static_cast<std::uint64_t>(FtpMsgKind::kPortCommand);
  const auto other = static_cast<std::uint64_t>(FtpMsgKind::kOther);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t c = 0; c < 48; ++c) {
      for (std::uint64_t sv = 0; sv < 48; ++sv) {
        s.Add(kArrival, {{FieldId::kFtpMsgKind, port},
                         {FieldId::kIpSrc, 100 + c},
                         {FieldId::kIpDst, 200 + sv},
                         {FieldId::kFtpDataPort, 5000 + round}});
        s.Add(kArrival, {{FieldId::kFtpMsgKind, other},
                         {FieldId::kIpSrc, 100 + c},
                         {FieldId::kIpDst, 200 + sv}});
        if ((c + sv + round) % 7 == 0)
          s.Add(kArrival, {{FieldId::kIpProto, 6},
                           {FieldId::kIpSrc, 200 + sv},
                           {FieldId::kIpDst, 100 + c},
                           {FieldId::kL4SrcPort, 20},
                           {FieldId::kTcpFlags, kTcpSyn},
                           {FieldId::kL4DstPort, 5000 + round + (c + sv) % 2}});
      }
    }
  }
  return s.Take();
}

/// 2000 REQUESTs all open at once (deadline 2 s, stream 0.6 s), then ACKs
/// and NAKs for most of them; some replies carry the wrong xid and miss.
std::vector<DataplaneEvent> DhcpOpenRequestStream() {
  StreamBuilder s;
  const auto msg = [](DhcpMsgType t) { return static_cast<std::uint64_t>(t); };
  for (std::uint64_t i = 0; i < 2000; ++i)
    s.Add(kArrival, {{FieldId::kDhcpMsgType, msg(DhcpMsgType::kRequest)},
                     {FieldId::kDhcpChaddr, 1000 + i},
                     {FieldId::kDhcpXid, 7 * i}});
  for (std::uint64_t i = 0; i < 2000; ++i) {
    if (i % 5 == 0) continue;  // left to time out
    const DhcpMsgType reply =
        i % 4 == 0 ? DhcpMsgType::kNak : DhcpMsgType::kAck;
    s.Add(kEgress, {{FieldId::kDhcpMsgType, msg(reply)},
                    {FieldId::kDhcpChaddr, 1000 + i},
                    {FieldId::kDhcpXid, 7 * i + (i % 9 == 0 ? 1 : 0)}});
    s.Add(kEgress, {{FieldId::kDhcpMsgType, msg(DhcpMsgType::kOffer)},
                    {FieldId::kDhcpChaddr, 1000 + i},
                    {FieldId::kDhcpXid, 7 * i}});
  }
  return s.Take();
}

/// 40 inside x 40 outside hosts with open connections, dropped return
/// traffic, and FINs from the outside that discharge obligations.
std::vector<DataplaneEvent> FirewallStream() {
  StreamBuilder s;
  const ScenarioParams p;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t a = 0; a < 40; ++a) {
      for (std::uint64_t b = 0; b < 40; ++b) {
        s.Add(kArrival, {{FieldId::kInPort, ToU64(p.inside_port)},
                         {FieldId::kIpSrc, 10 + a},
                         {FieldId::kIpDst, 500 + b},
                         {FieldId::kTcpFlags, kTcpAck}});
        if ((a * b + round) % 11 == 0)
          s.Add(kEgress,
                {{FieldId::kIpSrc, 500 + b},
                 {FieldId::kIpDst, 10 + a},
                 {FieldId::kEgressAction, Action(EgressActionValue::kDrop)}});
        if ((a + b + round) % 5 == 0)
          s.Add(kArrival, {{FieldId::kInPort, ToU64(p.outside_port)},
                           {FieldId::kIpSrc, 500 + b},
                           {FieldId::kIpDst, 10 + a},
                           {FieldId::kTcpFlags, kTcpFin | kTcpAck}});
      }
    }
  }
  return s.Take();
}

/// 600 hosts learned on fixed ports, unicast and flooded traffic to them,
/// a few port moves (the indexed abort) and one link flap (the walking
/// abort, a genuine multiple match; link-up is rejected by its constant).
std::vector<DataplaneEvent> LearningSwitchStream() {
  StreamBuilder s;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t h = 0; h < 600; ++h) {
      const bool moved = round == 2 && h % 50 == 0;
      s.Add(kArrival, {{FieldId::kEthSrc, 1 + h},
                       {FieldId::kInPort, 1 + h % 8 + (moved ? 1 : 0)},
                       {FieldId::kEthDst, 1 + (7 * h) % 600}});
      const std::uint64_t dst = (7 * h) % 600;
      const EgressActionValue action = h % 13 == 0
                                           ? EgressActionValue::kFlood
                                           : EgressActionValue::kForward;
      const std::uint64_t wrong_port = h % 17 == 0 ? 1 : 0;
      s.Add(kEgress, {{FieldId::kEthDst, 1 + dst},
                      {FieldId::kEgressAction, Action(action)},
                      {FieldId::kOutPort, 1 + dst % 8 + wrong_port}});
      if (round == 1 && h == 300) {
        s.Add(DataplaneEventType::kLinkStatus, {{FieldId::kLinkUp, 0}});
        s.Add(DataplaneEventType::kLinkStatus, {{FieldId::kLinkUp, 1}});
      }
    }
  }
  return s.Take();
}

/// Runs `p` over `events` on both engines, holds them to identical
/// violations and counters, checks the live population really reached
/// `min_peak_live` and that aborts fired, and returns abort checks per
/// event.
double AbortChecksPerEvent(const Property& p,
                           const std::vector<DataplaneEvent>& events,
                           std::int64_t min_peak_live) {
  auto interp = CreatePropertyMonitor(
      p, MonitorConfig{}.WithEngine(EngineKind::kInterpreted));
  auto comp = CreatePropertyMonitor(
      p, MonitorConfig{}.WithEngine(EngineKind::kCompiled));
  EXPECT_NE(dynamic_cast<CompiledEngine*>(comp.get()), nullptr) << p.name;
  for (const DataplaneEvent& ev : events) {
    interp->ProcessEvent(ev);
    comp->ProcessEvent(ev);
  }
  const SimTime end = events.back().time + Duration::Seconds(300);
  interp->AdvanceTime(end);
  comp->AdvanceTime(end);

  const auto& va = interp->violations();
  const auto& vb = comp->violations();
  EXPECT_EQ(va.size(), vb.size()) << p.name;
  for (std::size_t i = 0; i < std::min(va.size(), vb.size()); ++i) {
    EXPECT_EQ(va[i].time, vb[i].time) << p.name << " [" << i << "]";
    EXPECT_EQ(va[i].instance_id, vb[i].instance_id)
        << p.name << " [" << i << "]";
    EXPECT_EQ(va[i].bindings, vb[i].bindings) << p.name << " [" << i << "]";
  }
  EXPECT_GT(va.size(), 0u) << p.name;

  telemetry::Snapshot a, b;
  interp->CollectInto(a, "e");
  comp->CollectInto(b, "e");
  for (const auto& [name, sample] : a.samples()) {
    EXPECT_TRUE(b.Has(name) && sample == b.samples().at(name))
        << p.name << " diverges at " << name;
  }
  EXPECT_GE(a.gauge("monitor.engine.e.peak_live"), min_peak_live) << p.name;
  EXPECT_GT(a.counter("monitor.engine.e.instances_aborted"), 0u) << p.name;
  return static_cast<double>(a.counter("monitor.engine.e.abort_checks")) /
         static_cast<double>(events.size());
}

TEST(AbortIndexTest, FtpDataPortAtItsPlateau) {
  EXPECT_LE(AbortChecksPerEvent(FtpDataPortMatchesControl(), FtpPlateauStream(),
                                2000),
            2.0);
}

TEST(AbortIndexTest, DhcpReplyDeadlineWithOpenRequests) {
  EXPECT_LE(
      AbortChecksPerEvent(DhcpReplyDeadline(), DhcpOpenRequestStream(), 2000),
      2.0);
}

TEST(AbortIndexTest, FirewallObligationWithOpenConnections) {
  EXPECT_LE(AbortChecksPerEvent(FirewallReturnNotDroppedObligation(),
                                FirewallStream(), 1000),
            2.0);
}

TEST(AbortIndexTest, LearningSwitchPropertiesWithLearnedHosts) {
  const auto events = LearningSwitchStream();
  EXPECT_LE(AbortChecksPerEvent(LearningSwitchNoFloodAfterLearn(), events, 500),
            2.0);
  EXPECT_LE(AbortChecksPerEvent(LearningSwitchCorrectPort(), events, 500), 2.0);
}

}  // namespace
}  // namespace swmon
