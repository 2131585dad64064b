#include "workloads.hpp"

#include <cstring>
#include <utility>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "netsim/trace_io.hpp"
#include "packet/ftp.hpp"
#include "packet/headers.hpp"
#include "monitor/property_builder.hpp"
#include "properties/catalog.hpp"

namespace swmon::e2e {
namespace {

// Template sizes: a cycle takes well under the ~100 ms a timed segment
// aims for at the seed's speed on a 4-thread box (segments are whole
// cycles). hot_pairs' cycle also fixes its live population.
constexpr std::size_t kMixCycleEvents = 4'000;
constexpr std::size_t kWebCycleEvents = 100'000;
constexpr std::size_t kHotCycleEvents = 200'000;
constexpr std::uint64_t kHotKeys = 1024;

// The mixed stream's FTP client/server address ranges (48 x 48 pairs).
constexpr std::uint64_t kFtpClients = 48;
constexpr std::uint64_t kFtpServers = 48;

class Encoder {
 public:
  void Add(const DataplaneEvent& ev) {
    offsets_.push_back(static_cast<std::uint32_t>(w_.bytes().size() + 1));
    EncodeTraceEvent(w_, ev);
  }
  std::size_t events() const { return offsets_.size(); }
  std::vector<std::uint8_t> TakeBytes() { return w_.bytes(); }
  std::vector<std::uint32_t> TakeOffsets() { return std::move(offsets_); }

 private:
  ByteWriter w_;
  std::vector<std::uint32_t> offsets_;
};

SimTime At(std::int64_t nanos) { return SimTime::FromNanos(nanos); }

/// bench_parallel's mixed shape: TCP arrivals, egress (some of it dropped
/// return traffic), ARP chatter, DHCP handshakes, FTP control and link
/// flaps, one event per 100us, so ARP/DHCP deadlines lapse mid-stream.
void MixedCycle(Rng& rng, std::int64_t t0, Encoder& enc) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flows;
  for (std::size_t i = 0; i < kMixCycleEvents; ++i) {
    DataplaneEvent ev;
    ev.time = At(t0 + 100'000 * static_cast<std::int64_t>(i));
    const auto roll = rng.NextBelow(100);
    if (roll < 40) {  // TCP arrival
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kPacketId, i + 1);
      const std::uint64_t src = 1000 + rng.NextBelow(kFtpClients);
      const std::uint64_t dst = 2000 + rng.NextBelow(kFtpServers);
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kIpProto, 6);
      ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
      ev.fields.Set(FieldId::kEthSrc, 0xa0 + rng.NextBelow(16));
      if (flows.size() < 64) flows.emplace_back(src, dst);
    } else if (roll < 55) {  // egress, some of it dropped return traffic
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kPacketId, i + 1);
      if (!flows.empty() && rng.NextBool(0.3)) {
        const auto& [src, dst] = flows[rng.NextBelow(flows.size())];
        ev.fields.Set(FieldId::kIpSrc, dst);
        ev.fields.Set(FieldId::kIpDst, src);
      } else {
        ev.fields.Set(FieldId::kIpSrc, 2000 + rng.NextBelow(kFtpServers));
        ev.fields.Set(FieldId::kIpDst, 1000 + rng.NextBelow(kFtpClients));
      }
      ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(
                        rng.NextBool(0.1) ? EgressActionValue::kDrop
                                          : EgressActionValue::kForward));
    } else if (roll < 70) {  // ARP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kArpOp, rng.NextBool(0.5) ? 1 : 2);
      ev.fields.Set(FieldId::kArpSenderIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpTargetIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
    } else if (roll < 85) {  // DHCP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kDhcpMsgType, 1 + rng.NextBelow(5));
      ev.fields.Set(FieldId::kDhcpChaddr, 0xc0 + rng.NextBelow(16));
      ev.fields.Set(FieldId::kDhcpXid, 1 + rng.NextBelow(64));
      ev.fields.Set(FieldId::kDhcpYiaddr, 300 + rng.NextBelow(16));
    } else if (roll < 95) {  // FTP control
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(kFtpClients));
      ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(kFtpServers));
      ev.fields.Set(FieldId::kL4DstPort, 21);
      ev.fields.Set(FieldId::kFtpMsgKind, rng.NextBelow(3));
      ev.fields.Set(FieldId::kFtpDataAddr, 1000 + rng.NextBelow(kFtpClients));
      ev.fields.Set(FieldId::kFtpDataPort, 5000 + rng.NextBelow(64));
    } else {  // link flap
      ev.type = DataplaneEventType::kLinkStatus;
      ev.fields.Set(FieldId::kLinkId, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kLinkUp, rng.NextBool(0.5) ? 1 : 0);
    }
    enc.Add(ev);
  }
}

/// One PORT command per FTP (client, server) pair, in seeded order, 1us
/// apart: brings ftp-data-port's live set to its plateau (one instance per
/// pair) in 2,304 events instead of the ~200k mixed events it takes by
/// chance.
void FtpPriming(Rng& rng, Encoder& enc) {
  std::vector<std::uint64_t> pairs(kFtpClients * kFtpServers);
  for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i] = i;
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.NextBelow(i)]);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    DataplaneEvent ev;
    ev.type = DataplaneEventType::kArrival;
    ev.time = At(1'000 * static_cast<std::int64_t>(i + 1));
    ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
    ev.fields.Set(FieldId::kIpSrc, 1000 + pairs[i] / kFtpServers);
    ev.fields.Set(FieldId::kIpDst, 2000 + pairs[i] % kFtpServers);
    ev.fields.Set(FieldId::kL4DstPort, 21);
    ev.fields.Set(FieldId::kFtpMsgKind,
                  static_cast<std::uint64_t>(FtpMsgKind::kPortCommand));
    ev.fields.Set(FieldId::kFtpDataAddr, 1000 + pairs[i] / kFtpServers);
    ev.fields.Set(FieldId::kFtpDataPort, 5000 + rng.NextBelow(64));
    enc.Add(ev);
  }
}

/// Established web flows (ACK only, so no load-balancer SYN rule fires)
/// arriving on server-side ports, each packet an arrival plus its forwarded
/// egress, 1us per event: no Table-1 property creates state.
void WebCycle(Rng& rng, Encoder& enc) {
  constexpr std::size_t kFlows = 4096;
  struct Flow {
    std::uint64_t src, dst, sport, dport, in_port, mac;
  };
  std::vector<Flow> flows(kFlows);
  for (Flow& f : flows) {
    f = {0x0a000000 + rng.NextBelow(1 << 16), 0xc0a80000 + rng.NextBelow(256),
         1024 + rng.NextBelow(60000), rng.NextBool(0.5) ? 80u : 443u,
         2 + rng.NextBelow(3), 0x020000000000 + rng.NextBelow(1 << 16)};
  }
  for (std::size_t i = 0; i < kWebCycleEvents / 2; ++i) {
    const Flow& f = flows[rng.NextBelow(kFlows)];
    const bool reply = rng.NextBool(0.5);
    DataplaneEvent in;
    in.type = DataplaneEventType::kArrival;
    in.time = At(1'000 * static_cast<std::int64_t>(2 * i + 1));
    in.packet_bytes = 64 + static_cast<std::uint32_t>(rng.NextBelow(1400));
    in.fields.Set(FieldId::kInPort, f.in_port);
    in.fields.Set(FieldId::kPacketId, i + 1);
    in.fields.Set(FieldId::kEthSrc, f.mac);
    in.fields.Set(FieldId::kIpSrc, reply ? f.dst : f.src);
    in.fields.Set(FieldId::kIpDst, reply ? f.src : f.dst);
    in.fields.Set(FieldId::kIpProto, 6);
    in.fields.Set(FieldId::kL4SrcPort, reply ? f.dport : f.sport);
    in.fields.Set(FieldId::kL4DstPort, reply ? f.sport : f.dport);
    in.fields.Set(FieldId::kTcpFlags, kTcpAck);
    DataplaneEvent out = in;
    out.type = DataplaneEventType::kEgress;
    out.time = At(1'000 * static_cast<std::int64_t>(2 * i + 2));
    out.fields.Clear(FieldId::kInPort);
    out.fields.Set(FieldId::kOutPort, f.in_port == 2 ? 3 : 2);
    out.fields.Set(FieldId::kEgressAction,
                   static_cast<std::uint64_t>(EgressActionValue::kForward));
    enc.Add(in);
    enc.Add(out);
  }
}

/// bench_parallel's hot property: an arrival binds (src, dst); a later drop
/// of the reversed pair violates. Shard-eligible, so kInstance splits its
/// instances across every worker.
Property HotPairProperty() {
  PropertyBuilder b("hot-pairs", "single hot property, many instances");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("outbound")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst)
      .Window(Duration::Seconds(3600))
      .RefreshOnRematch();
  b.AddStage("return dropped")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build());
  return std::move(b).Build();
}

/// 80% arrivals over a kHotKeys^2 pair space, 20% drops, 10us apart: the
/// warm-up cycle creates ~1.5e5 live instances, later cycles refresh them.
void HotCycle(Rng& rng, Encoder& enc) {
  for (std::size_t i = 0; i < kHotCycleEvents; ++i) {
    DataplaneEvent ev;
    ev.time = At(10'000 * static_cast<std::int64_t>(i + 1));
    ev.fields.Set(FieldId::kIpSrc, rng.NextBelow(kHotKeys));
    ev.fields.Set(FieldId::kIpDst, rng.NextBelow(kHotKeys));
    if (rng.NextBool(0.8)) {
      ev.type = DataplaneEventType::kArrival;
    } else {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(EgressActionValue::kDrop));
    }
    enc.Add(ev);
  }
}

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

void Finish(Encoder& cycle, std::int64_t last_time_ns, Stream* s) {
  s->cycle = cycle.TakeBytes();
  s->time_offsets = cycle.TakeOffsets();
  // The gap after the last template event repeats the template's own
  // spacing, so cycle r+1 starts strictly after cycle r ends.
  s->cycle_span_ns = last_time_ns + 1'000'000;
}

}  // namespace

void Stream::Cycles(std::size_t first, std::size_t count,
                    std::vector<std::uint8_t>& out) const {
  out.clear();
  for (std::size_t r = first; r < first + count; ++r) {
    const std::size_t base = out.size();
    out.insert(out.end(), cycle.begin(), cycle.end());
    const std::uint64_t shift = static_cast<std::uint64_t>(r) *
                                static_cast<std::uint64_t>(cycle_span_ns);
    for (const std::uint32_t off : time_offsets) {
      std::uint64_t t;
      std::memcpy(&t, out.data() + base + off, sizeof(t));  // little-endian
      t += shift;
      std::memcpy(out.data() + base + off, &t, sizeof(t));
    }
  }
}

std::vector<std::string> EngineMetricNames() {
  std::vector<std::string> names;
  for (const Property& p : Table1Properties()) names.push_back(p.name);
  names.push_back(HotPairProperty().name);
  return names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  Encoder cycle;
  if (name == "table1_mix") {
    w.properties = Table1Properties();
    Encoder priming;
    FtpPriming(rng, priming);
    w.stream.priming_events = priming.events();
    w.stream.priming = priming.TakeBytes();
    const std::int64_t t0 = 10'000'000;  // after the priming burst
    MixedCycle(rng, t0, cycle);
    // 4 s of stream time: DHCP's 2 s reply windows reach their plateau.
    w.stream.warmup_cycles = 10;
    Finish(cycle, t0 + 100'000 * (kMixCycleEvents - 1), &w.stream);
  } else if (name == "web_inert") {
    w.properties = Table1Properties();
    WebCycle(rng, cycle);
    Finish(cycle, 1'000 * kWebCycleEvents, &w.stream);
  } else if (name == "hot_pairs") {
    w.properties = {HotPairProperty()};
    w.workers = 2;
    w.shard_mode = ShardMode::kInstance;
    HotCycle(rng, cycle);
    Finish(cycle, 10'000 * kHotCycleEvents, &w.stream);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::vector<std::uint8_t> StreamHeader() {
  ByteWriter w;
  for (const char c : {'S', 'W', 'M', 'T'})
    w.WriteU8(static_cast<std::uint8_t>(c));
  w.WriteU32LE(2);
  w.WriteU64LE(0);  // live streams ignore the count
  return w.bytes();
}

}  // namespace swmon::e2e
