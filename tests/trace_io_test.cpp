// Trace persistence round-trip and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include "monitor/engine.hpp"
#include "netsim/trace_io.hpp"
#include "properties/catalog.hpp"
#include "workload/firewall_scenario.hpp"

namespace swmon {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TraceRecorder SampleTrace() {
  FirewallScenarioConfig config;
  config.fault = FirewallFault::kDropEstablishedReturn;
  config.connections = 8;
  config.close_fraction = 0;
  config.stale_return_fraction = 0;
  config.options.keep_trace = true;
  auto out = RunFirewallScenario(config);
  return std::move(*out.trace);
}

TEST(TraceIoTest, RoundTripPreservesEveryEvent) {
  const TraceRecorder original = SampleTrace();
  const std::string path = TempPath("roundtrip.swmt");
  std::string error;
  ASSERT_TRUE(SaveTrace(original, path, &error)) << error;

  TraceRecorder loaded;
  ASSERT_TRUE(LoadTrace(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.events()[i];
    const auto& b = loaded.events()[i];
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.time, b.time) << i;
    EXPECT_EQ(a.packet_bytes, b.packet_bytes) << i;
    EXPECT_EQ(a.fields.presence_mask(), b.fields.presence_mask()) << i;
    for (std::size_t fi = 0; fi < kNumFieldIds; ++fi) {
      const auto id = static_cast<FieldId>(fi);
      EXPECT_EQ(a.fields.Get(id), b.fields.Get(id)) << i;
    }
  }
}

TEST(TraceIoTest, LoadedTraceDrivesTheMonitorIdentically) {
  const TraceRecorder original = SampleTrace();
  const std::string path = TempPath("monitor.swmt");
  ASSERT_TRUE(SaveTrace(original, path));
  TraceRecorder loaded;
  ASSERT_TRUE(LoadTrace(path, loaded));

  MonitorEngine a(FirewallReturnNotDropped());
  MonitorEngine b(FirewallReturnNotDropped());
  original.ReplayInto(a);
  loaded.ReplayInto(b);
  EXPECT_EQ(a.violations().size(), b.violations().size());
  EXPECT_GT(a.violations().size(), 0u);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  const TraceRecorder empty;
  const std::string path = TempPath("empty.swmt");
  ASSERT_TRUE(SaveTrace(empty, path));
  TraceRecorder loaded;
  ASSERT_TRUE(LoadTrace(path, loaded));
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(TraceIoTest, RejectsMissingFile) {
  TraceRecorder loaded;
  std::string error;
  EXPECT_FALSE(LoadTrace(TempPath("nope.swmt"), loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.swmt");
  std::ofstream(path) << "not a trace at all";
  TraceRecorder loaded;
  std::string error;
  EXPECT_FALSE(LoadTrace(path, loaded, &error));
  EXPECT_NE(error.find("not a swmon trace"), std::string::npos);
}

namespace {

void AppendLE(std::vector<std::uint8_t>& out, std::uint64_t v,
              std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WriteFile(const std::string& path, const void* data, std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, size, f), size);
  std::fclose(f);
}

}  // namespace

TEST(TraceIoTest, V2FormatIsLittleEndianOnDisk) {
  // Hand-craft a v2 file byte-for-byte: it must decode identically on any
  // host, proving the format is explicit LE rather than host-endian.
  std::vector<std::uint8_t> buf = {'S', 'W', 'M', 'T'};
  AppendLE(buf, 2, 4);  // version
  AppendLE(buf, 1, 8);  // one event
  buf.push_back(static_cast<std::uint8_t>(DataplaneEventType::kEgress));
  AppendLE(buf, 123456789, 8);  // time_ns
  AppendLE(buf, 0x11223344, 4);  // packet_bytes
  const auto src_bit = static_cast<unsigned>(FieldId::kIpSrc);
  const auto dst_bit = static_cast<unsigned>(FieldId::kIpDst);
  AppendLE(buf, (1ull << src_bit) | (1ull << dst_bit), 8);  // presence
  // Values in field-index order.
  AppendLE(buf, src_bit < dst_bit ? 0xAABBCCDDEEFF0011ull : 42, 8);
  AppendLE(buf, src_bit < dst_bit ? 42 : 0xAABBCCDDEEFF0011ull, 8);

  const std::string path = TempPath("handmade_v2.swmt");
  WriteFile(path, buf.data(), buf.size());

  TraceRecorder loaded;
  std::string error;
  ASSERT_TRUE(LoadTrace(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  const DataplaneEvent& ev = loaded.events()[0];
  EXPECT_EQ(ev.type, DataplaneEventType::kEgress);
  EXPECT_EQ(ev.time.nanos(), 123456789);
  EXPECT_EQ(ev.packet_bytes, 0x11223344u);
  EXPECT_EQ(ev.fields.Get(FieldId::kIpSrc), 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(ev.fields.Get(FieldId::kIpDst), 42u);
}

TEST(TraceIoTest, ReadsVersion1HostEndianTraces) {
  if constexpr (std::endian::native != std::endian::little)
    GTEST_SKIP() << "v1 traces are only readable on little-endian hosts";
  // Reproduce the v1 writer: raw fwrite of host scalars, version = 1.
  const std::string path = TempPath("legacy_v1.swmt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("SWMT", 1, 4, f);
  const std::uint32_t version = 1;
  std::fwrite(&version, sizeof(version), 1, f);
  const std::uint64_t count = 1;
  std::fwrite(&count, sizeof(count), 1, f);
  const std::uint8_t type =
      static_cast<std::uint8_t>(DataplaneEventType::kArrival);
  std::fwrite(&type, 1, 1, f);
  const std::uint64_t time_ns = 5000000;
  std::fwrite(&time_ns, sizeof(time_ns), 1, f);
  const std::uint32_t packet_bytes = 64;
  std::fwrite(&packet_bytes, sizeof(packet_bytes), 1, f);
  const std::uint64_t presence = 1ull
                                 << static_cast<unsigned>(FieldId::kInPort);
  std::fwrite(&presence, sizeof(presence), 1, f);
  const std::uint64_t value = 3;
  std::fwrite(&value, sizeof(value), 1, f);
  std::fclose(f);

  TraceRecorder loaded;
  std::string error;
  ASSERT_TRUE(LoadTrace(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.events()[0].type, DataplaneEventType::kArrival);
  EXPECT_EQ(loaded.events()[0].time.nanos(), 5000000);
  EXPECT_EQ(loaded.events()[0].packet_bytes, 64u);
  EXPECT_EQ(loaded.events()[0].fields.Get(FieldId::kInPort), 3u);
}

TEST(TraceIoTest, RejectsFutureVersion) {
  std::vector<std::uint8_t> buf = {'S', 'W', 'M', 'T'};
  AppendLE(buf, 3, 4);
  AppendLE(buf, 0, 8);
  const std::string path = TempPath("future.swmt");
  WriteFile(path, buf.data(), buf.size());
  TraceRecorder loaded;
  std::string error;
  EXPECT_FALSE(LoadTrace(path, loaded, &error));
  EXPECT_NE(error.find("unsupported trace version"), std::string::npos);
}

TEST(TraceIoTest, RejectsTruncation) {
  const TraceRecorder original = SampleTrace();
  const std::string path = TempPath("trunc.swmt");
  ASSERT_TRUE(SaveTrace(original, path));
  // Chop the file in half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  TraceRecorder loaded;
  std::string error;
  EXPECT_FALSE(LoadTrace(path, loaded, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

// ------------------------------------------------ incremental decoder

constexpr std::uint64_t kAllFields = (std::uint64_t{1} << kNumFieldIds) - 1;

/// Seeded random events of every type: the first sets every presence bit,
/// the second only the highest FieldId, the third none, the rest a random
/// subset of the fields.
std::vector<DataplaneEvent> RandomEvents(std::mt19937_64& rng, std::size_t n) {
  std::vector<DataplaneEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    DataplaneEvent ev;
    ev.type = static_cast<DataplaneEventType>(rng() % kNumDataplaneEventTypes);
    ev.time = SimTime::FromNanos(static_cast<std::int64_t>(rng()));
    ev.packet_bytes = static_cast<std::uint32_t>(rng());
    const std::uint64_t mask =
        i == 0   ? kAllFields
        : i == 1 ? std::uint64_t{1} << (kNumFieldIds - 1)
        : i == 2 ? 0
                 : rng() & kAllFields;
    for (std::size_t fi = 0; fi < kNumFieldIds; ++fi)
      if (mask >> fi & 1) ev.fields.Set(static_cast<FieldId>(fi), rng());
    events.push_back(ev);
  }
  return events;
}

void ExpectSameEvent(const DataplaneEvent& a, const DataplaneEvent& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.packet_bytes, b.packet_bytes);
  EXPECT_EQ(a.fields.presence_mask(), b.fields.presence_mask());
  for (std::size_t fi = 0; fi < kNumFieldIds; ++fi) {
    const auto id = static_cast<FieldId>(fi);
    EXPECT_EQ(a.fields.Get(id), b.fields.Get(id)) << FieldName(id);
  }
}

struct Decoded {
  std::vector<DataplaneEvent> events;
  TraceEventDecoder::Result last = TraceEventDecoder::Result::kNeedMore;
  std::size_t fed = 0;
  std::size_t pending = 0;
  std::string error;
};

/// Feeds `bytes` to a fresh decoder in random chunks of 1..max_chunk bytes
/// (all at once when max_chunk is 0), draining Next after every feed and
/// feeding no more after a kCorrupt.
Decoded DecodeInChunks(const std::vector<std::uint8_t>& bytes,
                       std::mt19937_64& rng, std::size_t max_chunk) {
  TraceEventDecoder dec;
  Decoded out;
  while (out.fed < bytes.size() &&
         out.last != TraceEventDecoder::Result::kCorrupt) {
    const std::size_t n =
        max_chunk == 0 ? bytes.size()
                       : std::min<std::size_t>(bytes.size() - out.fed,
                                               1 + rng() % max_chunk);
    dec.Feed(bytes.data() + out.fed, n);
    out.fed += n;
    DataplaneEvent ev;
    while ((out.last = dec.Next(ev)) == TraceEventDecoder::Result::kEvent)
      out.events.push_back(ev);
  }
  out.pending = dec.pending_bytes();
  out.error = dec.error();
  return out;
}

std::vector<std::uint8_t> Encode(const DataplaneEvent& ev) {
  ByteWriter w;
  EncodeTraceEvent(w, ev);
  return w.bytes();
}

TEST(TraceEventDecoderTest, SeededRoundTripCoversEveryPresenceBitInRandomSplits) {
  std::mt19937_64 rng(16);
  const std::vector<DataplaneEvent> events = RandomEvents(rng, 3000);
  std::uint64_t seen = 0;
  ByteWriter w;
  for (const DataplaneEvent& ev : events) {
    seen |= ev.fields.presence_mask();
    EncodeTraceEvent(w, ev);
  }
  ASSERT_EQ(seen, kAllFields);

  for (const std::size_t max_chunk : {std::size_t{0}, std::size_t{7},
                                      std::size_t{700}, std::size_t{1} << 16}) {
    SCOPED_TRACE(max_chunk);
    const Decoded d = DecodeInChunks(w.bytes(), rng, max_chunk);
    EXPECT_EQ(d.last, TraceEventDecoder::Result::kNeedMore);
    EXPECT_EQ(d.pending, 0u);
    ASSERT_EQ(d.events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameEvent(d.events[i], events[i]);
    }
  }

  // LoadTrace shares the decoder.
  TraceRecorder original;
  for (const DataplaneEvent& ev : events) original.OnDataplaneEvent(ev);
  const std::string path = TempPath("random_roundtrip.swmt");
  std::string error;
  ASSERT_TRUE(SaveTrace(original, path, &error)) << error;
  TraceRecorder loaded;
  ASSERT_TRUE(LoadTrace(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameEvent(loaded.events()[i], events[i]);
  }
}

TEST(TraceEventDecoderTest, MutatedStreamsKeepTheUndamagedPrefixAndStayInBounds) {
  std::mt19937_64 rng(2016);
  const std::vector<DataplaneEvent> events = RandomEvents(rng, 48);
  std::vector<std::uint8_t> clean;
  std::vector<std::size_t> ends;  // one past each event's last byte
  for (const DataplaneEvent& ev : events) {
    const std::vector<std::uint8_t> bytes = Encode(ev);
    clean.insert(clean.end(), bytes.begin(), bytes.end());
    ends.push_back(clean.size());
  }

  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<std::uint8_t> bytes = clean;
    std::size_t damage = bytes.size();  // first byte that may differ
    const int kind = trial % 3;         // 0: flips, 1: truncation, 2: both
    if (kind != 1) {
      for (int f = 0, flips = 1 + static_cast<int>(rng() % 3); f < flips; ++f) {
        const std::size_t at = rng() % bytes.size();
        bytes[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        damage = std::min(damage, at);
      }
    }
    if (kind != 0) {
      bytes.resize(rng() % bytes.size());
      damage = std::min(damage, bytes.size());
    }
    const auto intact = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), damage) - ends.begin());

    // Fed whole, the decoder's buffer is exactly the stream, so under
    // AddressSanitizer a load past the last fed byte is a reported
    // overflow; fed in random splits, every event must decode the same.
    const Decoded whole = DecodeInChunks(bytes, rng, 0);
    const Decoded split = DecodeInChunks(bytes, rng, 97);
    for (const Decoded* d : {&whole, &split}) {
      ASSERT_GE(d->events.size(), intact);
      std::size_t consumed = 0;
      for (std::size_t i = 0; i < d->events.size(); ++i) {
        const DataplaneEvent& ev = d->events[i];
        if (i < intact) ExpectSameEvent(ev, events[i]);
        // Well-formed, and re-encodes to exactly the bytes it came from.
        ASSERT_LE(static_cast<unsigned>(ev.type),
                  static_cast<unsigned>(DataplaneEventType::kLinkStatus));
        ASSERT_EQ(ev.fields.presence_mask() & ~kAllFields, 0u);
        const std::vector<std::uint8_t> re = Encode(ev);
        ASSERT_LE(consumed + re.size(), d->fed);
        ASSERT_TRUE(std::equal(re.begin(), re.end(),
                               bytes.begin() +
                                   static_cast<std::ptrdiff_t>(consumed)));
        consumed += re.size();
      }
      EXPECT_EQ(consumed + d->pending, d->fed);
      if (d->last == TraceEventDecoder::Result::kCorrupt) {
        EXPECT_FALSE(d->error.empty());
      } else {
        EXPECT_EQ(d->last, TraceEventDecoder::Result::kNeedMore);
        EXPECT_EQ(d->fed, bytes.size());
      }
    }
    // A cut clean stream is only ever short, never corrupt.
    if (kind == 1) {
      EXPECT_EQ(whole.last, TraceEventDecoder::Result::kNeedMore);
      EXPECT_EQ(whole.events.size(), intact);
    }
    ASSERT_EQ(split.events.size(), whole.events.size());
    EXPECT_EQ(split.last, whole.last);
    for (std::size_t i = intact; i < whole.events.size(); ++i)
      ExpectSameEvent(split.events[i], whole.events[i]);
  }
}

}  // namespace
}  // namespace swmon
