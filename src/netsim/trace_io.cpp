#include "netsim/trace_io.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/byte_io.hpp"

namespace swmon {
namespace {

constexpr char kMagic[4] = {'S', 'W', 'M', 'T'};
// v1 wrote raw host-endian scalars (fwrite of each field); v2 routes every
// scalar through the byte_io little-endian writers so traces are portable
// across machines. The field-by-field layout is identical, so on a
// little-endian host a v1 file decodes with the v2 path.
constexpr std::uint32_t kVersion = 2;

/// Fixed-size prefix of one encoded event: type + time + packet_bytes +
/// presence mask. The variable tail is 8 bytes per set presence bit.
constexpr std::size_t kEventFixedBytes = 1 + 8 + 4 + 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

bool SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::uint32_t LoadU32LE(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native != std::endian::little)
    v = __builtin_bswap32(v);
  return v;
}

std::uint64_t LoadU64LE(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native != std::endian::little)
    v = __builtin_bswap64(v);
  return v;
}

/// Decodes one event from the `n` bytes at `p` and, on kEvent, sets
/// `*size` to its encoded length. Returns kEvent/kNeedMore/kCorrupt exactly
/// like the incremental decoder (LoadTrace treats kNeedMore as truncation)
/// and never reads past p + n.
TraceEventDecoder::Result DecodeOneEvent(const std::uint8_t* p, std::size_t n,
                                         DataplaneEvent& out,
                                         std::size_t* size,
                                         std::string* error) {
  using Result = TraceEventDecoder::Result;
  if (n < kEventFixedBytes) return Result::kNeedMore;
  const std::uint8_t type = p[0];
  std::uint64_t presence = LoadU64LE(p + 13);
  if (type > static_cast<std::uint8_t>(DataplaneEventType::kLinkStatus)) {
    SetError(error, "corrupt event type");
    return Result::kCorrupt;
  }
  if (presence >> kNumFieldIds) {
    SetError(error, "corrupt presence mask");
    return Result::kCorrupt;
  }
  const std::size_t bytes =
      kEventFixedBytes + 8 * static_cast<std::size_t>(std::popcount(presence));
  if (n < bytes) return Result::kNeedMore;
  out = DataplaneEvent{};
  out.type = static_cast<DataplaneEventType>(type);
  out.time = SimTime::FromNanos(static_cast<std::int64_t>(LoadU64LE(p + 1)));
  out.packet_bytes = LoadU32LE(p + 9);
  // Values follow in ascending FieldId order: one per set presence bit.
  for (const std::uint8_t* v = p + kEventFixedBytes; presence != 0;
       presence &= presence - 1, v += 8)
    out.fields.Set(static_cast<FieldId>(std::countr_zero(presence)),
                   LoadU64LE(v));
  *size = bytes;
  return Result::kEvent;
}

void WriteHeader(ByteWriter& w, std::uint64_t count) {
  w.WriteBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.WriteU32LE(kVersion);
  w.WriteU64LE(count);
}

}  // namespace

void EncodeTraceEvent(ByteWriter& w, const DataplaneEvent& ev) {
  w.WriteU8(static_cast<std::uint8_t>(ev.type));
  w.WriteU64LE(static_cast<std::uint64_t>(ev.time.nanos()));
  w.WriteU32LE(ev.packet_bytes);
  w.WriteU64LE(ev.fields.presence_mask());
  for (std::size_t i = 0; i < kNumFieldIds; ++i) {
    const auto id = static_cast<FieldId>(i);
    if (ev.fields.Has(id)) w.WriteU64LE(ev.fields.GetUnchecked(id));
  }
}

// --------------------------------------------------- TraceEventDecoder

void TraceEventDecoder::Feed(const std::uint8_t* data, std::size_t n) {
  // Drop the consumed prefix once it is at least half the buffer, so a
  // long-lived stream never accretes decoded bytes and the move costs no
  // more than what was decoded. Readers feed when Next runs dry, so
  // usually only a partial event's bytes move.
  if (pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

TraceEventDecoder::Result TraceEventDecoder::Next(DataplaneEvent& out) {
  if (corrupt_) return Result::kCorrupt;
  std::size_t size = 0;
  const Result res = DecodeOneEvent(buf_.data() + pos_, buf_.size() - pos_,
                                    out, &size, &error_);
  if (res == Result::kEvent) {
    pos_ += size;
    ++events_decoded_;
  } else if (res == Result::kCorrupt) {
    corrupt_ = true;
  }
  return res;
}

// ---------------------------------------------------- TraceFileWriter

bool TraceFileWriter::Open(const std::string& path, std::string* error) {
  Close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) return SetError(error, "cannot open " + path + " for writing");
  count_ = 0;
  ByteWriter header;
  WriteHeader(header, 0);
  if (std::fwrite(header.bytes().data(), 1, header.size(), file_) !=
      header.size()) {
    Close();
    return SetError(error, "header write failed");
  }
  std::fflush(file_);
  return true;
}

void TraceFileWriter::Append(const DataplaneEvent& ev) {
  EncodeTraceEvent(pending_, ev);
  ++count_;
}

bool TraceFileWriter::Flush(std::string* error) {
  if (!file_) return SetError(error, "writer is closed");
  const auto& buf = pending_.bytes();
  if (!buf.empty() &&
      std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size())
    return SetError(error, "trace write failed");
  pending_.Take();  // reset the pending buffer
  // Patch the header count so the file decodes as a complete trace at
  // every flush point.
  if (std::fseek(file_, 8, SEEK_SET) != 0)
    return SetError(error, "seek failed");
  ByteWriter count;
  count.WriteU64LE(count_);
  if (std::fwrite(count.bytes().data(), 1, 8, file_) != 8)
    return SetError(error, "count patch failed");
  if (std::fseek(file_, 0, SEEK_END) != 0)
    return SetError(error, "seek failed");
  std::fflush(file_);
  return true;
}

void TraceFileWriter::Close() {
  if (!file_) return;
  Flush();
  std::fclose(file_);
  file_ = nullptr;
}

// ------------------------------------------------- whole-file save/load

bool SaveTrace(const TraceRecorder& trace, const std::string& path,
               std::string* error) {
  ByteWriter w;
  WriteHeader(w, static_cast<std::uint64_t>(trace.size()));
  for (const DataplaneEvent& ev : trace.events()) EncodeTraceEvent(w, ev);

  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return SetError(error, "cannot open " + path + " for writing");
  const auto& buf = w.bytes();
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size())
    return SetError(error, "trace write failed");
  return true;
}

bool LoadTrace(const std::string& path, TraceRecorder& out,
               std::string* error) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return SetError(error, "cannot open " + path);
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0)
    buf.insert(buf.end(), chunk, chunk + n);

  ByteReader r(buf);
  char magic[4];
  r.ReadBytes(reinterpret_cast<std::uint8_t*>(magic), 4);
  if (!r.ok() || std::memcmp(magic, kMagic, 4) != 0)
    return SetError(error, path + " is not a swmon trace");
  const std::uint32_t version = r.ReadU32LE();
  if (!r.ok() || version == 0 || version > kVersion)
    return SetError(error, "unsupported trace version");
  if (version == 1 && std::endian::native != std::endian::little) {
    // v1 scalars are host-endian from the writing machine; on a big-endian
    // reader they cannot be decoded reliably. Re-record or convert on a
    // little-endian host (which reads them via the v2 path below).
    return SetError(error,
                    "trace version 1 is host-endian and this host is "
                    "big-endian; re-save as version 2");
  }
  const std::uint64_t count = r.ReadU64LE();
  if (!r.ok()) return SetError(error, "truncated header");

  std::size_t pos = r.position();
  for (std::uint64_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    std::size_t size = 0;
    std::string decode_error;
    switch (DecodeOneEvent(buf.data() + pos, buf.size() - pos, ev, &size,
                           &decode_error)) {
      case TraceEventDecoder::Result::kEvent:
        out.OnDataplaneEvent(ev);
        pos += size;
        break;
      case TraceEventDecoder::Result::kNeedMore:
        return SetError(error, "truncated event");
      case TraceEventDecoder::Result::kCorrupt:
        return SetError(error, decode_error);
    }
  }
  return true;
}

}  // namespace swmon
