// Pluggable live event ingestion for swmond.
//
// The batch harness replays a finite, fully-materialized trace; a resident
// daemon ingests from wherever events happen to be appearing. Two sources:
//
//   * TraceTailer follows a growing v2 `.swmt` trace file
//     (docs/TRACE_FORMAT.md): it waits for the file to exist, validates the
//     header once, then decodes events incrementally as bytes are appended
//     (TraceFileWriter on the producer side keeps the file consistent at
//     every flush). The header's event count is deliberately ignored — a
//     growing file's count lags its bytes.
//
//   * SocketSource accepts localhost TCP and/or Unix-socket connections
//     carrying either (a) the binary trace stream — the 16-byte SWMT
//     header followed by wire-encoded events, so `cat trace.swmt | nc`
//     works unmodified — or (b) a newline-delimited text protocol
//     (`arrival <time_ns> [key=value]...`) for hand-driven testing.
//     Reader threads decode each received chunk straight into a fixed ring
//     of event slots; the daemon's pump thread drains it via Poll(). The
//     ring is bounded: a producer faster than the monitors blocks its
//     connection (TCP backpressure) instead of growing daemon memory.
//
// Both sources present one contract: Poll(out, max_events) appends up to
// max_events newly available events, leaving the rest for later polls in
// order, and returns false only when the source is permanently finished
// (closed, or corrupt input — see error()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/switch.hpp"
#include "netsim/trace_io.hpp"

namespace swmon {

class EventSource {
 public:
  /// Poll budget meaning "everything available".
  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

  virtual ~EventSource() = default;
  /// Appends at most `max_events` newly available events to `out` (never
  /// blocks for long); the rest stay with the source, in order, for later
  /// polls. Returns false when the source is permanently done.
  virtual bool Poll(std::vector<DataplaneEvent>& out,
                    std::size_t max_events = kUnlimited) = 0;
  virtual const std::string& name() const = 0;
  /// Empty while healthy; a diagnosis once Poll has returned false.
  virtual const std::string& error() const = 0;
  virtual std::uint64_t events_ingested() const = 0;
};

/// Parses one text-protocol line: `<type> <time_ns> [bytes=<n>]
/// [<field>=<value>]...`, type in {arrival, egress, link}; values decimal
/// or 0x-hex; field names as printed by FieldName(). Empty lines and
/// `#`-comments yield false with empty error.
bool ParseEventLine(const std::string& line, DataplaneEvent& out,
                    std::string* error);

class TraceTailer : public EventSource {
 public:
  explicit TraceTailer(std::string path);
  ~TraceTailer() override;

  /// Reads the file only as far as the budget needs: bytes past the last
  /// event handed out stay on disk, not in the decoder.
  bool Poll(std::vector<DataplaneEvent>& out,
            std::size_t max_events = kUnlimited) override;
  const std::string& name() const override { return name_; }
  const std::string& error() const override { return error_; }
  std::uint64_t events_ingested() const override {
    return decoder_.events_decoded();
  }
  /// Bytes of the file consumed so far (header included once read).
  std::uint64_t offset() const { return offset_; }

 private:
  bool ReadHeader();

  std::string path_;
  std::string name_;
  std::string error_;
  int fd_ = -1;
  bool header_ok_ = false;
  std::uint64_t offset_ = 0;
  TraceEventDecoder decoder_;
};

struct SocketSourceOptions {
  /// Listen on 127.0.0.1:tcp_port when tcp_enabled (0 = kernel-assigned;
  /// read back via tcp_port()).
  bool tcp_enabled = false;
  std::uint16_t tcp_port = 0;
  /// Listen on this Unix socket path when non-empty.
  std::string unix_path;
};

class SocketSource : public EventSource {
 public:
  /// Decoded events held between the readers and Poll before readers
  /// block: two rounds of the pump's default 8,192-event budget, 5.2 MB at
  /// 320 B/event. Poll copies a round out, so one round's worth of slots
  /// is free for the readers while the pump delivers; any deeper backlog
  /// waits in the kernel socket buffer at ~97 B/event instead of 320.
  static constexpr std::size_t kRingSlots = 16384;

  explicit SocketSource(SocketSourceOptions options);
  ~SocketSource() override;

  bool Start(std::string* error = nullptr);
  void Stop();

  bool Poll(std::vector<DataplaneEvent>& out,
            std::size_t max_events = kUnlimited) override;
  const std::string& name() const override { return name_; }
  const std::string& error() const override { return error_; }
  std::uint64_t events_ingested() const override {
    return events_ingested_.load(std::memory_order_relaxed);
  }

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for protocol violations (bad header/corrupt
  /// stream/bad line); the stream keeps serving other clients.
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Malformed records observed across all connections: corrupt binary
  /// events, bad text lines, oversized text lines, and streams that close
  /// mid-record (truncated binary tail / unterminated final line that
  /// fails to parse). Events decoded before the bad record are kept.
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop(int listen_fd);
  void ReadConnection(int fd);
  /// Decodes events straight into free ring slots and publishes them as
  /// runs, one lock per run: `fill(slot)` writes the next event into
  /// `slot` and returns true, or returns false when it has no complete
  /// event left. Readers take turns, so one call's events stay contiguous
  /// and in order. Blocks while the ring is full (ingest backpressure);
  /// returns false when the source is stopping.
  template <typename Fill>
  bool Publish(Fill&& fill);

  SocketSourceOptions options_;
  std::string name_ = "socket";
  std::string error_;
  std::uint16_t tcp_port_ = 0;
  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  /// Listener threads; joined first on Stop (closing the listen fds stops
  /// them spawning more connection threads).
  std::vector<std::thread> accept_threads_;
  std::atomic<bool> stopping_{false};

  /// Held by the reader whose turn it is to decode into the ring; the
  /// free slots [tail_, head_ + kRingSlots) are its to write without mu_.
  std::mutex producer_mu_;

  std::mutex mu_;
  std::condition_variable space_cv_;  // the turn holder waits for free slots
  /// kRingSlots events, allocated and zero-filled on the first Publish
  /// rather than in Start. Published slots [head_, tail_) belong to Poll.
  /// ring_ and tail_ change only under both mutexes, head_ under mu_.
  std::unique_ptr<DataplaneEvent[]> ring_;
  std::uint64_t head_ = 0;  // next slot Poll hands out
  std::uint64_t tail_ = 0;  // one past the last published slot
  std::vector<int> connection_fds_;          // guarded by mu_
  std::vector<std::thread> reader_threads_;  // guarded by mu_

  std::atomic<std::uint64_t> events_ingested_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
};

}  // namespace swmon
