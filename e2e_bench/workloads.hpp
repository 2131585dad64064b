// The three swmond end-to-end workloads: their properties, tenant shape and
// seeded input streams, pre-encoded in the SWMT wire format.
//
// A stream is a warm-up prefix plus a template "cycle" of events. Cycle r is
// the template with every timestamp shifted by r * cycle_span_ns, so a run
// can send as many cycles as its time budget allows while only one
// segment's bytes are held in memory, and time stays non-decreasing. Cycle 0
// and the next warmup_cycles-1 cycles are warm-up; the rest are the timed
// body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "monitor/parallel_monitor_set.hpp"
#include "monitor/spec.hpp"

namespace swmon::e2e {

struct Stream {
  /// Events sent (and drained) once before cycle 0; may be empty.
  std::vector<std::uint8_t> priming;
  std::size_t priming_events = 0;
  /// The template cycle's wire bytes (no stream header).
  std::vector<std::uint8_t> cycle;
  /// Byte offset of each template event's time_ns field within `cycle`.
  std::vector<std::uint32_t> time_offsets;
  std::int64_t cycle_span_ns = 0;
  /// Cycles 0..warmup_cycles-1 are warm-up (at least 2: the last one is
  /// timed alone to size the body's segments); the body starts after them.
  std::size_t warmup_cycles = 2;

  std::size_t cycle_events() const { return time_offsets.size(); }
  /// Writes cycles first..first+count-1 (each the template shifted by
  /// r * cycle_span_ns) to `out`, back to back.
  void Cycles(std::size_t first, std::size_t count,
              std::vector<std::uint8_t>& out) const;
};

struct Workload {
  std::string name;
  std::vector<Property> properties;
  /// Tenant shape, passed to swmond through SwmondOptions.
  std::size_t workers = 0;
  ShardMode shard_mode = ShardMode::kProperty;
  Stream stream;
};

/// Every property name any workload attaches (the 13 Table-1 properties
/// and hot-pairs): the per-property rows of the traced run.
std::vector<std::string> EngineMetricNames();

/// Builds `name`'s properties and its stream from `seed`. Same seed, same
/// bytes. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

/// The 16-byte SWMT v2 stream header a socket client sends first.
std::vector<std::uint8_t> StreamHeader();

}  // namespace swmon::e2e
