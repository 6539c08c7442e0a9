// Single-threaded stage replay: the traced run's source of per-layer
// costs.
//
// The replay drives the same public calls the gateway makes, in the same
// order, from outside the program: per frame, is_malformed_frame ->
// parse_ethernet_frame -> DeviceTracker::observe ->
// SetupCaptureExtractor::observe -> SoftwareSwitch::process on the
// frame's shard (one tracker, extractor, switch and, when sharded,
// attached SwitchRuleCache per shard, one shared Controller). Captures
// the extractor completes go through IoTSecurityService::assess_batch ->
// Controller::apply_rule -> SoftwareSwitch::flush_device ->
// DeviceTracker::mark_identified after the frame. Sweeps and the idle
// flow expiry stride (serial: advance_time) follow the gateway's.
//
// With tracing on, spans (name, start, end, parent) are recorded around
// every call on 1 in kSampleEvery frames and around every batch, sweep
// and expiry. A layer's self time is its spans' duration minus the part
// their child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/security_service.hpp"
#include "passes.hpp"
#include "trace.hpp"

namespace perfbench {

/// Span names, one per layer boundary.
enum class SpanName : std::uint8_t {
  kFrame,
  kMalformed,
  kParse,
  kTracker,
  kExtractor,
  kSwitch,
  kBatch,
  kAssess,
  kApplyRule,
  kFlushDevice,
  kMarkIdentified,
  kSweep,
  kIdleScan,
  kRemoveDevice,
  kForget,
  kExpire,
  /// Side measurements on each batch, outside the gateway's own work:
  /// ClassifierBank::score_batch and DeviceIdentifier::identify_batch.
  kScoreProbe,
  kIdentifyProbe,
  kCount,
};

const char* span_label(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the log, or kNoParent.
  std::uint32_t parent = 0;
  SpanName name = SpanName::kFrame;
  /// Switch spans only: the path the packet took.
  std::uint8_t path = 0;
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
};

/// 1 in this many frames is traced (chosen by a hash of the index).
inline constexpr std::uint64_t kSampleEvery = 16;

struct ReplayResult {
  double wall_s = 0.0;
  /// Median duration of an empty span, measured before the replay: the
  /// clock-read cost every span's duration includes.
  double clock_ns = 0.0;
  std::vector<EventRecord> events;
  std::vector<Span> spans;
  std::size_t sampled_frames = 0;
  std::size_t captures = 0;
  std::size_t discarded = 0;
  std::size_t fingerprints = 0;
  std::size_t batches = 0;
};

/// Replays `trace` once; records spans when `traced`.
ReplayResult stage_replay(const Trace& trace,
                          const iotsentinel::core::IoTSecurityService& service,
                          bool traced);

/// Self time per span name, in ns, summed over `spans` after taking the
/// empty-span duration (`clock_ns`) off each span; for switch spans also split by
/// path (index = sdn::SwitchPath).
struct SelfTimes {
  double total_ns[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::size_t count[static_cast<std::size_t>(SpanName::kCount)] = {};
  double switch_path_ns[3] = {};
  std::size_t switch_path_count[3] = {};
};
SelfTimes self_times(const std::vector<Span>& spans, double clock_ns);

/// Writes spans as CSV (index,name,start_ns,end_ns,parent,path).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
