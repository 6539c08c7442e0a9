// Pre-rendered fleet trace: the benchmark's input, built once per set-up
// outside every timed span.
//
// A trace is the FleetSim stream for one workload shape and seed, copied
// into one flat byte arena plus parallel per-frame arrays (timestamp,
// device id, shard, rank within the shard). Departure sweeps are
// positions in the stream. Setup captures are labelled by a replay of
// the gateway's verdict-independent stages (malformed check, parse,
// tracker, extractor, sweeps), which names the frame that closed each
// capture.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/mac_address.hpp"
#include "simnet/roster.hpp"

namespace perfbench {

/// Fleet shape and gateway driving policy of one workload.
struct TraceShape {
  std::uint64_t devices = 0;
  std::uint64_t sim_end_us = 0;
  std::uint64_t join_window_us = 0;
  /// Simulated interval between expire_departed sweeps; 0 = no sweeps.
  std::uint64_t sweep_every_us = 0;
  std::uint64_t sweep_idle_us = 0;
  /// Gateway shards; 0 selects the serial SecurityGateway.
  std::size_t shards = 0;
};

/// An expire_departed call made before frame `before_frame`.
struct Sweep {
  std::size_t before_frame = 0;
  std::uint64_t now_us = 0;
};

/// One setup capture: the device and the frame whose processing closed
/// it (kClosedAtFinish when the end-of-run flush closed it).
struct CaptureLabel {
  static constexpr std::size_t kClosedAtFinish = ~std::size_t{0};
  std::uint32_t device = 0;
  std::size_t close_frame = kClosedAtFinish;
};

struct Trace {
  TraceShape shape;
  std::vector<std::uint8_t> arena;
  /// Frame i is arena[offsets[i], offsets[i + 1]).
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> ts_us;
  std::vector<std::uint32_t> device;
  /// Owning shard of each frame (0 for serial) and its position among
  /// that shard's frames.
  std::vector<std::uint8_t> shard;
  std::vector<std::uint32_t> rank;
  std::vector<std::size_t> frames_per_shard;
  std::vector<Sweep> sweeps;
  /// Per device id: roster type index and source MAC.
  std::vector<std::uint32_t> type_of_device;
  std::vector<iotsentinel::net::MacAddress> mac_of_device;
  std::unordered_map<iotsentinel::net::MacAddress, std::uint32_t> device_of_mac;
  std::vector<std::string> type_names;
  std::vector<CaptureLabel> labels;
  /// Indices into `labels` per device, in capture order.
  std::vector<std::vector<std::uint32_t>> labels_of_device;
  /// bench_fleet's stream_hash over the rendered stream.
  std::uint64_t digest = 0;

  [[nodiscard]] std::size_t size() const { return ts_us.size(); }
  [[nodiscard]] std::span<const std::uint8_t> frame(std::size_t i) const {
    return {arena.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
  [[nodiscard]] std::size_t num_shards() const {
    return frames_per_shard.size();
  }
};

/// Owning shard of `mac` at `shards` shards: ShardedGateway::shard_of.
std::size_t shard_of(const iotsentinel::net::MacAddress& mac,
                     std::size_t shards);

/// bench_fleet's stream_hash: mix64 over each frame's timestamp, then
/// over its CRC32C, in stream order.
std::uint64_t stream_hash(std::uint64_t hash, std::uint64_t ts_us,
                          std::span<const std::uint8_t> frame);

/// Renders the FleetSim stream of `shape` for `seed` into `trace`,
/// reusing its buffers' memory. Sizes the arena exactly with a counting
/// pass first, then checks that the filled arena digests to the counting
/// pass's stream_hash. Throws std::runtime_error on a digest mismatch or
/// a malformed frame.
void render_trace(const iotsentinel::sim::Roster& roster,
                  const TraceShape& shape, std::uint64_t seed, Trace& trace);

/// Streams the FleetSim stream of bench_fleet's shape (join window
/// min(1 h, horizon / 4)) and returns its stream_hash without storing it.
std::uint64_t fleet_stream_hash(const iotsentinel::sim::Roster& roster,
                                std::uint64_t devices, std::uint64_t hours,
                                std::uint64_t seed);

/// Fills `trace.labels` by replaying the verdict-independent stages
/// per shard in stream order, with the trace's sweeps (sharded) or an
/// advance_time every `kAdvanceStride` frames (serial).
void label_captures(Trace& trace);

/// Frames between the serial loop's advance_time calls; matches the
/// shard workers' idle-flow expiry stride.
inline constexpr std::size_t kAdvanceStride = 1024;

}  // namespace perfbench
