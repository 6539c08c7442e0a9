#include "trace.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/device_tracker.hpp"
#include "core/security_gateway.hpp"
#include "fingerprint/extractor.hpp"
#include "net/crc32.hpp"
#include "net/hash_mix.hpp"
#include "net/parser.hpp"
#include "simnet/fleet_sim.hpp"

namespace perfbench {

using namespace iotsentinel;

namespace {

constexpr std::uint64_t kHourUs = 3'600'000'000ULL;

sim::FleetSim make_fleet(const sim::Roster& roster, const TraceShape& shape,
                         std::uint64_t seed) {
  sim::FleetConfig config;
  config.seed = seed;
  config.sim_end_us = shape.sim_end_us;
  config.join_window_us = shape.join_window_us;
  return sim::FleetSim(roster, shape.devices, config);
}

net::MacAddress src_mac(std::span<const std::uint8_t> frame) {
  return net::MacAddress(
      {frame[6], frame[7], frame[8], frame[9], frame[10], frame[11]});
}

}  // namespace

std::size_t shard_of(const net::MacAddress& mac, std::size_t shards) {
  return std::hash<net::MacAddress>{}(mac) % shards;
}

std::uint64_t stream_hash(std::uint64_t hash, std::uint64_t ts_us,
                          std::span<const std::uint8_t> frame) {
  hash = net::mix64(hash ^ ts_us);
  return net::mix64(hash ^ net::crc32c(frame));
}

std::uint64_t fleet_stream_hash(const sim::Roster& roster,
                                std::uint64_t devices, std::uint64_t hours,
                                std::uint64_t seed) {
  TraceShape shape;
  shape.devices = devices;
  shape.sim_end_us = hours * kHourUs;
  shape.join_window_us = std::min<std::uint64_t>(kHourUs, shape.sim_end_us / 4);
  sim::FleetSim fleet = make_fleet(roster, shape, seed);
  std::uint64_t hash = 0;
  while (auto event = fleet.next()) {
    hash = stream_hash(hash, event->frame.timestamp_us, event->frame.frame);
  }
  return hash;
}

void render_trace(const sim::Roster& roster, const TraceShape& shape,
                  std::uint64_t seed, Trace& trace) {
  // Counting pass: exact frame and byte totals (so no array grows by
  // doubling and leaves a high-water mark above the gateway's own
  // memory), plus the reference digest.
  std::size_t frames = 0;
  std::size_t bytes = 0;
  std::uint64_t reference = 0;
  {
    sim::FleetSim fleet = make_fleet(roster, shape, seed);
    while (auto event = fleet.next()) {
      ++frames;
      bytes += event->frame.frame.size();
      reference =
          stream_hash(reference, event->frame.timestamp_us, event->frame.frame);
    }
  }

  trace.shape = shape;
  trace.arena.resize(bytes);
  trace.offsets.resize(frames + 1);
  trace.ts_us.resize(frames);
  trace.device.resize(frames);
  trace.shard.resize(frames);
  trace.rank.resize(frames);
  trace.frames_per_shard.assign(std::max<std::size_t>(shape.shards, 1), 0);
  trace.sweeps.clear();
  trace.type_of_device.resize(shape.devices);
  trace.mac_of_device.resize(shape.devices);
  trace.type_names.clear();
  for (const sim::RosterEntry& entry : roster.entries) {
    trace.type_names.push_back(entry.profile.name);
  }
  for (std::uint32_t d = 0; d < shape.devices; ++d) {
    trace.type_of_device[d] =
        static_cast<std::uint32_t>(sim::FleetSim::type_index_of(roster, d));
  }

  sim::FleetSim fleet = make_fleet(roster, shape, seed);
  std::size_t i = 0;
  std::size_t at = 0;
  std::uint64_t next_sweep = shape.sweep_every_us;
  while (auto event = fleet.next()) {
    if (i == frames) throw std::runtime_error("fleet stream grew on re-render");
    const net::Bytes& frame = event->frame.frame;
    if (at + frame.size() > bytes) {
      throw std::runtime_error("fleet stream grew on re-render");
    }
    if (core::is_malformed_frame(frame)) {
      throw std::runtime_error("fleet stream holds a malformed frame");
    }
    const std::uint64_t ts = event->frame.timestamp_us;
    if (shape.sweep_every_us != 0 && ts >= next_sweep) {
      // One sweep at the last sweep boundary at or before this frame.
      const std::uint64_t now =
          next_sweep +
          (ts - next_sweep) / shape.sweep_every_us * shape.sweep_every_us;
      trace.sweeps.push_back({i, now});
      next_sweep = now + shape.sweep_every_us;
    }
    std::copy(frame.begin(), frame.end(), trace.arena.begin() + static_cast<std::ptrdiff_t>(at));
    trace.offsets[i] = at;
    at += frame.size();
    trace.ts_us[i] = ts;
    trace.device[i] = event->device_id;
    const net::MacAddress mac = src_mac(frame);
    trace.mac_of_device[event->device_id] = mac;
    const std::size_t s =
        shape.shards == 0 ? 0 : shard_of(mac, shape.shards);
    trace.shard[i] = static_cast<std::uint8_t>(s);
    trace.rank[i] = static_cast<std::uint32_t>(trace.frames_per_shard[s]++);
    ++i;
  }
  trace.offsets[frames] = at;
  if (i != frames || at != bytes) {
    throw std::runtime_error("fleet stream shrank on re-render");
  }

  trace.digest = 0;
  for (std::size_t k = 0; k < frames; ++k) {
    trace.digest = stream_hash(trace.digest, trace.ts_us[k], trace.frame(k));
  }
  if (trace.digest != reference) {
    throw std::runtime_error("rendered trace digest differs from the stream");
  }
  trace.device_of_mac.clear();
  trace.device_of_mac.reserve(shape.devices);
  for (std::uint32_t d = 0; d < shape.devices; ++d) {
    trace.device_of_mac.emplace(trace.mac_of_device[d], d);
  }
}

void label_captures(Trace& trace) {
  struct ShardState {
    fp::SetupCaptureExtractor extractor;
    core::DeviceTracker tracker;
  };
  const std::size_t shards = trace.num_shards();
  std::vector<ShardState> state(shards);
  std::size_t current = 0;
  trace.labels.clear();
  for (ShardState& s : state) {
    s.extractor.on_capture_complete([&](const fp::DeviceCapture& capture) {
      trace.labels.push_back({trace.device_of_mac.at(capture.mac), current});
    });
  }
  std::vector<net::MacAddress> departed;
  std::size_t next_sweep = 0;
  const bool serial = trace.shape.shards == 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    current = i;
    while (next_sweep < trace.sweeps.size() &&
           trace.sweeps[next_sweep].before_frame == i) {
      const Sweep& sweep = trace.sweeps[next_sweep++];
      for (ShardState& s : state) {
        s.tracker.idle_devices_into(sweep.now_us, trace.shape.sweep_idle_us,
                                    departed);
        for (const net::MacAddress& mac : departed) {
          s.extractor.forget(mac);
          s.tracker.forget(mac);
        }
      }
    }
    const std::span<const std::uint8_t> bytes = trace.frame(i);
    ShardState& s = state[trace.shard[i]];
    const net::ParsedPacket pkt = net::parse_ethernet_frame(bytes, trace.ts_us[i]);
    s.tracker.observe(pkt, bytes);
    s.extractor.observe(pkt);
    if (serial && (i + 1) % kAdvanceStride == 0) {
      s.extractor.advance_time(trace.ts_us[i]);
    }
  }
  current = CaptureLabel::kClosedAtFinish;
  for (ShardState& s : state) s.extractor.flush_all();
  trace.labels_of_device.assign(trace.shape.devices, {});
  for (std::size_t l = 0; l < trace.labels.size(); ++l) {
    trace.labels_of_device[trace.labels[l].device].push_back(
        static_cast<std::uint32_t>(l));
  }
}

}  // namespace perfbench
