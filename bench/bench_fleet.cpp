// Streaming fleet benchmark: 100k..1M simulated devices through the
// sharded gateway pipeline, over days of simulated time, in bounded
// memory.
//
// FleetSim merges per-device lifecycle state machines (join -> setup
// burst -> standby cycles -> depart -> rejoin) into one time-ordered
// frame stream; every frame is handed to ShardedGateway::submit_owned,
// so no trace is ever materialised — the resident set is O(devices),
// never O(simulated time). This is the scale test the per-figure benches
// cannot provide: onboarding and steady-state traffic interleaved for an
// entire fleet, with flow-table expiry, rule-cache pressure and ring
// backpressure all live at once.
//
// Self-timed (the run is minutes, not microseconds — Google Benchmark's
// repetition model does not fit). Results are written as JSON; reference
// numbers recorded from this bench live in BENCH_gateway.json.
//
// Run from the release preset:
//   cmake --preset release && cmake --build --preset release -j
//   ./build-release/bench/bench_fleet --devices 100000 --hours 48
//
// Defaults reproduce the recorded run: 100k devices, two simulated days,
// 4 shards. CI smoke-runs a smaller fleet (see .github/workflows/ci.yml).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/gateway_pool.hpp"
#include "core/vulnerability_db.hpp"
#include "net/crc32.hpp"
#include "net/hash_mix.hpp"
#include "simnet/device_catalog.hpp"
#include "simnet/fleet_sim.hpp"

namespace {

using namespace iotsentinel;

constexpr std::uint64_t kHourUs = 3'600'000'000ULL;

struct Options {
  std::uint64_t devices = 100'000;
  std::uint64_t hours = 48;
  std::uint64_t shards = 4;
  std::uint64_t ring_capacity = 16'384;
  std::uint64_t seed = 1;
  /// Micro-flow idle timeout. The fleet's connections are sub-second
  /// (every standby occurrence draws a fresh ephemeral port), so the
  /// controller default of 60 s only bloats the flow table with dead
  /// entries and the expiry heap with their deadlines. 5 s keeps the live
  /// population proportional to genuinely concurrent connections; pass
  /// --flow-timeout-s 60 to measure the untuned wall.
  std::uint64_t flow_timeout_s = 5;
  std::string json_path = "BENCH_fleet.json";
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--devices N] [--hours H] [--shards S]\n"
               "          [--ring N] [--seed X] [--json PATH]\n",
               argv0);
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const auto read_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      out = std::strtoull(argv[++i], &end, 10);
      return end != nullptr && *end == '\0' && out > 0;
    };
    if (std::strcmp(argv[i], "--devices") == 0) {
      if (!read_u64(opt.devices)) return false;
    } else if (std::strcmp(argv[i], "--hours") == 0) {
      if (!read_u64(opt.hours)) return false;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (!read_u64(opt.shards)) return false;
    } else if (std::strcmp(argv[i], "--ring") == 0) {
      if (!read_u64(opt.ring_capacity)) return false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!read_u64(opt.seed)) return false;
    } else if (std::strcmp(argv[i], "--flow-timeout-s") == 0) {
      if (!read_u64(opt.flow_timeout_s)) return false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) return false;
      opt.json_path = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

/// One "VmHWM:  123 kB"-style field from /proc/self/status, in KiB
/// (0 when unavailable, e.g. off-Linux).
std::uint64_t status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  std::uint64_t value = 0;
  char line[256];
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

struct RunResult {
  std::uint64_t frames = 0;
  double wall_s = 0.0;
  std::uint64_t identifications = 0;
  std::uint64_t stream_hash = 0;       // order+content digest of the stream
  std::uint64_t sim_peak_bytes = 0;    // FleetSim's own footprint, sampled
  std::uint64_t active_at_end = 0;
  core::ShardedGateway::Stats gateway;
  // Data-plane aggregates across shards, snapshotted after finish().
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t cached_path = 0;
  std::uint64_t flow_misses = 0;
  std::uint64_t tier1_hits = 0;
  std::uint64_t live_flows = 0;
  std::uint64_t switch_memory_bytes = 0;
  std::uint64_t rule_cache_size = 0;
  std::uint64_t rule_cache_evictions = 0;
  // Federation (per-switch decision caches + controller negative cache).
  std::uint64_t switch_cache_hits = 0;
  std::uint64_t switch_cache_misses = 0;
  std::uint64_t switch_cache_size = 0;
  std::uint64_t switch_cache_invalidated = 0;
  std::uint64_t switch_cache_flushes = 0;
  std::uint64_t negative_cache_hits = 0;
  std::uint64_t rule_installs = 0;
  std::uint64_t invalidations_sent = 0;
  // Per-shard data-plane breakdown for the JSON shards array.
  struct ShardPaths {
    std::uint64_t fast = 0;
    std::uint64_t cached = 0;
    std::uint64_t slow = 0;
    std::uint64_t tier1_hits = 0;
    std::uint64_t masks = 0;
    std::uint64_t cache_size = 0;
  };
  std::vector<ShardPaths> shard_paths;
  /// Full end-of-run metric report (docs/OBSERVABILITY.md format).
  std::string telemetry_report;
};

RunResult run_fleet(const Options& opt, const core::IoTSecurityService& service,
                    const sim::Roster& roster) {
  sim::FleetConfig fleet_config;
  fleet_config.seed = opt.seed;
  fleet_config.sim_end_us = opt.hours * kHourUs;
  fleet_config.join_window_us = std::min<std::uint64_t>(
      kHourUs, fleet_config.sim_end_us / 4);
  sim::FleetSim fleet(roster, opt.devices, fleet_config);

  core::ShardedGatewayConfig gw_config;
  gw_config.num_shards = opt.shards;
  gw_config.ring_capacity = opt.ring_capacity;
  gw_config.controller.flow_idle_timeout_us = opt.flow_timeout_s * 1'000'000;
  core::ShardedGateway gw(service, gw_config);

  RunResult r;
  constexpr std::uint64_t kMemSampleStride = 1u << 16;
  constexpr std::uint64_t kProgressStride = 5'000'000;
  const auto start = std::chrono::steady_clock::now();
  while (auto event = fleet.next()) {
    const std::uint64_t ts = event->frame.timestamp_us;
    r.stream_hash = net::mix64(r.stream_hash ^ ts);
    r.stream_hash = net::mix64(r.stream_hash ^ net::crc32c(event->frame.frame));
    gw.submit_owned(std::move(event->frame.frame), ts);
    ++r.frames;
    if (r.frames % kMemSampleStride == 0) {
      r.sim_peak_bytes =
          std::max<std::uint64_t>(r.sim_peak_bytes, fleet.approx_memory_bytes());
    }
    if (r.frames % kProgressStride == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      std::fprintf(stderr,
                   "  %" PRIu64 "M frames, sim t=%.1fh, %zu active, "
                   "%.0f frames/s, VmRSS %" PRIu64 " KiB\n",
                   r.frames / 1'000'000, static_cast<double>(ts) / kHourUs,
                   fleet.active_devices(), static_cast<double>(r.frames) / elapsed,
                   status_kib("VmRSS:"));
    }
  }
  r.active_at_end = fleet.active_devices();
  gw.finish();
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();

  r.identifications = gw.events().size();
  r.gateway = gw.stats();
  for (std::size_t s = 0; s < gw.num_shards(); ++s) {
    const sdn::SoftwareSwitch& dp = gw.shard_data_plane(s);
    const sdn::SwitchRuleCache& cache = gw.shard_rule_cache(s);
    r.fast_path += dp.fast_path_packets();
    r.slow_path += dp.slow_path_packets();
    r.cached_path += dp.cached_path_packets();
    r.flow_misses += dp.table().misses();
    r.tier1_hits += dp.table().tier1_hits();
    r.live_flows += dp.table().size();
    r.switch_memory_bytes += dp.memory_bytes();
    r.switch_cache_hits += cache.hits();
    r.switch_cache_misses += cache.misses();
    r.switch_cache_size += cache.size();
    r.switch_cache_invalidated += cache.invalidated_entries();
    r.switch_cache_flushes += cache.flushes();
    r.shard_paths.push_back({dp.fast_path_packets(), dp.cached_path_packets(),
                             dp.slow_path_packets(), dp.table().tier1_hits(),
                             dp.table().masks(), cache.size()});
  }
  r.rule_cache_size = gw.controller().rules().size();
  r.rule_cache_evictions = gw.controller().rules().evictions();
  r.negative_cache_hits = gw.controller().negative_cache_hits();
  r.rule_installs = gw.controller().rule_installs();
  r.invalidations_sent = gw.controller().invalidations_sent();
  r.telemetry_report = gw.registry().text_report();
  return r;
}

void write_json(const Options& opt, const RunResult& r) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_fleet\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"devices\": %" PRIu64 ",\n", opt.devices);
  std::fprintf(f, "    \"simulated_hours\": %" PRIu64 ",\n", opt.hours);
  std::fprintf(f, "    \"shards\": %" PRIu64 ",\n", opt.shards);
  std::fprintf(f, "    \"ring_capacity\": %" PRIu64 ",\n", opt.ring_capacity);
  std::fprintf(f, "    \"flow_idle_timeout_s\": %" PRIu64 ",\n",
               opt.flow_timeout_s);
  std::fprintf(f, "    \"seed\": %" PRIu64 "\n", opt.seed);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"results\": {\n");
  std::fprintf(f, "    \"frames\": %" PRIu64 ",\n", r.frames);
  std::fprintf(f, "    \"wall_s\": %.3f,\n", r.wall_s);
  std::fprintf(f, "    \"frames_per_s\": %.0f,\n",
               static_cast<double>(r.frames) / r.wall_s);
  std::fprintf(f, "    \"identifications\": %" PRIu64 ",\n", r.identifications);
  std::fprintf(f, "    \"stream_hash\": \"%016" PRIx64 "\",\n", r.stream_hash);
  std::fprintf(f, "    \"peak_rss_kib\": %" PRIu64 ",\n", status_kib("VmHWM:"));
  std::fprintf(f, "    \"fleet_sim_peak_bytes\": %" PRIu64 ",\n",
               r.sim_peak_bytes);
  std::fprintf(f, "    \"submit_stalls\": %" PRIu64 ",\n",
               r.gateway.submit_stalls);
  std::fprintf(f, "    \"flows_expired\": %" PRIu64 ",\n",
               r.gateway.flows_expired);
  std::fprintf(f, "    \"fast_path_packets\": %" PRIu64 ",\n", r.fast_path);
  std::fprintf(f, "    \"cached_path_packets\": %" PRIu64 ",\n", r.cached_path);
  std::fprintf(f, "    \"slow_path_packets\": %" PRIu64 ",\n", r.slow_path);
  const double frames_d = r.frames > 0 ? static_cast<double>(r.frames) : 1.0;
  std::fprintf(f, "    \"tier1_hit_rate\": %.6f,\n",
               static_cast<double>(r.tier1_hits) / frames_d);
  std::fprintf(f, "    \"cached_path_rate\": %.6f,\n",
               static_cast<double>(r.cached_path) / frames_d);
  std::fprintf(f, "    \"slow_path_rate\": %.6f,\n",
               static_cast<double>(r.slow_path) / frames_d);
  std::fprintf(f, "    \"flow_misses\": %" PRIu64 ",\n", r.flow_misses);
  std::fprintf(f, "    \"tier1_hits\": %" PRIu64 ",\n", r.tier1_hits);
  std::fprintf(f, "    \"switch_cache_hits\": %" PRIu64 ",\n",
               r.switch_cache_hits);
  std::fprintf(f, "    \"switch_cache_misses\": %" PRIu64 ",\n",
               r.switch_cache_misses);
  std::fprintf(f, "    \"switch_cache_size_at_end\": %" PRIu64 ",\n",
               r.switch_cache_size);
  std::fprintf(f, "    \"switch_cache_invalidated_entries\": %" PRIu64 ",\n",
               r.switch_cache_invalidated);
  std::fprintf(f, "    \"switch_cache_flushes\": %" PRIu64 ",\n",
               r.switch_cache_flushes);
  std::fprintf(f, "    \"negative_cache_hits\": %" PRIu64 ",\n",
               r.negative_cache_hits);
  std::fprintf(f, "    \"rule_installs\": %" PRIu64 ",\n", r.rule_installs);
  std::fprintf(f, "    \"invalidations_sent\": %" PRIu64 ",\n",
               r.invalidations_sent);
  std::fprintf(f, "    \"live_flows_at_end\": %" PRIu64 ",\n", r.live_flows);
  std::fprintf(f, "    \"switch_memory_bytes\": %" PRIu64 ",\n",
               r.switch_memory_bytes);
  std::fprintf(f, "    \"rule_cache_size\": %" PRIu64 ",\n", r.rule_cache_size);
  std::fprintf(f, "    \"rule_cache_evictions\": %" PRIu64 ",\n",
               r.rule_cache_evictions);
  std::fprintf(f, "    \"shards\": [\n");
  for (std::size_t s = 0; s < r.gateway.shards.size(); ++s) {
    const auto& shard = r.gateway.shards[s];
    const auto& paths = r.shard_paths[s];
    const double shard_frames =
        shard.frames_processed > 0
            ? static_cast<double>(shard.frames_processed)
            : 1.0;
    std::fprintf(f,
                 "      {\"frames\": %" PRIu64 ", \"stalls\": %" PRIu64
                 ", \"ring_high_water\": %" PRIu64 ", \"flows_expired\": %" PRIu64
                 ",\n       \"fast_path\": %" PRIu64 ", \"cached_path\": %" PRIu64
                 ", \"slow_path\": %" PRIu64 ", \"tier1_hits\": %" PRIu64
                 ", \"flow_masks\": %" PRIu64 ",\n       \"tier1_hit_rate\": %.6f"
                 ", \"cached_path_rate\": %.6f, \"switch_cache_size\": %" PRIu64
                 "}%s\n",
                 shard.frames_processed, shard.submit_stalls,
                 shard.ring_high_water, shard.flows_expired, paths.fast,
                 paths.cached, paths.slow, paths.tier1_hits, paths.masks,
                 static_cast<double>(paths.tier1_hits) / shard_frames,
                 static_cast<double>(paths.cached) / shard_frames,
                 paths.cache_size,
                 s + 1 < r.gateway.shards.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  // Trained state is built outside the measured span (training the
  // type bank dominates startup, not throughput).
  const sim::Roster& roster = sim::device_roster();
  sim::FingerprintCorpus corpus = bench::paper_corpus();
  core::DeviceIdentifier identifier(bench::paper_identifier_config());
  identifier.train(corpus.type_names, corpus.by_type);
  core::IoTSecurityService service(std::move(identifier),
                                   core::VulnerabilityDb::with_sample_data());

  std::printf("bench_fleet: %" PRIu64 " devices (%zu roster types), %" PRIu64
              " simulated hours, %" PRIu64 " shards\n",
              opt.devices, roster.num_types(), opt.hours, opt.shards);
  const RunResult r = run_fleet(opt, service, roster);

  std::printf("frames            %" PRIu64 "\n", r.frames);
  std::printf("wall_s            %.2f\n", r.wall_s);
  std::printf("frames_per_s      %.0f\n", static_cast<double>(r.frames) / r.wall_s);
  std::printf("identifications   %" PRIu64 "\n", r.identifications);
  std::printf("stream_hash       %016" PRIx64 "\n", r.stream_hash);
  std::printf("peak_rss_kib      %" PRIu64 "\n", status_kib("VmHWM:"));
  std::printf("fleet_sim_peak_b  %" PRIu64 "\n", r.sim_peak_bytes);
  std::printf("submit_stalls     %" PRIu64 "\n", r.gateway.submit_stalls);
  std::printf("flows_expired     %" PRIu64 "\n", r.gateway.flows_expired);
  std::printf("rule_evictions    %" PRIu64 "\n", r.rule_cache_evictions);
  std::printf("fast_path         %" PRIu64 "\n", r.fast_path);
  std::printf("cached_path       %" PRIu64 "\n", r.cached_path);
  std::printf("slow_path         %" PRIu64 "\n", r.slow_path);
  std::printf("neg_cache_hits    %" PRIu64 "\n", r.negative_cache_hits);
  std::printf("\n--- telemetry report (docs/OBSERVABILITY.md format) ---\n%s",
              r.telemetry_report.c_str());
  if (r.active_at_end != 0) {
    std::printf("note: %" PRIu64 " devices still active at horizon\n",
                r.active_at_end);
  }

  write_json(opt, r);
  return 0;
}
