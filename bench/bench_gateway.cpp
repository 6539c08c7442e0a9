// Gateway packet-throughput benchmark, two workloads:
//
//   * Onboarding: the serial SecurityGateway vs the ShardedGateway
//     pipeline at 1/2/4/8 worker shards, replaying the same multi-device
//     onboarding trace (many devices of the 27 catalog types joining in
//     staggered waves). Setup dialogues are slow-path heavy (ARP/DHCP/
//     multicast never leave the controller), so this measures the
//     fingerprinting + classification pipeline, not the flow table.
//   * Steady state: identified devices exchanging sustained traffic over
//     established flows — the data-plane-bound workload where per-packet
//     flow-table lookup dominates (one hash probe per match shape in the
//     tuple-space table).
//
// Wall-clock (UseRealTime) is the honest metric for a threaded pipeline;
// items/s is frames through the gateway. Reference numbers live in
// BENCH_gateway.json.
//
// Note: the speedup of the sharded pipeline is bounded by the physical
// core count — on a single-core container the 1-shard run measures pure
// pipeline overhead, not parallelism.
//
// Run from the release preset:
//   cmake --preset release && cmake --build --preset release -j
//   ./build-release/bench/bench_gateway
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "core/vulnerability_db.hpp"
#include "net/builder.hpp"
#include "net/protocols.hpp"
#include "simnet/device_catalog.hpp"
#include "simnet/traffic_generator.hpp"

namespace {

using namespace iotsentinel;

/// Setup dialogues per catalog type in the onboarding trace; the device
/// count is derived from the loaded roster (kTypeMultiplier x number of
/// types) instead of a magic total, so the workload tracks catalog edits.
constexpr std::uint32_t kTypeMultiplier = 28;

std::uint32_t num_trace_devices() {
  return kTypeMultiplier *
         static_cast<std::uint32_t>(sim::device_catalog().size());
}

core::IoTSecurityService make_service(const sim::FingerprintCorpus& corpus) {
  core::DeviceIdentifier identifier(bench::paper_identifier_config());
  identifier.train(corpus.type_names, corpus.by_type);
  return core::IoTSecurityService(std::move(identifier),
                                  core::VulnerabilityDb::with_sample_data());
}

/// One mixed capture: setup dialogues for every catalog type in staggered
/// onboarding waves, merged into a single timestamp-ordered frame stream.
std::vector<sim::TimedFrame> make_trace() {
  const auto& catalog = sim::device_catalog();
  std::vector<sim::TimedFrame> trace;
  const std::uint32_t num_devices = num_trace_devices();
  for (std::uint32_t d = 0; d < num_devices; ++d) {
    const sim::DeviceProfile& profile = catalog[d % catalog.size()];
    sim::GeneratorConfig config;
    config.start_time_us = (d % 16) * 500'000;  // 16 overlapping waves
    sim::TrafficGenerator gen(config);
    ml::Rng rng(9000 + d);
    const auto mac = sim::TrafficGenerator::mint_mac(profile, 1000 + d);
    const auto ip = net::Ipv4Address::of(
        192, 168, static_cast<std::uint8_t>(1 + d / 200),
        static_cast<std::uint8_t>(2 + d % 200));
    for (auto& tf : gen.generate(profile, mac, ip, rng)) {
      trace.push_back(std::move(tf));
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const sim::TimedFrame& a, const sim::TimedFrame& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return trace;
}

/// Steady-state workload shape: identified devices, a few long-lived
/// flows each, sustained packets per flow. ~1500 installed micro-flows in
/// the serial gateway's table, ~60k timed frames.
constexpr std::uint32_t kSteadyDevices = 512;
constexpr std::uint32_t kSteadyFlowsPerDevice = 3;
constexpr std::uint32_t kSteadyPacketsPerFlow = 40;

net::MacAddress steady_mac(std::uint32_t d) {
  return net::MacAddress::of(0x02, 0x77, 0,
                             static_cast<std::uint8_t>(d >> 8),
                             static_cast<std::uint8_t>(d), 1);
}

/// Round-robin interleaved UDP traffic over established device flows: all
/// flows stay concurrently live, as behind a real gateway under load.
std::vector<sim::TimedFrame> make_steady_trace() {
  std::vector<sim::TimedFrame> trace;
  trace.reserve(static_cast<std::size_t>(kSteadyDevices) *
                kSteadyFlowsPerDevice * kSteadyPacketsPerFlow);
  const net::MacAddress gw_mac = net::MacAddress::of(2, 0, 0, 0, 0, 1);
  std::uint64_t ts = 1'000'000;
  for (std::uint32_t p = 0; p < kSteadyPacketsPerFlow; ++p) {
    for (std::uint32_t d = 0; d < kSteadyDevices; ++d) {
      const auto src_ip = net::Ipv4Address::of(
          192, 168, static_cast<std::uint8_t>(1 + d / 200),
          static_cast<std::uint8_t>(2 + d % 200));
      for (std::uint32_t f = 0; f < kSteadyFlowsPerDevice; ++f) {
        // Whitelist-friendly remote endpoint per (device, flow).
        const auto dst_ip = net::Ipv4Address::of(
            104, 20, static_cast<std::uint8_t>(d), static_cast<std::uint8_t>(f));
        sim::TimedFrame tf;
        tf.timestamp_us = ts;
        tf.frame = net::build_ipv4(
            steady_mac(d), gw_mac, src_ip, dst_ip, net::ipproto::kUdp,
            net::build_udp_payload(
                static_cast<std::uint16_t>(50000 + f),
                static_cast<std::uint16_t>(443 + f), {}));
        trace.push_back(std::move(tf));
        ts += 50;
      }
    }
  }
  return trace;
}

/// Marks every steady-state device Trusted so its flows are forwarded and
/// installed (bypasses identification: this workload measures the data
/// plane, not the classifier).
template <typename Gateway>
void install_steady_rules(Gateway& gw) {
  for (std::uint32_t d = 0; d < kSteadyDevices; ++d) {
    gw.controller().apply_rule(
        {.device = steady_mac(d), .level = sdn::IsolationLevel::kTrusted}, 0);
  }
}

/// Shared trained state (built once; training the 27-type bank dominates
/// startup, not measurement).
struct GatewayFixtureState {
  sim::FingerprintCorpus corpus = bench::paper_corpus();
  core::IoTSecurityService service = make_service(corpus);
  std::vector<sim::TimedFrame> trace = make_trace();
  std::vector<sim::TimedFrame> steady_trace = make_steady_trace();
};

GatewayFixtureState& state() {
  static GatewayFixtureState s;
  return s;
}

/// Baseline: the serial gateway, one frame at a time through one
/// extractor, one classifier, one data plane.
void BM_GatewaySerial(benchmark::State& bm) {
  auto& s = state();
  std::size_t events = 0;
  for (auto _ : bm) {
    core::SecurityGateway gw(s.service);
    for (const auto& tf : s.trace) gw.on_frame(tf.frame, tf.timestamp_us);
    gw.finish_pending_captures();
    events = gw.events().size();
    benchmark::DoNotOptimize(events);
  }
  bm.SetItemsProcessed(static_cast<std::int64_t>(bm.iterations()) *
                       static_cast<std::int64_t>(s.trace.size()));
  bm.counters["devices"] = static_cast<double>(events);
}
BENCHMARK(BM_GatewaySerial)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The sharded pipeline end to end: submit every frame (zero-copy ingest),
/// then finish() — the measured span covers ingest, all shard work,
/// batched classification and the full drain.
void BM_GatewaySharded(benchmark::State& bm) {
  auto& s = state();
  const auto shards = static_cast<std::size_t>(bm.range(0));
  std::size_t events = 0;
  for (auto _ : bm) {
    core::ShardedGatewayConfig config;
    config.num_shards = shards;
    core::ShardedGateway gw(s.service, config);
    for (const auto& tf : s.trace) gw.submit(tf.frame, tf.timestamp_us);
    gw.finish();
    events = gw.events().size();
    benchmark::DoNotOptimize(events);
  }
  bm.SetItemsProcessed(static_cast<std::int64_t>(bm.iterations()) *
                       static_cast<std::int64_t>(s.trace.size()));
  bm.counters["devices"] = static_cast<double>(events);
  bm.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_GatewaySharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Steady state through the serial gateway: every flow's first packet
/// takes the slow path and installs a micro-flow; the remaining traffic is
/// pure fast path, i.e. per-packet flow-table lookup over ~1.5k installed
/// flows.
void BM_GatewaySteadySerial(benchmark::State& bm) {
  auto& s = state();
  std::uint64_t fast = 0;
  for (auto _ : bm) {
    core::SecurityGateway gw(s.service);
    install_steady_rules(gw);
    for (const auto& tf : s.steady_trace) gw.on_frame(tf.frame, tf.timestamp_us);
    fast = gw.data_plane().fast_path_packets();
    benchmark::DoNotOptimize(fast);
  }
  bm.SetItemsProcessed(static_cast<std::int64_t>(bm.iterations()) *
                       static_cast<std::int64_t>(s.steady_trace.size()));
  bm.counters["fast_path"] = static_cast<double>(fast);
  bm.counters["flows"] =
      static_cast<double>(kSteadyDevices) * kSteadyFlowsPerDevice;
}
BENCHMARK(BM_GatewaySteadySerial)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Steady state through the sharded pipeline: per-shard tables hold 1/N of
/// the flows; lookups additionally run concurrently when cores allow.
void BM_GatewaySteadySharded(benchmark::State& bm) {
  auto& s = state();
  const auto shards = static_cast<std::size_t>(bm.range(0));
  for (auto _ : bm) {
    core::ShardedGatewayConfig config;
    config.num_shards = shards;
    core::ShardedGateway gw(s.service, config);
    install_steady_rules(gw);
    for (const auto& tf : s.steady_trace) gw.submit(tf.frame, tf.timestamp_us);
    gw.finish();
  }
  bm.SetItemsProcessed(static_cast<std::int64_t>(bm.iterations()) *
                       static_cast<std::int64_t>(s.steady_trace.size()));
  bm.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_GatewaySteadySharded)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
