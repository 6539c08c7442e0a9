// Retrain-under-load benchmark: the ROADMAP acceptance number for the
// hot model swap — zero added tail latency on `assess_batch` while
// per-type forests are rebuilt and published concurrently.
//
// Two phases:
//
//  1. Latency differential (the acceptance criterion). One serving
//     thread drives `IoTSecurityService::assess_batch` through
//     ml::ForestBankPublisher snapshots — pin, score a batch, unpin —
//     exactly like the sharded gateway's classifier thread. Baseline
//     (publisher idle) and during-retrain (a background retrainer
//     rebuilding one type at a time and swapping the bank underneath)
//     rounds are *interleaved* — B R B R ... — and per-batch samples
//     pooled per condition, so machine-level drift and external
//     scheduling spikes hit both distributions equally instead of
//     biasing whichever condition ran later. The retrainer runs at
//     background (SCHED_IDLE) scheduling priority — the production
//     posture on gateway hardware, where training is batch work that
//     must only consume cycles the serving path leaves idle.
//     BENCH_retrain.json records both latency distributions; p99 during
//     retrains must stay within 5% of baseline.
//
//  2. Fleet realism. The 4-shard gateway ingests FleetSim traffic with
//     `model_publisher` wired while the retrainer swaps underneath, and
//     sdn::EnforcementAuditor replays every fast-path verdict against
//     the controller oracle — violations must stay zero and every event
//     must carry a published bank version.
//
// Self-timed (the phases run for seconds and need precise per-batch
// stamps — Google Benchmark's repetition model does not fit). Run from
// the release preset:
//   ./build-release/bench/bench_retrain
// CI smoke-runs `--small` (see .github/workflows/ci.yml).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "bench_util.hpp"
#include "core/classifier_bank.hpp"
#include "core/gateway_pool.hpp"
#include "core/security_service.hpp"
#include "core/vulnerability_db.hpp"
#include "ml/hot_swap.hpp"
#include "sdn/enforcement_audit.hpp"
#include "simnet/device_catalog.hpp"
#include "simnet/fleet_sim.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace iotsentinel;

constexpr std::uint64_t kHourUs = 3'600'000'000ULL;

struct Options {
  std::uint64_t batch_size = 64;
  std::uint64_t batches = 8'000;
  std::uint64_t warmup_batches = 400;
  /// Idle gap between batches, modelling batch arrival (fingerprints
  /// complete when devices finish setup; the classifier thread is never
  /// 100% duty). The gap is also where an idle-priority retrainer gets
  /// its CPU time on small gateway hardware.
  std::uint64_t batch_gap_us = 500;
  /// Pause between one-type rebuilds. The default models an aggressive
  /// production cadence (confirmed-capture folding is a
  /// seconds-to-minutes event, not a per-batch one) while still putting
  /// tens of swaps inside the measured window. 0 = unpaced tight loop —
  /// that measures raw CPU/cache contention from *continuous* training
  /// (interesting, but not the swap-mechanism acceptance number).
  std::uint64_t retrain_interval_ms = 250;
  std::uint64_t devices = 20'000;
  std::uint64_t hours = 6;
  std::uint64_t shards = 4;
  std::uint64_t seed = 1;
  std::string json_path = "BENCH_retrain.json";
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--batch-size N] [--batches N] [--batch-gap-us N]\n"
               "          [--retrain-interval-ms N] [--devices N] [--hours H]\n"
               "          [--shards S] [--seed X] [--json PATH] [--small]\n",
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
    if (std::strcmp(argv[i], "--batch-size") == 0) {
      if (!read_u64(opt.batch_size)) return false;
    } else if (std::strcmp(argv[i], "--batches") == 0) {
      if (!read_u64(opt.batches)) return false;
    } else if (std::strcmp(argv[i], "--batch-gap-us") == 0) {
      if (i + 1 >= argc) return false;
      opt.batch_gap_us = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--retrain-interval-ms") == 0) {
      if (i + 1 >= argc) return false;
      opt.retrain_interval_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--devices") == 0) {
      if (!read_u64(opt.devices)) return false;
    } else if (std::strcmp(argv[i], "--hours") == 0) {
      if (!read_u64(opt.hours)) return false;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (!read_u64(opt.shards)) return false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!read_u64(opt.seed)) return false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) return false;
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--small") == 0) {
      opt.batches = 800;
      opt.warmup_batches = 100;
      opt.devices = 2'000;
      opt.hours = 2;
    } else {
      return false;
    }
  }
  return true;
}

/// One retrain plan per bank type, built from an independent capture of
/// the same types — the inputs a background retrainer folds in. Plans
/// are precomputed so only the train-and-publish work runs during the
/// measured window.
std::vector<core::ClassifierBank::RetrainPlan> make_retrain_plans(
    const core::ClassifierBank& bank, std::uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(bank.num_types());
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    names.push_back(bank.type_name(t));
  }
  const auto corpus = sim::generate_corpus_for(names, /*runs_per_type=*/6,
                                               seed);
  std::vector<std::vector<fp::FixedFingerprint>> fixed;
  for (const auto& runs : corpus.by_type) {
    auto& out = fixed.emplace_back();
    for (const auto& f : runs) out.push_back(f.to_fixed());
  }
  std::vector<core::ClassifierBank::RetrainPlan> plans;
  plans.reserve(bank.num_types());
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    std::vector<const fp::FixedFingerprint*> pool;
    for (std::size_t o = 0; o < fixed.size(); ++o) {
      if (o == t) continue;
      for (const auto& f : fixed[o]) pool.push_back(&f);
    }
    plans.push_back(bank.retrain_plan(t, fixed[t], pool));
  }
  return plans;
}

std::vector<ml::RandomForest> bank_forests(const core::ClassifierBank& bank) {
  std::vector<ml::RandomForest> forests;
  forests.reserve(bank.num_types());
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    forests.push_back(bank.forest(t));
  }
  return forests;
}

/// Drops the calling thread to background (idle) scheduling priority —
/// the production posture for a retrainer sharing a small gateway CPU
/// with the serving path: training consumes only cycles the serving
/// thread leaves idle, and is preempted the moment serving wakes. Both
/// calls are best-effort (never privileged); off Linux this is a no-op.
void make_thread_background() {
#ifdef __linux__
  sched_param sp{};
  if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) {
    // SCHED_IDLE unavailable: settle for the weakest nice level.
    sp = sched_param{};
    (void)pthread_setschedparam(pthread_self(), SCHED_OTHER, &sp);
  }
#endif
}

/// Runs the retrainer loop until `stop`: one type per round, alternating
/// two plan sets so every publish installs a genuinely different forest,
/// paced by `retrain_interval_ms` between rebuilds.
void retrainer_loop(ml::ForestBankPublisher& publisher,
                    const std::vector<core::ClassifierBank::RetrainPlan>& a,
                    const std::vector<core::ClassifierBank::RetrainPlan>& b,
                    std::uint64_t retrain_interval_ms,
                    const std::atomic<bool>& stop) {
  make_thread_background();
  std::size_t round = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto& plans = (round / a.size()) % 2 ? b : a;
    const std::size_t t = round % plans.size();
    publisher.rebuild_type(t, plans[t].data, plans[t].forest);
    ++round;
    if (retrain_interval_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retrain_interval_ms));
    }
  }
}

struct LatencySummary {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t retrains_during = 0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// The classifier thread's serving loop, isolated: `batches`
/// assess_batch calls through publisher snapshots, appending the
/// per-batch wall time (µs) to `samples`.
void measure_round(const core::IoTSecurityService& service,
                   ml::ForestBankPublisher& publisher,
                   ml::ForestBankPublisher::ReaderHandle& reader,
                   const std::vector<const fp::Fingerprint*>& probes,
                   const Options& opt, std::uint64_t batches,
                   std::vector<double>* samples) {
  std::vector<core::ServiceVerdict> verdicts;
  std::vector<const fp::Fingerprint*> batch(opt.batch_size);
  for (std::uint64_t n = 0; n < batches; ++n) {
    for (std::uint64_t i = 0; i < opt.batch_size; ++i) {
      batch[i] = probes[(n * opt.batch_size + i) % probes.size()];
    }
    const auto t0 = std::chrono::steady_clock::now();
    {
      const auto bank = publisher.acquire(reader);
      service.assess_batch(batch, verdicts, bank->engines);
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (samples != nullptr) {
      samples->push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (opt.batch_gap_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(opt.batch_gap_us));
    }
  }
}

LatencySummary summarize(std::vector<double> samples,
                         std::uint64_t retrains_during) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.p50_us = percentile(samples, 0.50);
  s.p90_us = percentile(samples, 0.90);
  s.p99_us = percentile(samples, 0.99);
  s.p999_us = percentile(samples, 0.999);
  s.max_us = samples.empty() ? 0.0 : samples.back();
  s.batches = samples.size();
  s.retrains_during = retrains_during;
  return s;
}

struct FleetSummary {
  std::uint64_t frames = 0;
  double wall_s = 0.0;
  std::uint64_t identifications = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t bank_epoch = 0;
  std::uint64_t swap_count = 0;
  double swap_mean_us = 0.0;
  std::uint64_t audit_checked = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t model_version_min = 0;
  std::uint64_t model_version_max = 0;
};

FleetSummary run_fleet_under_retrain(const Options& opt,
                                     const core::IoTSecurityService& service) {
  sim::FleetConfig fleet_config;
  fleet_config.seed = opt.seed;
  fleet_config.sim_end_us = opt.hours * kHourUs;
  fleet_config.join_window_us =
      std::min<std::uint64_t>(kHourUs, fleet_config.sim_end_us / 4);
  sim::FleetSim fleet(sim::device_roster(), opt.devices, fleet_config);

  ml::ForestBankPublisher publisher(
      bank_forests(service.identifier().bank()));
  core::ShardedGatewayConfig gw_config;
  gw_config.num_shards = opt.shards;
  gw_config.model_publisher = &publisher;
  core::ShardedGateway gw(service, gw_config);
  sdn::EnforcementAuditor auditor(gw.controller());
  gw.set_audit(auditor.hook());

  const auto plans_a =
      make_retrain_plans(service.identifier().bank(), opt.seed + 100);
  const auto plans_b =
      make_retrain_plans(service.identifier().bank(), opt.seed + 101);
  std::atomic<bool> stop_retrainer{false};
  std::thread retrainer([&] {
    retrainer_loop(publisher, plans_a, plans_b, opt.retrain_interval_ms,
                   stop_retrainer);
  });

  FleetSummary r;
  const auto start = std::chrono::steady_clock::now();
  while (auto event = fleet.next()) {
    gw.submit_owned(std::move(event->frame.frame), event->frame.timestamp_us);
    ++r.frames;
  }
  gw.finish();
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop_retrainer.store(true, std::memory_order_release);
  retrainer.join();

  const auto& events = gw.events();
  r.identifications = events.size();
  for (const auto& e : events) {
    r.model_version_min = r.model_version_min == 0
                              ? e.model_version
                              : std::min(r.model_version_min, e.model_version);
    r.model_version_max = std::max(r.model_version_max, e.model_version);
  }
  r.retrains_completed = publisher.retrains_completed();
  r.bank_epoch = publisher.version();
  const auto& swap_hist = gw.registry().histogram("hotswap.swap_latency_us");
  r.swap_count = swap_hist.count();
  r.swap_mean_us = r.swap_count > 0 ? static_cast<double>(swap_hist.sum()) /
                                          static_cast<double>(r.swap_count)
                                    : 0.0;
  r.audit_checked = auditor.checked();
  r.audit_violations = auditor.violations();
  return r;
}

void print_latency(const char* label, const LatencySummary& s) {
  std::printf(
      "%-16s p50 %8.1f us   p90 %8.1f us   p99 %8.1f us   "
      "p99.9 %8.1f us   max %8.1f us   (%" PRIu64 " batches, %" PRIu64
      " retrains during)\n",
      label, s.p50_us, s.p90_us, s.p99_us, s.p999_us, s.max_us, s.batches,
      s.retrains_during);
}

void write_latency_json(std::FILE* f, const char* key,
                        const LatencySummary& s, bool trailing_comma) {
  std::fprintf(f,
               "    \"%s\": {\"p50_us\": %.2f, \"p90_us\": %.2f, "
               "\"p99_us\": %.2f, \"p999_us\": %.2f, \"max_us\": %.2f,\n"
               "      \"batches\": %" PRIu64 ", \"retrains_during\": %" PRIu64
               "}%s\n",
               key, s.p50_us, s.p90_us, s.p99_us, s.p999_us, s.max_us,
               s.batches, s.retrains_during, trailing_comma ? "," : "");
}

void write_json(const Options& opt, const LatencySummary& baseline,
                const LatencySummary& retrain, double p99_delta_pct,
                const FleetSummary& fleet) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_retrain\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"batch_size\": %" PRIu64 ",\n", opt.batch_size);
  std::fprintf(f, "    \"batches\": %" PRIu64 ",\n", opt.batches);
  std::fprintf(f, "    \"batch_gap_us\": %" PRIu64 ",\n", opt.batch_gap_us);
  std::fprintf(f, "    \"retrain_interval_ms\": %" PRIu64 ",\n",
               opt.retrain_interval_ms);
  std::fprintf(f, "    \"devices\": %" PRIu64 ",\n", opt.devices);
  std::fprintf(f, "    \"simulated_hours\": %" PRIu64 ",\n", opt.hours);
  std::fprintf(f, "    \"shards\": %" PRIu64 ",\n", opt.shards);
  std::fprintf(f, "    \"seed\": %" PRIu64 "\n", opt.seed);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"assess_batch_latency\": {\n");
  write_latency_json(f, "baseline", baseline, /*trailing_comma=*/true);
  write_latency_json(f, "during_retrain", retrain, /*trailing_comma=*/true);
  std::fprintf(f, "    \"p99_delta_pct\": %.2f,\n", p99_delta_pct);
  std::fprintf(f, "    \"within_5pct\": %s\n",
               p99_delta_pct <= 5.0 ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet_under_retrain\": {\n");
  std::fprintf(f, "    \"frames\": %" PRIu64 ",\n", fleet.frames);
  std::fprintf(f, "    \"wall_s\": %.3f,\n", fleet.wall_s);
  std::fprintf(f, "    \"frames_per_s\": %.0f,\n",
               fleet.wall_s > 0.0
                   ? static_cast<double>(fleet.frames) / fleet.wall_s
                   : 0.0);
  std::fprintf(f, "    \"identifications\": %" PRIu64 ",\n",
               fleet.identifications);
  std::fprintf(f, "    \"retrains_completed\": %" PRIu64 ",\n",
               fleet.retrains_completed);
  std::fprintf(f, "    \"bank_epoch\": %" PRIu64 ",\n", fleet.bank_epoch);
  std::fprintf(f, "    \"swap_count\": %" PRIu64 ",\n", fleet.swap_count);
  std::fprintf(f, "    \"swap_mean_us\": %.2f,\n", fleet.swap_mean_us);
  std::fprintf(f, "    \"audit_checked\": %" PRIu64 ",\n", fleet.audit_checked);
  std::fprintf(f, "    \"audit_violations\": %" PRIu64 ",\n",
               fleet.audit_violations);
  std::fprintf(f, "    \"model_version_min\": %" PRIu64 ",\n",
               fleet.model_version_min);
  std::fprintf(f, "    \"model_version_max\": %" PRIu64 "\n",
               fleet.model_version_max);
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

  // Trained state (and the probe set) is built outside every measured
  // span — training dominates startup, not serving latency.
  sim::FingerprintCorpus corpus = bench::paper_corpus();
  core::DeviceIdentifier identifier(bench::paper_identifier_config());
  identifier.train(corpus.type_names, corpus.by_type);
  core::IoTSecurityService service(std::move(identifier),
                                   core::VulnerabilityDb::with_sample_data());
  const core::ClassifierBank& bank = service.identifier().bank();

  const auto probe_corpus =
      sim::generate_corpus_for(corpus.type_names, /*runs_per_type=*/4, 4242);
  std::vector<const fp::Fingerprint*> probes;
  for (const auto& runs : probe_corpus.by_type) {
    for (const auto& f : runs) probes.push_back(&f);
  }

  std::printf("bench_retrain: %zu types, batch=%" PRIu64 " x %" PRIu64
              " batches, fleet %" PRIu64 " devices / %" PRIu64
              "h / %" PRIu64 " shards\n",
              bank.num_types(), opt.batch_size, opt.batches, opt.devices,
              opt.hours, opt.shards);

  // Phase 1: interleaved latency differential. Baseline and
  // during-retrain rounds alternate (B R B R ...) and pool per-batch
  // samples per condition, so slow machine-level drift and external
  // scheduling spikes land in both pools instead of biasing whichever
  // condition happened to run later.
  ml::ForestBankPublisher publisher(bank_forests(bank));
  telemetry::Registry registry;
  publisher.bind_telemetry({
      .retrains = &registry.counter("hotswap.retrains_completed"),
      .bank_epoch = &registry.gauge("hotswap.bank_epoch"),
      .swap_latency_us = &registry.histogram("hotswap.swap_latency_us"),
      .retired_banks = &registry.gauge("hotswap.retired_banks"),
  });
  const auto plans_a = make_retrain_plans(bank, opt.seed + 10);
  const auto plans_b = make_retrain_plans(bank, opt.seed + 11);

  auto reader = publisher.register_reader();
  measure_round(service, publisher, reader, probes, opt, opt.warmup_batches,
                /*samples=*/nullptr);

  constexpr std::uint64_t kRounds = 4;
  const std::uint64_t per_round =
      std::max<std::uint64_t>(1, opt.batches / kRounds);
  std::vector<double> base_samples;
  std::vector<double> retrain_samples;
  base_samples.reserve(per_round * kRounds);
  retrain_samples.reserve(per_round * kRounds);
  std::uint64_t retrains_during = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    measure_round(service, publisher, reader, probes, opt, per_round,
                  &base_samples);
    const std::uint64_t before = publisher.retrains_completed();
    std::atomic<bool> stop_retrainer{false};
    std::thread retrainer([&] {
      retrainer_loop(publisher, plans_a, plans_b, opt.retrain_interval_ms,
                     stop_retrainer);
    });
    measure_round(service, publisher, reader, probes, opt, per_round,
                  &retrain_samples);
    stop_retrainer.store(true, std::memory_order_release);
    retrainer.join();
    retrains_during += publisher.retrains_completed() - before;
  }
  const LatencySummary baseline =
      summarize(std::move(base_samples), /*retrains_during=*/0);
  const LatencySummary retrain =
      summarize(std::move(retrain_samples), retrains_during);
  print_latency("baseline", baseline);
  print_latency("during_retrain", retrain);

  const double p99_delta_pct =
      baseline.p99_us > 0.0
          ? (retrain.p99_us - baseline.p99_us) / baseline.p99_us * 100.0
          : 0.0;
  std::printf("p99 delta         %+.2f%% (acceptance: within +5%%) -> %s\n",
              p99_delta_pct, p99_delta_pct <= 5.0 ? "PASS" : "FAIL");

  // Phase 2: fleet traffic through the sharded gateway while swapping.
  const FleetSummary fleet = run_fleet_under_retrain(opt, service);
  std::printf("fleet             %" PRIu64 " frames in %.2fs (%.0f frames/s), "
              "%" PRIu64 " identifications\n",
              fleet.frames, fleet.wall_s,
              fleet.wall_s > 0.0
                  ? static_cast<double>(fleet.frames) / fleet.wall_s
                  : 0.0,
              fleet.identifications);
  std::printf("retrains          %" PRIu64 " (bank epoch %" PRIu64
              ", swap mean %.1f us)\n",
              fleet.retrains_completed, fleet.bank_epoch, fleet.swap_mean_us);
  std::printf("audit             %" PRIu64 " checked, %" PRIu64
              " violations\n",
              fleet.audit_checked, fleet.audit_violations);
  std::printf("model versions    [%" PRIu64 ", %" PRIu64 "]\n",
              fleet.model_version_min, fleet.model_version_max);

  write_json(opt, baseline, retrain, p99_delta_pct, fleet);
  return fleet.audit_violations == 0 ? 0 : 1;
}
