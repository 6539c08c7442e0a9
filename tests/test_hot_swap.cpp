// Hot model swap suite: epoch/RCU publication of compiled forest banks
// (ml/hot_swap.hpp) and its wiring into the sharded gateway.
//
//   * Differential proof: after retraining type T through the publisher,
//     every other type's predictions are *bit-identical* to the pre-swap
//     bank, and T's engine is bit-identical to an in-place add_type
//     retrain with the same inputs.
//   * Epoch reclamation: a retired bank is never freed while any reader
//     holds it (operator new/delete counting, as in the compiled-forest
//     suite), and is freed once the last pin drains.
//   * Swap-under-load stress: readers acquiring while several publishers
//     swap concurrently always observe exactly one published bank — the
//     engines of a snapshot carry one version tag, never a torn mix.
//   * Gateway integration: a no-swap publisher gateway is event-identical
//     to the fixed-model gateway, and the enforcement auditor sees zero
//     violations at 1/2/4 shards while a background retrainer swaps
//     continuously (the model-swap cache-invalidation fan-out regression
//     test).
//
// The HotSwap*/ForestBankPublisher suites run under the CI TSan job.
#include "ml/hot_swap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <tuple>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/classifier_bank.hpp"
#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "ml/rng.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"
#include "sdn/enforcement_audit.hpp"
#include "simnet/corpus.hpp"
#include "simnet/device_catalog.hpp"
#include "simnet/traffic_generator.hpp"
#include "telemetry/registry.hpp"

/// Binary-wide allocation/free counters so "never freed while held" and
/// "acquire is allocation-free" are asserted, not assumed.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
std::atomic<std::size_t> g_heap_frees{0};

void* counted_malloc(std::size_t size) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

void counted_free(void* p) noexcept {
  if (p != nullptr) ++g_heap_frees;
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms (e.g. std::stable_sort's temporary buffer) must come
// from the same heap as the replaced deletes that free them.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace iotsentinel::core {
namespace {

// ------------------------------------------------------------- fixtures

/// A trained 4-type bank plus its per-type fixed fingerprints.
struct TrainedBank {
  ClassifierBank bank;
  std::vector<std::string> type_names;
  std::vector<std::vector<fp::FixedFingerprint>> fixed;
};

TrainedBank make_trained_bank() {
  const auto corpus = sim::generate_corpus_for(
      {"Aria", "HueBridge", "MAXGateway", "WeMoLink"}, 10, 321);
  TrainedBank t;
  t.type_names = corpus.type_names;
  for (const auto& runs : corpus.by_type) {
    auto& out = t.fixed.emplace_back();
    for (const auto& f : runs) out.push_back(f.to_fixed());
  }
  t.bank.train(corpus.type_names, t.fixed);
  return t;
}

/// Copies of a bank's training-side forests (seeds a publisher).
std::vector<ml::RandomForest> bank_forests(const ClassifierBank& bank) {
  std::vector<ml::RandomForest> forests;
  forests.reserve(bank.num_types());
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    forests.push_back(bank.forest(t));
  }
  return forests;
}

/// Copies of a bank's compiled engines (a publish_engines payload).
std::vector<ml::CompiledForest> engine_copies(const ClassifierBank& bank) {
  std::vector<ml::CompiledForest> engines;
  engines.reserve(bank.num_types());
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    engines.push_back(bank.compiled(t));
  }
  return engines;
}

/// Fresh fixed fingerprints of one device-type from an independent corpus
/// (the "newly confirmed" positives a retrain folds in).
std::vector<fp::FixedFingerprint> fresh_positives(const std::string& type,
                                                  std::uint64_t seed) {
  const auto corpus = sim::generate_corpus_for({type}, 8, seed);
  std::vector<fp::FixedFingerprint> out;
  for (const auto& f : corpus.by_type.front()) out.push_back(f.to_fixed());
  return out;
}

std::vector<const fp::FixedFingerprint*> negative_pool_excluding(
    const std::vector<std::vector<fp::FixedFingerprint>>& fixed,
    std::size_t skip) {
  std::vector<const fp::FixedFingerprint*> pool;
  for (std::size_t t = 0; t < fixed.size(); ++t) {
    if (t == skip) continue;
    for (const auto& f : fixed[t]) pool.push_back(&f);
  }
  return pool;
}

/// scores[t][i] = engines[t].positive_score(probes[i]).
std::vector<std::vector<double>> engine_scores(
    std::span<const ml::CompiledForest> engines,
    const std::vector<fp::FixedFingerprint>& probes) {
  std::vector<std::vector<double>> scores(engines.size());
  for (std::size_t t = 0; t < engines.size(); ++t) {
    scores[t].reserve(probes.size());
    for (const auto& probe : probes) {
      scores[t].push_back(engines[t].positive_score(probe));
    }
  }
  return scores;
}

/// Training fingerprints plus uniform-random probes of F' dimensionality.
std::vector<fp::FixedFingerprint> make_probes(const TrainedBank& trained) {
  std::vector<fp::FixedFingerprint> probes;
  for (const auto& per_type : trained.fixed) {
    probes.insert(probes.end(), per_type.begin(), per_type.end());
  }
  ml::Rng rng(99);
  for (int i = 0; i < 16; ++i) {
    fp::FixedFingerprint p(fp::kFixedDims);
    for (auto& v : p) v = static_cast<float>(rng.uniform(0.0, 4.0));
    probes.push_back(std::move(p));
  }
  return probes;
}

// ---------------------------------------------------- ForestBankPublisher

TEST(ForestBankPublisher, InitialBankServesSourceBankScoresExactly) {
  const auto trained = make_trained_bank();
  ml::ForestBankPublisher publisher(bank_forests(trained.bank));
  EXPECT_EQ(publisher.version(), 1u);
  EXPECT_EQ(publisher.num_types(), trained.bank.num_types());
  EXPECT_EQ(publisher.retrains_completed(), 0u);
  EXPECT_EQ(publisher.retired_banks(), 0u);

  auto reader = publisher.register_reader();
  const auto bank = publisher.acquire(reader);
  EXPECT_EQ(bank->version, 1u);
  EXPECT_EQ(bank->retrained_type, ml::ForestBank::kNoRetrainedType);
  ASSERT_EQ(bank->engines.size(), trained.bank.num_types());
  for (std::size_t t = 0; t < trained.bank.num_types(); ++t) {
    for (const auto& per_type : trained.fixed) {
      for (const auto& probe : per_type) {
        EXPECT_EQ(bank->engines[t].positive_score(probe),
                  trained.bank.compiled(t).positive_score(probe))
            << "type " << t;
      }
    }
  }
}

// The tentpole differential proof: rebuilding one type must leave every
// other type's predictions bit-identical, and must equal an in-place
// add_type retrain of the same bank with the same inputs.
TEST(ForestBankPublisher, UntouchedTypesServeBitIdenticalScoresAcrossSwap) {
  auto trained = make_trained_bank();
  constexpr std::size_t kRetrained = 1;  // HueBridge
  const auto probes = make_probes(trained);

  ml::ForestBankPublisher publisher(bank_forests(trained.bank));
  auto reader = publisher.register_reader();

  std::vector<std::vector<double>> before;
  {
    const auto bank = publisher.acquire(reader);
    before = engine_scores(bank->engines, probes);
  }

  const auto positives =
      fresh_positives(trained.type_names[kRetrained], 4242);
  const auto pool = negative_pool_excluding(trained.fixed, kRetrained);
  const auto plan = trained.bank.retrain_plan(kRetrained, positives, pool);
  EXPECT_EQ(publisher.rebuild_type(kRetrained, plan.data, plan.forest), 2u);
  EXPECT_EQ(publisher.version(), 2u);
  EXPECT_EQ(publisher.retrains_completed(), 1u);

  const auto bank = publisher.acquire(reader);
  EXPECT_EQ(bank->version, 2u);
  EXPECT_EQ(bank->retrained_type, kRetrained);
  const auto after = engine_scores(bank->engines, probes);
  for (std::size_t t = 0; t < after.size(); ++t) {
    if (t == kRetrained) continue;
    EXPECT_EQ(after[t], before[t])
        << "untouched type " << t << " drifted across the swap";
  }

  // The retrained engine equals an in-place add_type with the same
  // inputs: retrain_plan replays add_type's exact RNG stream.
  ClassifierBank inplace = trained.bank;
  ASSERT_EQ(inplace.add_type(trained.type_names[kRetrained], positives, pool),
            kRetrained);
  for (const auto& probe : probes) {
    EXPECT_EQ(bank->engines[kRetrained].positive_score(probe),
              inplace.compiled(kRetrained).positive_score(probe));
  }

  // Fold-back for persistence: replace_forest(forest_copy(T)) reproduces
  // the published engine from the master bank (what the incremental
  // model-store rewrite serializes).
  trained.bank.replace_forest(kRetrained, publisher.forest_copy(kRetrained));
  for (const auto& probe : probes) {
    EXPECT_EQ(bank->engines[kRetrained].positive_score(probe),
              trained.bank.compiled(kRetrained).positive_score(probe));
  }
}

TEST(ForestBankPublisher, RetiredBankIsNotFreedWhileAReaderHoldsIt) {
  const auto trained = make_trained_bank();
  ml::ForestBankPublisher publisher(bank_forests(trained.bank));
  auto reader = publisher.register_reader();
  const auto& probe = trained.fixed.front().front();

  std::optional<ml::ForestBankPublisher::BankRef> held{
      publisher.acquire(reader)};
  const double held_score = (*held)->engines[0].positive_score(probe);
  EXPECT_EQ((*held)->version, 1u);

  // Publish on top of the pin: v1 retires but stays alive.
  EXPECT_EQ(publisher.publish_engines(engine_copies(trained.bank), 0), 2u);
  EXPECT_EQ(publisher.retired_banks(), 1u);

  // reclaim() with the pin in place must free nothing at all.
  const std::size_t frees_before = g_heap_frees.load();
  publisher.reclaim();
  const std::size_t frees_after = g_heap_frees.load();
  EXPECT_EQ(frees_after, frees_before)
      << "reclaim freed heap memory while a reader pinned the bank";
  EXPECT_EQ(publisher.retired_banks(), 1u);

  // The held snapshot still serves the same bytes.
  EXPECT_EQ((*held)->version, 1u);
  EXPECT_EQ((*held)->engines[0].positive_score(probe), held_score);

  // Another publish: v2 retires too, and epoch reclamation keeps both
  // (the pin at epoch 1 bounds the reclaim horizon from below).
  EXPECT_EQ(publisher.publish_engines(engine_copies(trained.bank), 0), 3u);
  EXPECT_EQ(publisher.retired_banks(), 2u);
  EXPECT_EQ((*held)->engines[0].positive_score(probe), held_score);

  // Dropping the pin makes every retired bank reclaimable.
  held.reset();
  const std::size_t frees_before_reclaim = g_heap_frees.load();
  publisher.reclaim();
  EXPECT_GT(g_heap_frees.load(), frees_before_reclaim);
  EXPECT_EQ(publisher.retired_banks(), 0u);
}

TEST(ForestBankPublisher, AcquireAndReleaseAreAllocationFree) {
  const auto trained = make_trained_bank();
  ml::ForestBankPublisher publisher(bank_forests(trained.bank));
  auto reader = publisher.register_reader();
  const auto& probe = trained.fixed.front().front();

  volatile double sink = 0.0;
  {
    const auto warm = publisher.acquire(reader);
    sink = sink + warm->engines[0].positive_score(probe);
  }
  const std::size_t allocations_before = g_heap_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    const auto bank = publisher.acquire(reader);
    sink = sink + bank->engines[0].positive_score(probe);
  }
  EXPECT_EQ(g_heap_allocations.load(), allocations_before)
      << "the reader hot path allocated on the heap";
}

TEST(ForestBankPublisher, TelemetryBindingsTrackSwaps) {
  const auto trained = make_trained_bank();
  ml::ForestBankPublisher publisher(bank_forests(trained.bank));

  telemetry::Registry registry;
  ml::ForestBankPublisher::Telemetry telemetry;
  telemetry.retrains = &registry.counter("hotswap.retrains_completed");
  telemetry.bank_epoch = &registry.gauge("hotswap.bank_epoch");
  telemetry.swap_latency_us = &registry.histogram("hotswap.swap_latency_us");
  telemetry.retired_banks = &registry.gauge("hotswap.retired_banks");
  publisher.bind_telemetry(telemetry);
  // Binding publishes the current epoch immediately.
  EXPECT_EQ(registry.gauge("hotswap.bank_epoch").value(), 1u);

  EXPECT_EQ(publisher.publish_engines(engine_copies(trained.bank), 0), 2u);
  EXPECT_EQ(publisher.publish_engines(engine_copies(trained.bank), 1), 3u);

  EXPECT_EQ(registry.counter("hotswap.retrains_completed").value(), 2u);
  EXPECT_EQ(registry.gauge("hotswap.bank_epoch").value(), 3u);
  EXPECT_EQ(registry.histogram("hotswap.swap_latency_us").count(), 2u);
  EXPECT_EQ(registry.gauge("hotswap.retired_banks").value(),
            publisher.retired_banks());
}

// ---------------------------------------------------------- HotSwapStress

// Concurrent swap/acquire stress: N publishers swap tagged banks while
// R readers acquire snapshots. Every engine of a bank built from tag
// forest j scores the same input-independent fraction (constant features
// collapse each tree to one mixed leaf), so a snapshot whose engines
// disagree — or whose score doesn't match the tag recorded for its
// version — would expose a torn or reclaimed-too-early bank.
TEST(HotSwapStress, EveryAcquireObservesExactlyOnePublishedBank) {
  constexpr std::size_t kTypes = 3;
  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kAcquiresPerReader = 4000;
  constexpr std::size_t kTagsPerPublisher = 8;
  constexpr std::size_t kRows = 64;
  const std::vector<float> probe(8, 1.0f);

  // Tag trees are trained on explicit indices (no bootstrap), so the
  // single mixed leaf of tag j scores exactly j/kRows on any input.
  auto tag_tree = [&](std::size_t positives) {
    ml::Dataset data(8);
    for (std::size_t i = 0; i < kRows; ++i) {
      data.add(probe, i < positives ? 1 : 0);
    }
    std::vector<std::size_t> all(data.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    ml::Rng rng(17);
    ml::DecisionTree tree;
    tree.train(data, all, data.num_classes(), ml::TreeConfig{}, rng);
    return tree;
  };

  // Publisher p cycles through tags [p*kTagsPerPublisher, ...) + 1.
  std::vector<ml::DecisionTree> tag_trees;
  std::vector<double> tags;
  const std::size_t pool_size = kPublishers * kTagsPerPublisher;
  for (std::size_t j = 0; j < pool_size; ++j) {
    tag_trees.push_back(tag_tree(j + 1));
    tags.push_back(ml::CompiledForest::compile(tag_trees.back())
                       .positive_score(probe));
  }

  // The initial bank scores 0 (all-negative training set): distinct from
  // every tag tree's strictly positive fraction.
  ml::Dataset zeros(8);
  for (std::size_t i = 0; i < kRows; ++i) zeros.add(probe, 0);
  ml::RandomForest zero_forest;
  zero_forest.train(zeros, ml::ForestConfig{.num_trees = 1});
  ml::ForestBankPublisher publisher(
      std::vector<ml::RandomForest>(kTypes, zero_forest));

  std::mutex tag_mu;
  std::unordered_map<std::uint64_t, double> tag_of_version;
  {
    auto handle = publisher.register_reader();
    const auto bank = publisher.acquire(handle);
    tag_of_version[1] = bank->engines[0].positive_score(probe);
  }
  for (std::size_t i = 0; i < pool_size; ++i) {
    ASSERT_NE(tags[i], tag_of_version[1]) << "tag collision with v1";
    for (std::size_t j = i + 1; j < pool_size; ++j) {
      ASSERT_NE(tags[i], tags[j]) << "tag collision " << i << "/" << j;
    }
  }

  struct Observation {
    std::uint64_t version = 0;
    double tag = 0.0;
    bool torn = false;
  };
  std::vector<std::vector<Observation>> observations(kReaders);
  std::atomic<bool> readers_done{false};

  std::vector<std::thread> publishers;
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      std::size_t i = 0;
      while (!readers_done.load(std::memory_order_acquire)) {
        const std::size_t j =
            p * kTagsPerPublisher + (i % kTagsPerPublisher);
        std::vector<ml::CompiledForest> engines;
        engines.reserve(kTypes);
        for (std::size_t t = 0; t < kTypes; ++t) {
          engines.push_back(ml::CompiledForest::compile(tag_trees[j]));
        }
        const std::uint64_t version =
            publisher.publish_engines(std::move(engines), j % kTypes);
        {
          std::lock_guard<std::mutex> lock(tag_mu);
          tag_of_version[version] = tags[j];
        }
        ++i;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto handle = publisher.register_reader();
      auto& obs = observations[r];
      obs.reserve(kAcquiresPerReader);
      std::uint64_t last_version = 0;
      for (std::size_t i = 0; i < kAcquiresPerReader; ++i) {
        const auto bank = publisher.acquire(handle);
        Observation o;
        o.version = bank->version;
        o.tag = bank->engines[0].positive_score(probe);
        for (std::size_t t = 1; t < kTypes; ++t) {
          if (bank->engines[t].positive_score(probe) != o.tag) o.torn = true;
        }
        if (o.version < last_version) o.torn = true;  // epoch regressed
        last_version = o.version;
        obs.push_back(o);
        if (i % 64 == 0) std::this_thread::yield();
      }
    });
  }

  for (auto& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  for (auto& t : publishers) t.join();

  std::size_t torn = 0, mismatched = 0;
  std::vector<std::uint64_t> versions_seen;
  for (const auto& obs : observations) {
    for (const auto& o : obs) {
      if (o.torn) ++torn;
      const auto it = tag_of_version.find(o.version);
      if (it == tag_of_version.end() || it->second != o.tag) ++mismatched;
      versions_seen.push_back(o.version);
    }
  }
  EXPECT_EQ(torn, 0u) << "a snapshot mixed engines of different banks";
  EXPECT_EQ(mismatched, 0u)
      << "a snapshot's engines did not match its version's published tag";
  std::sort(versions_seen.begin(), versions_seen.end());
  versions_seen.erase(std::unique(versions_seen.begin(), versions_seen.end()),
                      versions_seen.end());
  EXPECT_GE(versions_seen.size(), 2u)
      << "readers never overlapped a swap — stress window too short";

  // All reader handles are gone: everything retired must reclaim.
  publisher.reclaim();
  EXPECT_EQ(publisher.retired_banks(), 0u);
}

// --------------------------------------------------------- HotSwapGateway

IoTSecurityService make_service() {
  const auto corpus = sim::generate_corpus_for(
      {"Aria", "EdimaxCam", "HueBridge", "MAXGateway", "Withings",
       "WeMoLink", "EdnetCam", "Lightify"},
      12, 33);
  DeviceIdentifier identifier;
  identifier.train(corpus.type_names, corpus.by_type);
  VulnerabilityDb db;
  for (const char* clean : {"Aria", "HueBridge", "MAXGateway", "Withings",
                            "WeMoLink", "EdnetCam", "Lightify"}) {
    db.mark_assessed(clean);
  }
  db.add("EdimaxCam", {.id = "CVE-X", .cvss = 9.0, .summary = "bad"});
  IoTSecurityService service(std::move(identifier), std::move(db));
  service.register_endpoints("EdimaxCam",
                             {net::Ipv4Address::of(104, 22, 7, 70)});
  return service;
}

std::vector<sim::TimedFrame> make_trace() {
  const char* kTypes[] = {"Aria",      "EdimaxCam", "HueBridge", "MAXGateway",
                          "Withings",  "WeMoLink",  "EdnetCam",  "Lightify",
                          "iKettle2",  "Aria",      "EdimaxCam", "HueBridge"};
  std::vector<sim::TimedFrame> trace;
  std::uint32_t instance = 0;
  for (const char* type : kTypes) {
    const auto* profile = sim::find_profile(type);
    EXPECT_NE(profile, nullptr);
    sim::GeneratorConfig config;
    config.start_time_us = (instance % 4) * 750'000;
    sim::TrafficGenerator gen(config);
    ml::Rng rng(1000 + instance);
    const auto mac = sim::TrafficGenerator::mint_mac(*profile, instance);
    const auto ip = net::Ipv4Address::of(
        192, 168, 0, static_cast<std::uint8_t>(50 + instance));
    for (auto& tf : gen.generate(*profile, mac, ip, rng)) {
      trace.push_back(std::move(tf));
    }
    ++instance;
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const sim::TimedFrame& a, const sim::TimedFrame& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return trace;
}

using EventKey = std::tuple<std::uint64_t, std::string, int, bool>;

std::vector<EventKey> event_keys(const std::vector<GatewayEvent>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const auto& e : events) {
    keys.emplace_back(e.device.to_u64(), e.device_type,
                      static_cast<int>(e.level), e.is_new_type);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// One retrain plan per type, from an independent corpus of the same
/// types (what a background retrainer would fold in).
std::vector<ClassifierBank::RetrainPlan> make_retrain_plans(
    const IoTSecurityService& service, std::uint64_t seed) {
  const ClassifierBank& bank = service.identifier().bank();
  std::vector<std::string> names;
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    names.push_back(bank.type_name(t));
  }
  const auto corpus = sim::generate_corpus_for(names, 6, seed);
  std::vector<std::vector<fp::FixedFingerprint>> fixed;
  for (const auto& runs : corpus.by_type) {
    auto& out = fixed.emplace_back();
    for (const auto& f : runs) out.push_back(f.to_fixed());
  }
  std::vector<ClassifierBank::RetrainPlan> plans;
  for (std::size_t t = 0; t < bank.num_types(); ++t) {
    plans.push_back(
        bank.retrain_plan(t, fixed[t], negative_pool_excluding(fixed, t)));
  }
  return plans;
}

// A publisher that never swaps must be observably identical to the fixed
// model path: same event set as the serial gateway, every event stamped
// with the initial bank version.
TEST(HotSwapGateway, NoSwapMatchesFixedModelGateway) {
  const auto service = make_service();
  const auto trace = make_trace();

  SecurityGateway serial(service);
  for (const auto& tf : trace) serial.on_frame(tf.frame, tf.timestamp_us);
  serial.finish_pending_captures();
  const auto expected = event_keys(serial.events());
  ASSERT_FALSE(expected.empty());
  for (const auto& e : serial.events()) {
    EXPECT_EQ(e.model_version, 0u);  // fixed-model gateways stamp 0
  }

  ml::ForestBankPublisher publisher(
      bank_forests(service.identifier().bank()));
  ShardedGatewayConfig config;
  config.num_shards = 2;
  config.model_publisher = &publisher;
  ShardedGateway gw(service, config);
  for (const auto& tf : trace) gw.submit(tf.frame, tf.timestamp_us);
  gw.finish();

  EXPECT_EQ(event_keys(gw.events()), expected);
  const auto events = gw.events();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.model_version, 1u) << "event not stamped with bank version";
  }
  EXPECT_EQ(gw.registry().gauge("hotswap.bank_epoch").value(), 1u);
}

// The model-swap invalidation regression test: while a background
// retrainer swaps banks continuously, devices onboard, depart and
// re-onboard, and every cached fast-path verdict is replayed against the
// controller's decision oracle. A swap that failed to invalidate the
// per-shard rule caches for re-identified devices would surface here as
// an audit violation.
TEST(HotSwapGateway, SwapUnderLoadZeroAuditViolationsAtEveryShardCount) {
  const auto service = make_service();
  const auto trace = make_trace();
  const auto gw_mac = net::MacAddress::of(0x02, 0x47, 0x57, 0, 0, 1);
  const auto plans_a = make_retrain_plans(service, 77);
  const auto plans_b = make_retrain_plans(service, 78);

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ml::ForestBankPublisher publisher(
        bank_forests(service.identifier().bank()));
    ShardedGatewayConfig config;
    config.num_shards = shards;
    config.model_publisher = &publisher;
    ShardedGateway gw(service, config);
    sdn::EnforcementAuditor auditor(gw.controller());
    gw.set_audit(auditor.hook());

    std::atomic<bool> stop_retrainer{false};
    std::thread retrainer([&] {
      std::size_t round = 0;
      while (!stop_retrainer.load(std::memory_order_acquire)) {
        const auto& plans = (round / plans_a.size()) % 2 ? plans_b : plans_a;
        const std::size_t t = round % plans.size();
        publisher.rebuild_type(t, plans[t].data, plans[t].forest);
        ++round;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    // Wave 1: onboard every device while swaps run.
    std::uint64_t now = 0;
    for (const auto& tf : trace) {
      gw.submit(tf.frame, tf.timestamp_us);
      now = std::max(now, tf.timestamp_us);
    }
    // Real departure sweep: every device idles out, rules removed.
    now += 120'000'000;
    gw.expire_departed(now, /*idle_us=*/1'000'000);

    // Make sure wave 2 is scored by a bank the classifier has not seen
    // yet, so the swap-observation path (and its invalidation fan-out)
    // definitely runs.
    const std::uint64_t retrains_floor = publisher.retrains_completed() + 2;
    while (publisher.retrains_completed() < retrains_floor) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Wave 2: the same devices re-onboard and are re-identified under
    // the retrained banks.
    const std::uint64_t kWave2Offset = 400'000'000;
    for (const auto& tf : trace) {
      gw.submit(tf.frame, tf.timestamp_us + kWave2Offset);
      now = std::max(now, tf.timestamp_us + kWave2Offset);
    }
    // Barrier sweep (idle window nothing can meet): all wave-2 verdicts
    // applied on their owning workers once it completes.
    std::vector<std::pair<net::MacAddress, net::Ipv4Address>> devices;
    now += 120'000'000;
    for (const auto& tf : trace) {
      const auto pkt = net::parse_ethernet_frame(tf.frame, tf.timestamp_us);
      const bool seen =
          std::any_of(devices.begin(), devices.end(),
                      [&](const auto& d) { return d.first == pkt.src_mac; });
      if (!seen) {
        devices.emplace_back(pkt.src_mac,
                             net::Ipv4Address::of(
                                 192, 168, 0,
                                 static_cast<std::uint8_t>(
                                     50 + devices.size())));
        gw.submit_owned(
            net::build_arp_request(pkt.src_mac, devices.back().second,
                                   net::Ipv4Address::of(192, 168, 0, 1)),
            now++);
      }
    }
    gw.expire_departed(now, /*idle_us=*/~0ull);

    // Fast-path phase: repeats of each 5-tuple hit the cached path the
    // auditor replays, while swaps continue underneath.
    now += 1'000'000;
    for (const auto& [mac, ip] : devices) {
      for (int rep = 0; rep < 4; ++rep) {
        gw.submit_owned(
            net::build_tcp_syn(mac, gw_mac, ip,
                               net::Ipv4Address::of(8, 8, 8, 8), 50000, 443,
                               1),
            now++);
      }
    }
    stop_retrainer.store(true, std::memory_order_release);
    retrainer.join();
    gw.finish();

    EXPECT_GT(auditor.checked(), 0u) << shards << " shard(s)";
    EXPECT_EQ(auditor.violations(), 0u) << shards << " shard(s)";
    for (const auto& sample : auditor.violation_samples()) {
      ADD_FAILURE() << sample;
    }

    // The swaps really reached the serving path: wave-2 events carry a
    // retrained bank's version.
    EXPECT_GE(publisher.retrains_completed(), 2u);
    std::uint64_t max_model_version = 0;
    for (const auto& e : gw.events()) {
      EXPECT_GE(e.model_version, 1u);
      EXPECT_LE(e.model_version, publisher.version());
      max_model_version = std::max(max_model_version, e.model_version);
    }
    EXPECT_GE(max_model_version, 3u)
        << "no event was scored by a retrained bank at " << shards
        << " shard(s)";

    // Publisher telemetry flows through the gateway's registry.
    EXPECT_EQ(gw.registry().counter("hotswap.retrains_completed").value(),
              publisher.retrains_completed());
    EXPECT_EQ(gw.registry().gauge("hotswap.bank_epoch").value(),
              publisher.version());
    EXPECT_EQ(
        gw.registry().histogram("hotswap.swap_latency_us").count(),
        publisher.retrains_completed());
  }
}

}  // namespace
}  // namespace iotsentinel::core
