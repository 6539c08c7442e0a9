// telemetry::Registry contract tests: bucket math, monotone publish,
// snapshot consistency under concurrent writers, deterministic text
// rendering, and the docs/OBSERVABILITY.md worked example (the doc and
// the renderer cannot drift apart silently).
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace iotsentinel::telemetry {
namespace {

TEST(Telemetry, HistogramBucketIndexEdges) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 0u);
  EXPECT_EQ(Histogram::bucket_index(2), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 2u);
  EXPECT_EQ(Histogram::bucket_index(5), 3u);
  // Every bucket's upper bound lands in that bucket; bound+1 in the next.
  for (std::size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_bound(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_bound(i) + 1), i + 1);
  }
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kNumBuckets - 1);
}

TEST(Telemetry, HistogramCountEqualsBucketSum) {
  Histogram h;
  const std::uint64_t samples[] = {0, 1, 2, 100, 150, 200, 1u << 20, ~0ull};
  std::uint64_t want_sum = 0;
  for (const auto s : samples) {
    h.record(s);
    want_sum += s;
  }
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), want_sum);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Telemetry, CounterPublishIsMonotone) {
  Counter c;
  c.publish(5);
  EXPECT_EQ(c.value(), 5u);
  c.publish(3);  // stale publish must not move the counter backwards
  EXPECT_EQ(c.value(), 5u);
  c.publish(9);
  EXPECT_EQ(c.value(), 9u);
  c.add(1);
  EXPECT_EQ(c.value(), 10u);
}

TEST(Telemetry, GaugeSetMax) {
  Gauge g;
  g.set_max(7);
  g.set_max(3);
  EXPECT_EQ(g.value(), 7u);
  g.set(2);  // plain set may lower it (it is a level, not a counter)
  EXPECT_EQ(g.value(), 2u);
}

TEST(Telemetry, RegistryReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("a");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  // Interleave creations to force map growth, then re-resolve.
  // Names built with plain appends: `"lit" + std::string` trips a g++-12
  // -O3 -Wrestrict false positive (GCC PR 105651) under -Werror.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    (void)reg.counter(name);
  }
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(&g, &reg.gauge("g"));
  EXPECT_EQ(&h, &reg.histogram("h"));
}

TEST(Telemetry, SnapshotMergesScalarsInNameOrder) {
  Registry reg;
  reg.counter("b").add(2);
  reg.gauge("a").set(1);
  reg.counter("d").add(4);
  reg.gauge("c").set(3);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.scalars.size(), 4u);
  EXPECT_EQ(snap.scalars[0].name, "a");
  EXPECT_EQ(snap.scalars[0].type, MetricType::kGauge);
  EXPECT_EQ(snap.scalars[1].name, "b");
  EXPECT_EQ(snap.scalars[1].type, MetricType::kCounter);
  EXPECT_EQ(snap.scalars[2].name, "c");
  EXPECT_EQ(snap.scalars[3].name, "d");
  EXPECT_EQ(snap.scalars[3].value, 4u);
}

// The snapshot-consistency contract under live writers: counters are
// monotone across successive snapshots, and a histogram's count always
// equals the sum of the buckets reported beside it (it is derived from
// the same reads).
TEST(Telemetry, SnapshotConsistentUnderConcurrentWriters) {
  Registry reg;
  Counter& adds = reg.counter("writers.adds");
  Counter& published = reg.counter("writers.published");
  Histogram& hist = reg.histogram("writers.latency");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) {
        adds.add(1);
        hist.record(i % 512);
        // Monotone totals from every writer: the max-CAS keeps the
        // published counter monotone even with racing staler values.
        published.publish(i * (static_cast<std::uint64_t>(w) + 1));
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t last_adds = 0;
  std::uint64_t last_published = 0;
  std::uint64_t last_hist_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Snapshot snap = reg.snapshot();
    std::uint64_t cur_adds = 0, cur_published = 0;
    for (const auto& s : snap.scalars) {
      if (s.name == "writers.adds") cur_adds = s.value;
      if (s.name == "writers.published") cur_published = s.value;
    }
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto& h = snap.histograms[0];
    std::uint64_t bucket_total = 0;
    for (const auto b : h.buckets) bucket_total += b;
    EXPECT_EQ(h.count, bucket_total);  // count derives from these buckets
    EXPECT_GE(cur_adds, last_adds) << "counter went backwards";
    EXPECT_GE(cur_published, last_published) << "publish went backwards";
    EXPECT_GE(h.count, last_hist_count) << "histogram went backwards";
    last_adds = cur_adds;
    last_published = cur_published;
    last_hist_count = h.count;
  }
  for (auto& t : threads) t.join();

  // Quiesced: totals are exact.
  EXPECT_EQ(adds.value(), kWriters * kPerWriter);
  EXPECT_EQ(published.value(), kPerWriter * kWriters);  // max over writers
  EXPECT_EQ(hist.count(), kWriters * kPerWriter);
  const Snapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.histograms[0].count, kWriters * kPerWriter);
}

TEST(Telemetry, TextReportFormat) {
  Registry reg;
  reg.counter("requests").add(12);
  reg.gauge("depth").set(5);
  Histogram& h = reg.histogram("lat");
  h.record(1);
  h.record(3);
  h.record(3);
  EXPECT_EQ(reg.text_report(),
            "gauge depth 5\n"
            "counter requests 12\n"
            "histogram lat count=3 sum=7\n"
            "  le=1 1\n"
            "  le=4 2\n");
}

TEST(Telemetry, TextReportOverflowBucketRendersInf) {
  Registry reg;
  reg.histogram("big").record(~std::uint64_t{0});
  const std::string report = reg.text_report();
  EXPECT_NE(report.find("  le=inf 1\n"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// docs/OBSERVABILITY.md worked example: the fenced ```text block in the
// "Text report" section must be byte-identical to what the renderer
// produces for the documented inputs.

std::string docs_worked_example() {
  std::ifstream in(IOTSENTINEL_DOCS_DIR "/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "cannot open docs/OBSERVABILITY.md";
  std::string line, example;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (!in_block && line == "```text") {
      in_block = true;
    } else if (in_block && line == "```") {
      break;
    } else if (in_block) {
      example += line + "\n";
    }
  }
  return example;
}

TEST(TelemetryDocs, WorkedExampleMatchesRenderer) {
  const std::string example = docs_worked_example();
  ASSERT_FALSE(example.empty()) << "no ```text block in docs/OBSERVABILITY.md";

  // The documented scenario: one controller counter, one shard gauge and
  // counter, and a classifier latency histogram fed 100us, 150us, 200us.
  Registry reg;
  reg.counter("controller.packet_ins").add(42);
  reg.gauge("gateway.shard0.flowtable.live_flows").set(3);
  reg.counter("gateway.shard0.switch.slow_path").add(7);
  Histogram& lat = reg.histogram("classifier.batch_latency_us");
  lat.record(100);
  lat.record(150);
  lat.record(200);

  EXPECT_EQ(reg.text_report(), example);
}

}  // namespace
}  // namespace iotsentinel::telemetry
