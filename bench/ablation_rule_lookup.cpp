// Ablation: enforcement-rule storage — hash table (the paper's choice,
// "stored in a hash table structure to minimize the lookup time as the
// enforcement rule cache grows") vs a naive linear scan.
//
// Expected shape: O(1) lookups for the hash cache regardless of
// population; linear growth for the scan, crossing from comparable at ~10
// rules to orders of magnitude slower at 10k.
#include <benchmark/benchmark.h>

#include "linear_rule_store.hpp"
#include "sdn/rule_cache.hpp"

namespace {

using namespace iotsentinel;

net::MacAddress mac_of(std::size_t i) {
  return net::MacAddress::of(0x02, 0x77, static_cast<std::uint8_t>(i >> 16),
                             static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i), 0x01);
}

sdn::EnforcementRule rule_of(std::size_t i) {
  sdn::EnforcementRule rule;
  rule.device = mac_of(i);
  rule.level = sdn::IsolationLevel::kRestricted;
  rule.permitted_ips.insert(
      net::Ipv4Address(0x68000000u + static_cast<std::uint32_t>(i)));
  return rule;
}

void BM_HashCacheLookup(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  sdn::RuleCache cache;
  for (std::size_t i = 0; i < rules; ++i) cache.install(rule_of(i));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(mac_of(i++ % rules)));
  }
}
BENCHMARK(BM_HashCacheLookup)->RangeMultiplier(10)->Range(10, 100'000);

void BM_LinearScanLookup(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  sdn::LinearRuleStore store;
  for (std::size_t i = 0; i < rules; ++i) store.install(rule_of(i));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.lookup(mac_of(i++ % rules)));
  }
}
BENCHMARK(BM_LinearScanLookup)->RangeMultiplier(10)->Range(10, 10'000);

void BM_HashCacheInstall(benchmark::State& state) {
  sdn::RuleCache cache;
  std::size_t i = 0;
  for (auto _ : state) {
    cache.install(rule_of(i++));
  }
  state.counters["final_rules"] = static_cast<double>(cache.size());
}
BENCHMARK(BM_HashCacheInstall);

}  // namespace

BENCHMARK_MAIN();
