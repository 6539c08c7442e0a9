#include "sdn/rule_cache.hpp"

#include <gtest/gtest.h>

#include "linear_rule_store.hpp"

namespace iotsentinel::sdn {
namespace {

using net::MacAddress;

MacAddress mac(int i) {
  return MacAddress::of(0x02, 0, 0, 0, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i));
}

EnforcementRule rule(int i, IsolationLevel level = IsolationLevel::kStrict) {
  return EnforcementRule{.device = mac(i), .level = level};
}

TEST(RuleCache, InstallAndLookup) {
  RuleCache cache;
  cache.install(rule(1, IsolationLevel::kTrusted));
  const EnforcementRule* found = cache.lookup(mac(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->level, IsolationLevel::kTrusted);
  EXPECT_EQ(cache.lookup(mac(2)), nullptr);
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(RuleCache, ReinstallReplacesRule) {
  RuleCache cache;
  cache.install(rule(1, IsolationLevel::kStrict));
  cache.install(rule(1, IsolationLevel::kTrusted));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(mac(1))->level, IsolationLevel::kTrusted);
}

TEST(RuleCache, CapacityEvictsLeastRecentlyUsed) {
  RuleCache cache(3);
  cache.install(rule(1));
  cache.install(rule(2));
  cache.install(rule(3));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.lookup(mac(1)), nullptr);
  cache.install(rule(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(mac(2)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(mac(1)), nullptr);
  EXPECT_NE(cache.lookup(mac(4)), nullptr);
}

TEST(RuleCache, RemoveDeletesRule) {
  RuleCache cache;
  cache.install(rule(1));
  EXPECT_TRUE(cache.remove(mac(1)));
  EXPECT_FALSE(cache.remove(mac(1)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(mac(1)), nullptr);
}

TEST(RuleCache, ExpireUnusedDropsStaleRules) {
  RuleCache cache;
  cache.set_now(1000);
  cache.install(rule(1));
  cache.install(rule(2));
  cache.set_now(5000);
  EXPECT_NE(cache.lookup(mac(1)), nullptr);  // refresh rule 1 at t=5000
  EXPECT_EQ(cache.expire_unused(3000), 1u);  // rule 2 last used at 1000
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.lookup(mac(1)), nullptr);
}

TEST(RuleCache, MemoryGrowsWithRules) {
  RuleCache cache;
  const std::size_t empty_bytes = cache.memory_bytes();
  for (int i = 0; i < 1000; ++i) {
    auto r = rule(i, IsolationLevel::kRestricted);
    r.permitted_ips.insert(net::Ipv4Address::of(104, 0, 0, 1));
    cache.install(std::move(r));
  }
  const std::size_t full_bytes = cache.memory_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  // At least the raw entry payload must be accounted for.
  EXPECT_GT(full_bytes - empty_bytes, 1000 * sizeof(EnforcementRule) / 2);
}

TEST(RuleCache, UnboundedCacheNeverEvicts) {
  RuleCache cache;
  for (int i = 0; i < 5000; ++i) cache.install(rule(i));
  EXPECT_EQ(cache.size(), 5000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LinearRuleStore, LookupAndReplaceSemanticsMatchCache) {
  LinearRuleStore store;
  store.install(rule(1, IsolationLevel::kStrict));
  store.install(rule(2, IsolationLevel::kTrusted));
  store.install(rule(1, IsolationLevel::kTrusted));  // replace
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.lookup(mac(1)), nullptr);
  EXPECT_EQ(store.lookup(mac(1))->level, IsolationLevel::kTrusted);
  EXPECT_EQ(store.lookup(mac(99)), nullptr);
}

}  // namespace
}  // namespace iotsentinel::sdn
