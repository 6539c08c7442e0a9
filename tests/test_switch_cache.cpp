// SwitchRuleCache / federation tests: flow-class key semantics, the
// owner-thread cache protocol (hits, invalidation drain, generation
// check, flush-on-full, lag samples), controller invalidation fan-out,
// the controller's negative-entry cache, and the SoftwareSwitch cached
// path end-to-end — including the enforcement auditor replaying cached
// verdicts.
#include "sdn/switch_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>

#include "net/builder.hpp"
#include "net/parser.hpp"
#include "net/protocols.hpp"
#include "sdn/controller.hpp"
#include "sdn/enforcement_audit.hpp"
#include "sdn/software_switch.hpp"
#include "telemetry/registry.hpp"

namespace iotsentinel::sdn {
namespace {

using net::Ipv4Address;
using net::MacAddress;

const MacAddress kA = MacAddress::of(0x02, 0xa, 0, 0, 0, 1);
const MacAddress kB = MacAddress::of(0x02, 0xb, 0, 0, 0, 2);
const Ipv4Address kIpA = Ipv4Address::of(192, 168, 0, 10);
const Ipv4Address kIpB = Ipv4Address::of(192, 168, 0, 20);

net::ParsedPacket udp_packet(std::uint16_t sport, std::uint16_t dport,
                             const MacAddress& src = kA,
                             const MacAddress& dst = kB) {
  const auto udp = net::build_udp_payload(sport, dport, {});
  const auto frame = net::build_ipv4(src, dst, kIpA, kIpB,
                                     net::ipproto::kUdp, udp);
  return net::parse_ethernet_frame(frame, 0);
}

// ---------------------------------------------------------------------------
// FlowClassKey

TEST(SwitchRuleCache, ClassKeyCollapsesSourcePort) {
  const auto key1 = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  const auto key2 = FlowClassKey::of_packet(udp_packet(61'234, 8000));
  EXPECT_EQ(key1, key2);
  EXPECT_EQ(key1.hash(), key2.hash());
}

TEST(SwitchRuleCache, ClassKeyKeepsDestinationPort) {
  const auto key1 = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  const auto key2 = FlowClassKey::of_packet(udp_packet(50'000, 8001));
  EXPECT_NE(key1, key2);
}

TEST(SwitchRuleCache, ClassKeyDistinguishesInfraClasses) {
  const auto arp = net::parse_ethernet_frame(
      net::build_arp_request(kA, kIpA, kIpB), 0);
  ASSERT_TRUE(arp.is_arp);
  const auto key_arp = FlowClassKey::of_packet(arp);
  EXPECT_EQ(key_arp.cls, FlowClassKey::kClsArp);

  auto plain = arp;
  plain.is_arp = false;
  EXPECT_NE(key_arp, FlowClassKey::of_packet(plain));

  const auto dhcp = net::parse_ethernet_frame(net::build_dhcp(kA, 1, 7), 0);
  EXPECT_EQ(FlowClassKey::of_packet(dhcp).cls, FlowClassKey::kClsDhcp);
}

TEST(SwitchRuleCache, ClassKeyExposesMacs) {
  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  EXPECT_EQ(key.src_mac_u64(), kA.to_u64());
  EXPECT_EQ(key.dst_mac_u64(), kB.to_u64());
}

// ---------------------------------------------------------------------------
// Cache protocol

TEST(SwitchRuleCache, LookupInsertHit) {
  SwitchRuleCache cache;
  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  EXPECT_EQ(cache.lookup(key, 1), nullptr);
  cache.insert(key, {FlowAction::kForward, "ok", true});
  const CachedDecision* hit = cache.lookup(key, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, FlowAction::kForward);
  EXPECT_STREQ(hit->reason, "ok");
  EXPECT_TRUE(hit->installable);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SwitchRuleCache, InvalidateDeviceErasesOnlyItsEntries) {
  SwitchRuleCache cache;
  const MacAddress kC = MacAddress::of(0x02, 0xc, 0, 0, 0, 3);
  const auto key_a = FlowClassKey::of_packet(udp_packet(50'000, 8000, kA, kB));
  const auto key_c = FlowClassKey::of_packet(udp_packet(50'000, 8000, kC, kB));
  cache.insert(key_a, {FlowAction::kForward, "", false});
  cache.insert(key_c, {FlowAction::kForward, "", false});
  ASSERT_EQ(cache.size(), 2u);

  cache.invalidate_device(kA, 10);
  // kB is the *destination* of both entries; invalidating kA must erase
  // only the kA-sourced one.
  EXPECT_EQ(cache.lookup(key_a, 20), nullptr);
  EXPECT_NE(cache.lookup(key_c, 20), nullptr);
  EXPECT_EQ(cache.invalidated_entries(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Destination-keyed erase: invalidating kB kills the remaining entry.
  cache.invalidate_device(kB, 30);
  EXPECT_EQ(cache.lookup(key_c, 40), nullptr);
  EXPECT_EQ(cache.invalidated_entries(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SwitchRuleCache, InvalidateAllFlushes) {
  SwitchRuleCache cache;
  cache.insert(FlowClassKey::of_packet(udp_packet(1, 1)), {});
  cache.insert(FlowClassKey::of_packet(udp_packet(1, 2)), {});
  cache.invalidate_all(5);
  EXPECT_EQ(cache.lookup(FlowClassKey::of_packet(udp_packet(1, 1)), 6),
            nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.flushes(), 1u);
}

TEST(SwitchRuleCache, StaleInsertDroppedAfterInvalidation) {
  SwitchRuleCache cache;
  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  EXPECT_EQ(cache.lookup(key, 1), nullptr);  // miss -> decision in flight
  // Rule change lands between the miss and the insert: the computed
  // decision may predate it, so the insert must be dropped.
  cache.invalidate_device(kA, 2);
  cache.insert(key, {FlowAction::kForward, "", false});
  EXPECT_EQ(cache.stale_inserts(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key, 3), nullptr);

  // The next miss/insert pair (post-drain) caches normally again.
  cache.insert(key, {FlowAction::kForward, "", false});
  EXPECT_NE(cache.lookup(key, 4), nullptr);
}

TEST(SwitchRuleCache, FlushOnCapacityOverflow) {
  SwitchRuleCache cache(4);
  for (std::uint16_t p = 1; p <= 4; ++p) {
    cache.insert(FlowClassKey::of_packet(udp_packet(1, p)), {});
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.flushes(), 0u);
  cache.insert(FlowClassKey::of_packet(udp_packet(1, 5)), {});
  EXPECT_EQ(cache.flushes(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // only the overflowing entry survives
}

TEST(SwitchRuleCache, CrossThreadInvalidationDrainedAtNextLookup) {
  SwitchRuleCache cache;
  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  cache.insert(key, {FlowAction::kForward, "", false});
  std::thread controller_thread([&] { cache.invalidate_device(kA, 100); });
  controller_thread.join();
  EXPECT_EQ(cache.invalidations_enqueued(), 1u);
  EXPECT_EQ(cache.lookup(key, 200), nullptr);
  EXPECT_EQ(cache.invalidated_entries(), 1u);
}

TEST(SwitchRuleCache, LagHistogramRecordsDrainDelay) {
  telemetry::Registry reg;
  telemetry::Histogram& lag = reg.histogram("sdn.invalidation_fanout_lag_us");
  SwitchRuleCache cache;
  cache.bind_lag_histogram(&lag);
  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  cache.invalidate_device(kA, 100);
  (void)cache.lookup(key, 400);  // drains: lag sample = 400 - 100 = 300
  EXPECT_EQ(lag.count(), 1u);
  EXPECT_EQ(lag.sum(), 300u);
  EXPECT_EQ(lag.bucket(telemetry::Histogram::bucket_index(300)), 1u);

  // Enqueue timestamp 0 means "unknown": no sample recorded.
  cache.invalidate_device(kA, 0);
  (void)cache.lookup(key, 500);
  EXPECT_EQ(lag.count(), 1u);
}

// ---------------------------------------------------------------------------
// Controller federation fan-out

TEST(SwitchRuleCache, ControllerFansOutInvalidationsOnRuleChange) {
  Controller controller;
  SwitchRuleCache cache;
  controller.attach_cache(&cache);

  const auto key = FlowClassKey::of_packet(udp_packet(50'000, 8000));
  cache.insert(key, {FlowAction::kForward, "", false});

  // Rule install for kA must invalidate the attached cache's kA entries
  // (negative cache + 1 attached cache = 2 invalidations per change).
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 10);
  EXPECT_EQ(controller.invalidations_sent(), 2u);
  EXPECT_EQ(cache.lookup(key, 20), nullptr);
  EXPECT_EQ(cache.invalidated_entries(), 1u);

  cache.insert(key, {FlowAction::kForward, "", false});
  controller.remove_device(kA, 30);
  EXPECT_EQ(controller.invalidations_sent(), 4u);
  EXPECT_EQ(cache.lookup(key, 40), nullptr);
}

// ---------------------------------------------------------------------------
// Controller negative-entry cache

TEST(SwitchRuleCache, NegativeCacheAnswersRepeatedClassMisses) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);

  const auto first = controller.packet_in(udp_packet(50'000, 8000), 1);
  EXPECT_EQ(controller.negative_cache_hits(), 0u);

  // Same class, fresh ephemeral source port: answered from the negative
  // cache, observably identical to a fresh decision.
  const auto second = controller.packet_in(udp_packet(61'000, 8000), 2);
  EXPECT_EQ(controller.negative_cache_hits(), 1u);
  EXPECT_EQ(second.action, first.action);
  EXPECT_STREQ(second.reason, first.reason);
  ASSERT_EQ(second.flow_to_install.has_value(), first.flow_to_install.has_value());
  if (second.flow_to_install) {
    // The rebuilt entry must match THIS packet (its source port), not the
    // one that populated the cache.
    EXPECT_EQ(second.flow_to_install->match.src_port,
              std::optional<std::uint16_t>{61'000});
    EXPECT_EQ(second.flow_to_install->action, first.flow_to_install->action);
  }
  EXPECT_EQ(controller.packet_ins(), 2u);
}

TEST(SwitchRuleCache, NegativeCacheInvalidatedByReidentification) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);

  EXPECT_EQ(controller.packet_in(udp_packet(50'000, 8000), 1).action,
            FlowAction::kForward);
  EXPECT_EQ(controller.packet_in(udp_packet(50'001, 8000), 2).action,
            FlowAction::kForward);
  EXPECT_EQ(controller.negative_cache_hits(), 1u);

  // kA is re-identified as strict: the cached forward verdict must NOT
  // survive — the next miss re-decides under the new rule and drops
  // (strict kA and trusted kB sit on different overlays).
  controller.apply_rule({.device = kA, .level = IsolationLevel::kStrict}, 3);
  EXPECT_EQ(controller.packet_in(udp_packet(50'002, 8000), 4).action,
            FlowAction::kDrop);
  EXPECT_EQ(controller.negative_cache_hits(), 1u);  // miss, not a hit
  // And the drop verdict is itself cached for the class.
  EXPECT_EQ(controller.packet_in(udp_packet(50'003, 8000), 5).action,
            FlowAction::kDrop);
  EXPECT_EQ(controller.negative_cache_hits(), 2u);
}

TEST(SwitchRuleCache, NegativeCacheInvalidatedByDeviceRemoval) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);

  EXPECT_EQ(controller.packet_in(udp_packet(50'000, 8000), 1).action,
            FlowAction::kForward);
  (void)controller.packet_in(udp_packet(50'001, 8000), 2);
  EXPECT_EQ(controller.negative_cache_hits(), 1u);

  // Departure (expire_departed path): rule removed, cache entry fanned
  // out; a ruleless kA falls back to strict-pending handling.
  controller.remove_device(kA, 3);
  const auto after = controller.packet_in(udp_packet(50'002, 8000), 4);
  EXPECT_EQ(controller.negative_cache_hits(), 1u);
  EXPECT_EQ(after.action, FlowAction::kDrop);
}

TEST(SwitchRuleCache, NegativeCacheCanBeDisabled) {
  Controller controller({.negative_cache_enabled = false});
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);
  (void)controller.packet_in(udp_packet(50'000, 8000), 1);
  (void)controller.packet_in(udp_packet(50'001, 8000), 2);
  EXPECT_EQ(controller.negative_cache_hits(), 0u);
  EXPECT_EQ(controller.packet_ins(), 2u);
}

// ---------------------------------------------------------------------------
// SoftwareSwitch cached path end-to-end

TEST(SwitchRuleCache, SwitchServesSameClassFromCachedPath) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);
  SwitchRuleCache cache;
  controller.attach_cache(&cache);
  SoftwareSwitch sw(controller);
  sw.set_rule_cache(&cache);

  // First occurrence: slow path, decision cached.
  const auto first = sw.process(udp_packet(50'000, 8000), 1);
  EXPECT_EQ(first.path, SwitchPath::kSlowPath);

  // Fresh ephemeral source port: micro-flow entry cannot match, but the
  // class cache answers locally — no packet-in, no new flow entry.
  const auto second = sw.process(udp_packet(61'000, 8000), 2);
  EXPECT_EQ(second.path, SwitchPath::kCachedPath);
  EXPECT_EQ(second.action, FlowAction::kForward);
  EXPECT_EQ(controller.packet_ins(), 1u);
  EXPECT_EQ(sw.cached_path_packets(), 1u);
  EXPECT_EQ(sw.table().size(), 1u);

  // An exact repeat also rides the cached path: the class cache is
  // consulted before the flow table, so the installed micro-flow entry
  // is not reached while its class stays cached.
  const auto third = sw.process(udp_packet(50'000, 8000), 3);
  EXPECT_EQ(third.path, SwitchPath::kCachedPath);
  EXPECT_EQ(sw.cached_path_packets(), 2u);
}

TEST(SwitchRuleCache, SwitchHonorsRuleChangeAfterInvalidation) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);
  SwitchRuleCache cache;
  controller.attach_cache(&cache);
  SoftwareSwitch sw(controller);
  sw.set_rule_cache(&cache);

  (void)sw.process(udp_packet(50'000, 8000), 1);
  EXPECT_EQ(sw.process(udp_packet(50'001, 8000), 2).path,
            SwitchPath::kCachedPath);

  // Re-identification demotes kA; the cached forward verdict is fanned
  // out, so the next fresh-port packet re-consults and is dropped.
  controller.apply_rule({.device = kA, .level = IsolationLevel::kStrict}, 3);
  sw.flush_device(kA);
  const auto after = sw.process(udp_packet(50'002, 8000), 4);
  EXPECT_EQ(after.path, SwitchPath::kSlowPath);
  EXPECT_EQ(after.action, FlowAction::kDrop);
}

TEST(SwitchRuleCache, AuditorRepaysCachedPathVerdicts) {
  Controller controller;
  controller.apply_rule({.device = kA, .level = IsolationLevel::kTrusted}, 0);
  controller.apply_rule({.device = kB, .level = IsolationLevel::kTrusted}, 0);
  SwitchRuleCache cache;
  controller.attach_cache(&cache);
  SoftwareSwitch sw(controller);
  sw.set_rule_cache(&cache);
  EnforcementAuditor auditor(controller);
  auditor.attach(sw);

  (void)sw.process(udp_packet(50'000, 8000), 1);  // slow path: not audited
  EXPECT_EQ(auditor.checked(), 0u);
  (void)sw.process(udp_packet(50'001, 8000), 2);  // cached path: audited
  (void)sw.process(udp_packet(50'000, 8000), 3);  // fast path: audited
  EXPECT_EQ(auditor.checked(), 2u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_EQ(auditor.overblocks(), 0u);
}

}  // namespace
}  // namespace iotsentinel::sdn
