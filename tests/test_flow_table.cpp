#include "sdn/flow_table.hpp"

#include <gtest/gtest.h>

#include "net/builder.hpp"
#include "net/parser.hpp"
#include "net/protocols.hpp"

namespace iotsentinel::sdn {
namespace {

using net::Ipv4Address;
using net::MacAddress;

const MacAddress kA = MacAddress::of(0x02, 0xa, 0, 0, 0, 1);
const MacAddress kB = MacAddress::of(0x02, 0xb, 0, 0, 0, 2);
const Ipv4Address kIpA = Ipv4Address::of(192, 168, 0, 10);
const Ipv4Address kIpB = Ipv4Address::of(192, 168, 0, 20);

net::ParsedPacket udp_packet(std::uint16_t sport, std::uint16_t dport) {
  const auto udp = net::build_udp_payload(sport, dport, {});
  const auto frame =
      net::build_ipv4(kA, kB, kIpA, kIpB, net::ipproto::kUdp, udp);
  return net::parse_ethernet_frame(frame, 0);
}

TEST(FlowMatch, WildcardsMatchEverything) {
  FlowMatch any;
  EXPECT_TRUE(any.matches(udp_packet(1000, 2000)));
  EXPECT_EQ(any.to_string(), "any");
}

TEST(FlowMatch, FieldMismatchesReject) {
  const auto pkt = udp_packet(1000, 2000);
  FlowMatch m;
  m.src_mac = kB;  // wrong
  EXPECT_FALSE(m.matches(pkt));
  m = FlowMatch{};
  m.dst_ip = Ipv4Address::of(10, 0, 0, 1);
  EXPECT_FALSE(m.matches(pkt));
  m = FlowMatch{};
  m.ip_proto = 6;  // TCP wanted, packet is UDP
  EXPECT_FALSE(m.matches(pkt));
  m = FlowMatch{};
  m.dst_port = 2001;
  EXPECT_FALSE(m.matches(pkt));
}

TEST(FlowMatch, MicroFlowPinsAllFields) {
  const auto pkt = udp_packet(49999, 53);
  const FlowMatch m = FlowMatch::micro_flow(pkt);
  EXPECT_TRUE(m.matches(pkt));
  EXPECT_FALSE(m.matches(udp_packet(49999, 54)));
  EXPECT_EQ(m.ip_proto, std::uint8_t{17});
  const std::string s = m.to_string();
  EXPECT_NE(s.find("dl_src=02:0a"), std::string::npos);
  EXPECT_NE(s.find("tp_dst=53"), std::string::npos);
}

TEST(FlowTable, HighestPriorityWins) {
  FlowTable table;
  FlowEntry drop_all;
  drop_all.action = FlowAction::kDrop;
  drop_all.priority = 1;
  table.install(drop_all, 0);

  FlowEntry allow_dns;
  allow_dns.match.dst_port = 53;
  allow_dns.action = FlowAction::kForward;
  allow_dns.priority = 100;
  table.install(allow_dns, 0);

  EXPECT_EQ(table.process(udp_packet(40000, 53), 1),
            FlowAction::kForward);
  EXPECT_EQ(table.process(udp_packet(40000, 80), 1), FlowAction::kDrop);
}

TEST(FlowTable, EqualPriorityKeepsInsertionOrder) {
  FlowTable table;
  FlowEntry first;
  first.action = FlowAction::kForward;
  first.priority = 5;
  table.install(first, 0);
  FlowEntry second;
  second.action = FlowAction::kDrop;
  second.priority = 5;
  table.install(second, 0);
  EXPECT_EQ(table.process(udp_packet(1, 2), 1), FlowAction::kForward);
}

TEST(FlowTable, MissReturnsNulloptAndCounts) {
  FlowTable table;
  FlowEntry dns_only;
  dns_only.match.dst_port = 53;
  dns_only.action = FlowAction::kForward;
  table.install(dns_only, 0);
  EXPECT_FALSE(table.process(udp_packet(1, 80), 1).has_value());
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.matched_packets(), 0u);
}

TEST(FlowTable, CountersTrackMatchedTraffic) {
  FlowTable table;
  FlowEntry entry;
  entry.action = FlowAction::kForward;
  table.install(entry, 0);
  const auto pkt = udp_packet(1, 2);
  table.process(pkt, 10);
  table.process(pkt, 20);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].packets, 2u);
  EXPECT_EQ(table.entries()[0].bytes, 2ull * pkt.wire_size);
  EXPECT_EQ(table.entries()[0].last_matched_us, 20u);
}

TEST(FlowTable, IdleEntriesExpire) {
  FlowTable table;
  FlowEntry ephemeral;
  ephemeral.action = FlowAction::kForward;
  ephemeral.idle_timeout_us = 1000;
  table.install(ephemeral, 0);
  FlowEntry permanent;
  permanent.action = FlowAction::kForward;
  permanent.idle_timeout_us = 0;
  table.install(permanent, 0);

  EXPECT_EQ(table.expire(500), 0u);
  EXPECT_EQ(table.expire(5000), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, MatchRefreshesIdleTimer) {
  FlowTable table;
  FlowEntry entry;
  entry.action = FlowAction::kForward;
  entry.idle_timeout_us = 1000;
  table.install(entry, 0);
  table.process(udp_packet(1, 2), 900);
  EXPECT_EQ(table.expire(1500), 0u);  // refreshed at 900
  EXPECT_EQ(table.expire(2000), 1u);
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable table;
  for (int i = 0; i < 4; ++i) {
    FlowEntry entry;
    entry.action = FlowAction::kForward;
    entry.cookie = static_cast<std::uint64_t>(i % 2);
    table.install(entry, 0);
  }
  EXPECT_EQ(table.remove_by_cookie(0), 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.remove_by_cookie(7), 0u);
}

// --- tie-break and tuple-space semantics ------------------------------------

// Locks in the tie rule for the hashed rewrite: equal priorities resolve
// by insertion order (older entry wins) on every lookup, and again after
// the winner is removed.
TEST(FlowTable, EqualPriorityTieIsStableAcrossTiersAndRemoval) {
  FlowTable table;
  FlowEntry first;
  first.match.dst_port = 53;
  first.action = FlowAction::kForward;
  first.priority = 5;
  first.cookie = 1;
  table.install(first, 0);
  FlowEntry second;
  second.match.dst_port = 53;
  second.action = FlowAction::kDrop;
  second.priority = 5;
  second.cookie = 2;
  table.install(second, 0);
  FlowEntry lower;
  lower.action = FlowAction::kDrop;
  lower.priority = 1;
  lower.cookie = 3;
  table.install(lower, 0);

  const auto pkt = udp_packet(40000, 53);
  EXPECT_EQ(table.process(pkt, 1), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt, 2), FlowAction::kForward);

  // Snapshot order mirrors the lookup order: priority desc, then insertion.
  const auto snapshot = table.entries();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].cookie, 1u);
  EXPECT_EQ(snapshot[1].cookie, 2u);
  EXPECT_EQ(snapshot[2].cookie, 3u);

  // Removing the older winner promotes the next same-priority entry.
  EXPECT_EQ(table.remove_by_cookie(1), 1u);
  EXPECT_EQ(table.process(pkt, 3), FlowAction::kDrop);
  EXPECT_EQ(table.process(pkt, 4), FlowAction::kDrop);
}

TEST(FlowTable, Tier1ServesRepeatPacketsWithoutRescan) {
  FlowTable table;
  FlowEntry entry;
  entry.match.dst_port = 53;
  entry.action = FlowAction::kForward;
  table.install(entry, 0);

  const auto pkt = udp_packet(40000, 53);
  for (std::uint64_t t = 1; t < 10; ++t) {
    EXPECT_EQ(table.process(pkt, t), FlowAction::kForward);
  }
  EXPECT_EQ(table.matched_packets(), 9u);
  const auto snapshot = table.entries();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].packets, 9u);  // every repeat updates the entry
  EXPECT_EQ(snapshot[0].last_matched_us, 9u);
}

TEST(FlowTable, Tier1InvalidatedWhenBackingWildcardRemoved) {
  FlowTable table;
  FlowEntry wildcard;
  wildcard.match.dst_port = 53;
  wildcard.action = FlowAction::kForward;
  wildcard.cookie = 42;
  table.install(wildcard, 0);

  const auto pkt = udp_packet(40000, 53);
  EXPECT_EQ(table.process(pkt, 1), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt, 2), FlowAction::kForward);  // repeat
  EXPECT_EQ(table.remove_by_cookie(42), 1u);
  // The verdict must not outlive its backing entry.
  EXPECT_FALSE(table.process(pkt, 3).has_value());
  EXPECT_EQ(table.misses(), 1u);
}

TEST(FlowTable, WildcardInstallEvictsCoveredCachedWinners) {
  FlowTable table;
  FlowEntry allow;
  allow.match.dst_port = 53;
  allow.action = FlowAction::kForward;
  allow.priority = 10;
  table.install(allow, 0);

  const auto pkt = udp_packet(40000, 53);
  EXPECT_EQ(table.process(pkt, 1), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt, 2), FlowAction::kForward);  // repeat

  // A higher-priority drop-all must take effect immediately, even for
  // tuples that already matched the older entry.
  FlowEntry deny;
  deny.action = FlowAction::kDrop;
  deny.priority = 100;
  table.install(deny, 3);
  EXPECT_EQ(table.process(pkt, 4), FlowAction::kDrop);

  // An equal-priority late-comer must NOT steal the verdict (older entry
  // wins ties), and a lower-priority one must not either.
  FlowEntry tie;
  tie.action = FlowAction::kForward;
  tie.priority = 100;
  table.install(tie, 5);
  EXPECT_EQ(table.process(pkt, 6), FlowAction::kDrop);
}

TEST(FlowTable, ExactInstallInvalidatesOnlyItsOwnTuple) {
  FlowTable table;
  FlowEntry allow_dns;
  allow_dns.match.dst_port = 53;
  allow_dns.action = FlowAction::kForward;
  allow_dns.priority = 1;
  table.install(allow_dns, 0);

  const auto pkt_a = udp_packet(40000, 53);
  const auto pkt_b = udp_packet(40001, 53);
  EXPECT_EQ(table.process(pkt_a, 1), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt_b, 2), FlowAction::kForward);

  // Exact micro-flow drop for tuple A at higher priority: A flips, B keeps
  // its verdict.
  FlowEntry exact;
  exact.match = FlowMatch::micro_flow(pkt_a);
  exact.action = FlowAction::kDrop;
  exact.priority = 50;
  table.install(exact, 3);
  EXPECT_EQ(table.process(pkt_a, 4), FlowAction::kDrop);
  EXPECT_EQ(table.process(pkt_b, 5), FlowAction::kForward);
}

// --- expiry / removal edge cases --------------------------------------------

TEST(FlowTable, PermanentEntriesNeverEnterTheDeadlineHeap) {
  FlowTable table;
  FlowEntry permanent;
  permanent.action = FlowAction::kForward;
  permanent.idle_timeout_us = 0;
  table.install(permanent, 0);
  EXPECT_EQ(table.deadline_heap_size(), 0u);

  FlowEntry timed;
  timed.action = FlowAction::kForward;
  timed.idle_timeout_us = 1000;
  table.install(timed, 0);
  EXPECT_EQ(table.deadline_heap_size(), 1u);

  // Arbitrarily far future: only the timed entry ever expires.
  EXPECT_EQ(table.expire(1'000'000'000'000ull), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.deadline_heap_size(), 0u);
  EXPECT_EQ(table.expire(2'000'000'000'000ull), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, RemoveByCookieRacingPendingHeapDeadline) {
  FlowTable table;
  FlowEntry entry;
  entry.action = FlowAction::kForward;
  entry.idle_timeout_us = 1000;
  entry.cookie = 9;
  table.install(entry, 0);
  EXPECT_EQ(table.deadline_heap_size(), 1u);

  // Cookie removal first; the stale heap record must be discarded on pop,
  // not double-removed or crash on the recycled slot.
  EXPECT_EQ(table.remove_by_cookie(9), 1u);
  EXPECT_EQ(table.expire(5000), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.deadline_heap_size(), 0u);

  // The recycled slot gets a fresh identity: a new entry with its own
  // deadline is unaffected by the old record's history.
  FlowEntry fresh;
  fresh.action = FlowAction::kDrop;
  fresh.idle_timeout_us = 500;
  fresh.cookie = 9;
  table.install(fresh, 6000);
  EXPECT_EQ(table.expire(6400), 0u);
  EXPECT_EQ(table.expire(6500), 1u);
}

TEST(FlowTable, ReinstallIdenticalMicroFlowAfterExpiry) {
  FlowTable table;
  const auto pkt = udp_packet(50000, 443);

  FlowEntry entry;
  entry.match = FlowMatch::micro_flow(pkt);
  entry.action = FlowAction::kForward;
  entry.idle_timeout_us = 1000;
  table.install(entry, 0);
  EXPECT_EQ(table.process(pkt, 10), FlowAction::kForward);
  EXPECT_EQ(table.expire(5000), 1u);
  EXPECT_FALSE(table.process(pkt, 5001).has_value());

  // Same micro-flow re-installed (the controller does this on the next
  // packet-in): served again, with fresh per-entry statistics.
  FlowEntry again;
  again.match = FlowMatch::micro_flow(pkt);
  again.action = FlowAction::kForward;
  again.idle_timeout_us = 1000;
  table.install(again, 6000);
  EXPECT_EQ(table.process(pkt, 6010), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt, 6020), FlowAction::kForward);
  const auto snapshot = table.entries();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].packets, 2u);
  EXPECT_EQ(snapshot[0].installed_us, 6000u);
}

TEST(FlowTable, MatchViaTier1RefreshesIdleTimer) {
  FlowTable table;
  FlowEntry entry;
  entry.match.dst_port = 53;
  entry.action = FlowAction::kForward;
  entry.idle_timeout_us = 1000;
  table.install(entry, 0);

  const auto pkt = udp_packet(40000, 53);
  EXPECT_EQ(table.process(pkt, 100), FlowAction::kForward);
  EXPECT_EQ(table.process(pkt, 900), FlowAction::kForward);  // repeat
  EXPECT_EQ(table.expire(1500), 0u);  // refreshed at 900 by the repeat
  EXPECT_EQ(table.expire(1900), 1u);
}

// Adversarial tuple cardinality: one spoofing device spraying random
// tuples through a permanent wildcard must not grow lookup state (and thus
// gateway memory): the table keeps no per-tuple state at all.
TEST(FlowTable, Tier1CacheIsBoundedUnderTupleSpray) {
  FlowTable table;
  FlowEntry allow_all;
  allow_all.action = FlowAction::kForward;
  allow_all.priority = 1;
  table.install(allow_all, 0);
  const std::size_t bytes_before = table.memory_bytes();

  net::ParsedPacket pkt = udp_packet(1, 2);
  const std::size_t distinct_tuples = 52'768;
  for (std::size_t i = 0; i < distinct_tuples; ++i) {
    pkt.src_port = static_cast<std::uint16_t>(i);
    pkt.dst_port = static_cast<std::uint16_t>(i >> 16 << 1);
    pkt.src_ip = net::IpAddress(net::Ipv4Address(
        0x0a000000u + static_cast<std::uint32_t>(i)));
    EXPECT_EQ(table.process(pkt, i), FlowAction::kForward);
  }
  EXPECT_EQ(table.matched_packets(), distinct_tuples);
  EXPECT_EQ(table.memory_bytes(), bytes_before);
  EXPECT_EQ(table.masks(), 1u);
  EXPECT_EQ(table.tier1_hits(), 0u);  // a wildcard win is not exact

  // An exact micro-flow installed amid the spray wins its own tuple.
  pkt.src_port = 7;
  pkt.dst_port = 9;
  FlowEntry exact;
  exact.match = FlowMatch::micro_flow(pkt);
  exact.action = FlowAction::kDrop;
  exact.priority = 10;
  table.install(exact, distinct_tuples + 1);
  EXPECT_EQ(table.masks(), 2u);
  EXPECT_EQ(table.process(pkt, distinct_tuples + 2), FlowAction::kDrop);
  EXPECT_EQ(table.tier1_hits(), 1u);
}

TEST(FlowTable, MemoryBytesAccountsForAllStructures) {
  FlowTable table;
  const std::size_t empty = table.memory_bytes();
  EXPECT_GE(empty, sizeof(FlowTable));

  for (int i = 0; i < 256; ++i) {
    FlowEntry entry;
    entry.match.dst_port = static_cast<std::uint16_t>(1000 + i);
    entry.action = FlowAction::kForward;
    entry.idle_timeout_us = 1000;
    entry.cookie = static_cast<std::uint64_t>(i);
    table.install(entry, 0);
  }
  const std::size_t populated = table.memory_bytes();
  // Entry pool + heap + cookie index + mask table all count; the mask
  // table holds at least one 8-byte bucket per distinct key.
  EXPECT_GT(populated, empty + 256 * (sizeof(FlowEntry) + 8));
  EXPECT_EQ(table.masks(), 1u);

  // Emptying the mask frees its table.
  for (int i = 0; i < 256; ++i) {
    table.remove_by_cookie(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(table.masks(), 0u);
}

}  // namespace
}  // namespace iotsentinel::sdn
