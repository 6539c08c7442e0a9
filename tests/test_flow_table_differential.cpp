// Differential proof that the tuple-space FlowTable is observably
// identical to the reference LinearFlowTable: randomized traces of
// install / process / expire / remove_by_cookie are replayed against both
// implementations and every observable compared — per-packet actions,
// matched/miss counters, removal counts, and the full surviving-entry
// snapshot (order, matches, actions, per-entry statistics).
//
// The trace generator deliberately mixes the hard cases: wildcard entries
// of every arity (so every mask shape), exact micro-flows, MAC+IP host
// pairs tying with exact entries at equal priority across masks,
// non-TCP/UDP matches, duplicate installs, IPv6 transport packets against
// IPv4-pinning masks, idle timeouts racing cookie removals, masks emptied
// and re-created, and repeated packets interleaved with table mutations.
#include "sdn/flow_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "linear_flow_table.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"
#include "net/protocols.hpp"

namespace iotsentinel::sdn {
namespace {

using net::Ipv4Address;
using net::MacAddress;

/// A small closed universe of packets so traces revisit tuples often
/// (repeat lookups across table mutations, not just cold ones).
std::vector<net::ParsedPacket> make_packet_universe() {
  std::vector<net::ParsedPacket> universe;
  const MacAddress macs[] = {
      MacAddress::of(0x02, 1, 0, 0, 0, 1), MacAddress::of(0x02, 1, 0, 0, 0, 2),
      MacAddress::of(0x02, 1, 0, 0, 0, 3), MacAddress::of(0x02, 1, 0, 0, 0, 4)};
  const Ipv4Address ips[] = {
      Ipv4Address::of(192, 168, 0, 10), Ipv4Address::of(192, 168, 0, 20),
      Ipv4Address::of(10, 0, 0, 5), Ipv4Address::of(104, 22, 7, 70)};
  const std::uint16_t ports[] = {53, 80, 443, 8080, 40000};

  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      if (src == dst) continue;
      for (const std::uint16_t sport : {std::uint16_t{50000}, ports[src]}) {
        for (const std::uint16_t dport : ports) {
          // UDP flavor.
          universe.push_back(net::parse_ethernet_frame(
              net::build_ipv4(macs[src], macs[dst], ips[src], ips[dst],
                              net::ipproto::kUdp,
                              net::build_udp_payload(sport, dport, {})),
              0));
          // TCP flavor.
          universe.push_back(net::parse_ethernet_frame(
              net::build_tcp_syn(macs[src], macs[dst], ips[src], ips[dst],
                                 sport, dport, 1),
              0));
        }
      }
      // IPv6 transport: ports and protocol but no IPv4 address, so masks
      // pinning an IPv4 field must skip them.
      const auto v6_src = net::Ipv6Address::of_groups(
          {0xfd00, 0, 0, 0, 0, 0, 0, static_cast<std::uint16_t>(src + 1)});
      const auto v6_dst = net::Ipv6Address::of_groups(
          {0xfd00, 0, 0, 0, 0, 0, 0, static_cast<std::uint16_t>(dst + 1)});
      for (const std::uint16_t dport : {ports[0], ports[2]}) {
        universe.push_back(net::parse_ethernet_frame(
            net::build_ipv6(macs[src], macs[dst], v6_src, v6_dst,
                            net::ipproto::kUdp,
                            net::build_udp_payload(50000, dport, {})),
            0));
        universe.push_back(net::parse_ethernet_frame(
            net::build_ipv6(macs[src], macs[dst], v6_src, v6_dst,
                            net::ipproto::kTcp,
                            net::build_tcp_payload(50000, dport, 1, 0,
                                                   {.syn = true}, {})),
            0));
      }
      // Portless traffic: ICMP echo and ARP (no IP at all).
      universe.push_back(net::parse_ethernet_frame(
          net::build_icmp_echo(macs[src], macs[dst], ips[src], ips[dst], 7, 1),
          0));
      universe.push_back(net::parse_ethernet_frame(
          net::build_arp_request(macs[src], ips[src], ips[dst]), 0));
    }
  }
  return universe;
}

/// A random match: each field independently wildcarded or pinned to the
/// corresponding field of a random universe packet (so matches actually
/// hit), occasionally pinned to an off-universe value or a non-TCP/UDP
/// protocol (so rejection paths run too).
FlowMatch random_match(std::mt19937_64& rng,
                       const std::vector<net::ParsedPacket>& universe) {
  const net::ParsedPacket& ref = universe[rng() % universe.size()];
  FlowMatch m;
  if (rng() % 2) m.src_mac = ref.src_mac;
  if (rng() % 2) m.dst_mac = ref.dst_mac;
  if (rng() % 2 && ref.src_ip && ref.src_ip->is_v4()) {
    m.src_ip = ref.src_ip->v4();
  }
  if (rng() % 2 && ref.dst_ip && ref.dst_ip->is_v4()) {
    m.dst_ip = ref.dst_ip->v4();
  }
  switch (rng() % 4) {
    case 0: m.ip_proto = 6; break;
    case 1: m.ip_proto = 17; break;
    case 2: m.ip_proto = 1; break;  // never matchable: only TCP/UDP are
    default: break;                 // wildcard
  }
  if (rng() % 2 && ref.src_port) m.src_port = *ref.src_port;
  if (rng() % 2 && ref.dst_port) m.dst_port = *ref.dst_port;
  return m;
}

void expect_identical_snapshots(const FlowTable& hashed,
                                const LinearFlowTable& linear,
                                std::uint64_t seed, std::size_t step) {
  const auto h = hashed.entries();
  const auto& l = linear.entries();
  ASSERT_EQ(h.size(), l.size()) << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < h.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step) + " entry " + std::to_string(i));
    EXPECT_EQ(h[i].match.to_string(), l[i].match.to_string());
    EXPECT_EQ(h[i].action, l[i].action);
    EXPECT_EQ(h[i].priority, l[i].priority);
    EXPECT_EQ(h[i].idle_timeout_us, l[i].idle_timeout_us);
    EXPECT_EQ(h[i].packets, l[i].packets);
    EXPECT_EQ(h[i].bytes, l[i].bytes);
    EXPECT_EQ(h[i].last_matched_us, l[i].last_matched_us);
    EXPECT_EQ(h[i].installed_us, l[i].installed_us);
    EXPECT_EQ(h[i].cookie, l[i].cookie);
  }
}

// Wildcard installs and host pairs use cookies [0, kExactCookieBase);
// exact micro-flows use the two cookies above, so draining those two
// empties the micro-flow masks while the wildcard masks stay live.
constexpr std::uint64_t kExactCookieBase = 6;

void run_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto universe = make_packet_universe();
  FlowTable hashed;
  LinearFlowTable linear;
  std::uint64_t now_us = 1;
  std::size_t masks_emptied = 0;
  std::size_t masks_recreated = 0;

  auto install_both = [&](const FlowEntry& entry) {
    hashed.install(entry, now_us);
    linear.install(entry, now_us);
  };
  auto remove_both = [&](std::uint64_t cookie, std::size_t step) {
    ASSERT_EQ(hashed.remove_by_cookie(cookie), linear.remove_by_cookie(cookie))
        << "seed " << seed << " step " << step;
  };

  constexpr std::size_t kSteps = 4000;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::size_t masks_before = hashed.masks();
    now_us += rng() % 500;  // monotonic virtual clock
    const std::uint64_t op = rng() % 100;
    if (op < 10) {
      // Install a wildcard-ish entry.
      FlowEntry entry;
      entry.match = random_match(rng, universe);
      entry.action = (rng() % 2) ? FlowAction::kForward : FlowAction::kDrop;
      entry.priority = static_cast<std::uint16_t>(rng() % 4);  // force ties
      entry.idle_timeout_us = (rng() % 3 == 0) ? 0 : 200 + rng() % 2000;
      entry.cookie = rng() % kExactCookieBase;
      install_both(entry);
    } else if (op < 18) {
      // Install an exact micro-flow of a universe packet (the
      // controller's common install).
      FlowEntry entry;
      entry.match = FlowMatch::micro_flow(universe[rng() % universe.size()]);
      entry.action = (rng() % 2) ? FlowAction::kForward : FlowAction::kDrop;
      entry.priority = static_cast<std::uint16_t>(10 + rng() % 2);
      entry.idle_timeout_us = 200 + rng() % 2000;
      entry.cookie = kExactCookieBase + rng() % 2;
      install_both(entry);
    } else if (op < 22) {
      // Install a MAC+IP host pair (the shape the controller installs for
      // portless traffic) at the exact entries' priorities: equal-priority
      // ties between an older entry in one mask and a newer in another.
      FlowEntry entry;
      entry.match = FlowMatch::micro_flow(universe[rng() % universe.size()]);
      entry.match.ip_proto.reset();
      entry.match.src_port.reset();
      entry.match.dst_port.reset();
      entry.action = (rng() % 2) ? FlowAction::kForward : FlowAction::kDrop;
      entry.priority = static_cast<std::uint16_t>(10 + rng() % 2);
      entry.idle_timeout_us = 200 + rng() % 2000;
      entry.cookie = rng() % kExactCookieBase;
      install_both(entry);
    } else if (op < 86) {
      // Process a packet; repeats are frequent by construction.
      const net::ParsedPacket& pkt = universe[rng() % universe.size()];
      const auto ha = hashed.process(pkt, now_us);
      const auto la = linear.process(pkt, now_us);
      ASSERT_EQ(ha, la) << "seed " << seed << " step " << step << " pkt "
                        << pkt.summary();
    } else if (op < 92) {
      const auto hr = hashed.expire(now_us);
      const auto lr = linear.expire(now_us);
      ASSERT_EQ(hr, lr) << "seed " << seed << " step " << step;
    } else if (op < 97) {
      remove_both(rng() % (kExactCookieBase + 2), step);
    } else {
      // Drain every micro-flow: empties their masks, which later exact
      // installs re-create.
      remove_both(kExactCookieBase, step);
      remove_both(kExactCookieBase + 1, step);
    }

    ASSERT_EQ(hashed.size(), linear.size()) << "seed " << seed << " step "
                                            << step;
    ASSERT_EQ(hashed.misses(), linear.misses());
    ASSERT_EQ(hashed.matched_packets(), linear.matched_packets());
    if (hashed.masks() < masks_before) ++masks_emptied;
    if (hashed.masks() > masks_before && masks_emptied > 0) ++masks_recreated;
    if (step % 500 == 0) {
      expect_identical_snapshots(hashed, linear, seed, step);
    }
  }
  expect_identical_snapshots(hashed, linear, seed, kSteps);
  // The trace must actually have emptied masks and re-created them.
  EXPECT_GT(masks_emptied, 0u);
  EXPECT_GT(masks_recreated, 0u);
}

TEST(FlowTableDifferential, RandomTraceSeed1) { run_trace(1); }
TEST(FlowTableDifferential, RandomTraceSeed2) { run_trace(2); }
TEST(FlowTableDifferential, RandomTraceSeed3) { run_trace(3); }
TEST(FlowTableDifferential, RandomTraceSeed4) { run_trace(20170605); }

// A trace with no process() calls at all: pure install/expire/remove churn
// keeps the mask tables, heap, cookie index and freelist coherent without
// lookups masking bookkeeping bugs.
TEST(FlowTableDifferential, ChurnOnlyTrace) {
  std::mt19937_64 rng(99);
  const auto universe = make_packet_universe();
  FlowTable hashed;
  LinearFlowTable linear;
  std::uint64_t now_us = 1;
  for (std::size_t step = 0; step < 3000; ++step) {
    now_us += rng() % 300;
    const std::uint64_t op = rng() % 10;
    if (op < 6) {
      FlowEntry entry;
      entry.match = random_match(rng, universe);
      entry.action = (rng() % 2) ? FlowAction::kForward : FlowAction::kDrop;
      entry.priority = static_cast<std::uint16_t>(rng() % 3);
      entry.idle_timeout_us = (rng() % 4 == 0) ? 0 : 100 + rng() % 1500;
      entry.cookie = rng() % 4;
      hashed.install(entry, now_us);
      linear.install(entry, now_us);
    } else if (op < 8) {
      ASSERT_EQ(hashed.expire(now_us), linear.expire(now_us)) << step;
    } else {
      const std::uint64_t cookie = rng() % 4;
      ASSERT_EQ(hashed.remove_by_cookie(cookie),
                linear.remove_by_cookie(cookie))
          << step;
    }
    ASSERT_EQ(hashed.size(), linear.size()) << step;
  }
  expect_identical_snapshots(hashed, linear, 99, 3000);
}

}  // namespace
}  // namespace iotsentinel::sdn
