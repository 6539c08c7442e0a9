// Reproduces Fig. 6c: Security Gateway memory consumption vs the number of
// installed enforcement rules (0..20000), with and without filtering.
//
// Paper reference: with filtering, memory grows roughly linearly from
// ~40 MB to ~85 MB at 20k rules; without filtering it stays flat at the
// ~40 MB base. Two series are reported here: the paper-calibrated
// footprint (Floodlight/Java bytes-per-rule) and the raw measured bytes of
// this library's C++ state — the RuleCache plus the switch's tuple-space
// flow table (entries, mask hash tables, deadline heap, cookie index)
// — which is about an order of magnitude leaner (recorded in
// EXPERIMENTS.md). The testbed carries 150 concurrent flows so the
// switch-side share is visible.
#include <cstdio>

#include "simnet/network_sim.hpp"

namespace {

using namespace iotsentinel;

/// Installs `count` restricted rules with realistic whitelists.
void install_rules(sim::NetworkSim& sim, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    sdn::EnforcementRule rule;
    rule.device = net::MacAddress::of(
        0x02, 0x60, static_cast<std::uint8_t>(i >> 16),
        static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i), 1);
    rule.level = sdn::IsolationLevel::kRestricted;
    rule.permitted_ips.insert(
        net::Ipv4Address(0x68000000u + static_cast<std::uint32_t>(i)));
    rule.permitted_ips.insert(
        net::Ipv4Address(0x69000000u + static_cast<std::uint32_t>(i)));
    sim.apply_rule(std::move(rule));
  }
}

}  // namespace

int main() {
  std::printf("=== Fig. 6c: gateway memory vs number of enforcement rules ===\n\n");
  std::printf("%8s  %20s %20s %22s\n", "rules", "w/filt (calibrated)",
              "wo/filt", "w/filt (raw C++ state)");

  for (std::size_t rules = 0; rules <= 20'000; rules += 2'500) {
    sim::NetworkSim with = sim::make_paper_testbed(true, 80);
    sim::NetworkSim without = sim::make_paper_testbed(false, 81);
    install_rules(with, rules);
    // Populate the data plane too: the raw series accounts for switch-side
    // flow-table state (Fig. 6a's max concurrent-flow load).
    with.set_concurrent_flows(150);
    std::printf("%8zu  %17.1f MB %17.1f MB %19.2f MB\n", rules,
                with.memory_mb(rules, /*calibrated=*/true),
                without.memory_mb(rules),
                with.memory_mb(rules, /*calibrated=*/false));
  }
  std::printf("\n(paper: ~40 MB base growing to ~85 MB at 20k rules with "
              "filtering; flat without)\n");
  return 0;
}
