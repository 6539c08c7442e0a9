// The Security Gateway's SDN controller module.
//
// Mirrors the paper's custom Floodlight module: it owns the enforcement-
// rule cache and overlay membership, answers packet-in events from the
// software switch with forward/drop decisions, and installs micro-flow
// entries so the data plane handles subsequent packets of the flow alone.
//
// Policy implemented (Sect. V):
//   * strict     -> untrusted overlay only, no Internet
//   * restricted -> untrusted overlay + whitelisted remote endpoints
//   * trusted    -> trusted overlay + full Internet
//   * devices without a rule yet (identification in progress) are treated
//     as strict, but gateway-bound infrastructure traffic (DHCP, DNS, ARP,
//     local multicast) is always allowed so setup dialogues can proceed.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "sdn/flow_table.hpp"
#include "sdn/rule_cache.hpp"
#include "sdn/switch_cache.hpp"

namespace iotsentinel::sdn {

/// Decision returned to the switch for a packet-in.
struct PacketInDecision {
  FlowAction action = FlowAction::kDrop;
  /// Entry the controller wants installed for the rest of the flow
  /// (nullopt for one-off control traffic like ARP/DHCP that should keep
  /// coming to the controller).
  std::optional<FlowEntry> flow_to_install;
  /// Diagnostic tag, e.g. "overlay-isolation", "whitelist-miss".
  const char* reason = "";
  /// True when this decision holds for every packet of the flow class
  /// (same `FlowClassKey`) until the next rule change — the switch may
  /// put it in its SwitchRuleCache. Decisions are pure functions of the
  /// class under the current rule set, so this is true whenever filtering
  /// is enabled; the controller's invalidation fan-out bounds staleness.
  bool cacheable = false;
};

/// Controller configuration.
struct ControllerConfig {
  /// Idle timeout for installed micro-flows.
  std::uint64_t flow_idle_timeout_us = 60'000'000;  // 60 s
  /// Whether traffic filtering is enabled at all; when false every flow is
  /// forwarded (the paper's "No Filtering" baseline rows).
  bool filtering_enabled = true;
};

/// The enforcement controller.
///
/// Thread safety: `apply_rule`, `remove_device`, `packet_in` and
/// `level_of` serialize on an internal mutex, so shard workers raising
/// packet-ins and the sharded gateway's classifier thread installing rules
/// can share one controller — the "single controller lock" of the sharded
/// pipeline. The `rules()` accessors hand out the cache unguarded and are
/// for single-threaded tooling (benches, migration helpers) only.
class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  /// Installs/updates the enforcement rule for a device (as received from
  /// the IoT Security Service).
  void apply_rule(EnforcementRule rule, std::uint64_t now_us);

  /// Removes a departed device's rule. `now_us` timestamps the
  /// invalidation fan-out (0 = unknown; lag samples are then skipped).
  void remove_device(const net::MacAddress& device, std::uint64_t now_us = 0);

  /// Federates a switch's decision cache: every subsequent rule install,
  /// removal, or rule-cache eviction fans an invalidation out to `cache`.
  /// Attach before traffic flows (the registry is append-only and the
  /// cache must outlive the controller's last rule change).
  void attach_cache(SwitchRuleCache* cache);

  /// Model-swap invalidation: flushes every federated switch cache for
  /// each listed device. Called by the sharded gateway's classifier
  /// thread when a hot model swap replaces the classifier a device class
  /// was identified with — cached flow-class decisions derived under the
  /// replaced model must not outlive it, so the affected devices' next
  /// packets re-consult the controller.
  void invalidate_model_swap(std::span<const net::MacAddress> devices,
                             std::uint64_t now_us);

  /// Handles a table-miss packet from the switch.
  PacketInDecision packet_in(const net::ParsedPacket& pkt,
                             std::uint64_t now_us);

  /// Isolation level currently enforced for a device (nullopt = no rule).
  std::optional<IsolationLevel> level_of(const net::MacAddress& device);

  /// Re-derives the pure forward/drop policy verdict for a packet under
  /// the rules installed right now — no packet-in counters, no flow
  /// installation, no rule-cache LRU side effects. This is the oracle the
  /// enforcement auditor (sdn/enforcement_audit.hpp) replays fast-path
  /// (cached-flow) forwarding decisions against: a cached entry whose
  /// action contradicts `audit_decision` is an enforcement-integrity
  /// violation. Thread-safe (takes the controller lock).
  FlowAction audit_decision(const net::ParsedPacket& pkt,
                            const char** reason = nullptr);

  [[nodiscard]] RuleCache& rules() { return rules_; }
  [[nodiscard]] const RuleCache& rules() const { return rules_; }
  [[nodiscard]] std::uint64_t packet_ins() const {
    std::lock_guard<std::mutex> lock(mu_);
    return packet_ins_;
  }
  [[nodiscard]] std::uint64_t drops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return drops_;
  }
  /// Always 0: the controller keeps no negative-entry cache (every
  /// packet-in runs `decide`). Kept because the gateway benchmark reads it
  /// for `sdn.negative_hit_share`.
  [[nodiscard]] std::uint64_t negative_cache_hits() const { return 0; }
  /// Rule installs accepted via `apply_rule`.
  [[nodiscard]] std::uint64_t rule_installs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return installs_;
  }
  /// Invalidation events broadcast to federated caches (one per attached
  /// cache per rule change).
  [[nodiscard]] std::uint64_t invalidations_sent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return invalidations_sent_;
  }

 private:
  /// Fans a device invalidation out to every attached switch cache.
  /// Caller holds `mu_`.
  void fan_out_invalidation(const net::MacAddress& device,
                            std::uint64_t now_us);
  /// Core policy: may src talk to dst in this packet? `peek_only` makes
  /// the rule lookups side-effect-free (the audit path).
  FlowAction decide(const net::ParsedPacket& pkt, const char** reason,
                    bool* installable, bool peek_only = false);

  ControllerConfig config_;
  /// Serializes rule installs against packet-in decisions (see class
  /// comment). Also covers the counters below.
  mutable std::mutex mu_;
  RuleCache rules_;
  /// Federated per-switch decision caches (invalidation fan-out targets).
  std::vector<SwitchRuleCache*> caches_;
  std::uint64_t packet_ins_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t installs_ = 0;
  std::uint64_t invalidations_sent_ = 0;
};

/// True when `ip` lies outside RFC1918 space, i.e. reaching it requires
/// Internet access through the gateway.
bool is_internet_destination(net::Ipv4Address ip);

}  // namespace iotsentinel::sdn
