#include "sdn/controller.hpp"

namespace iotsentinel::sdn {

bool is_internet_destination(net::Ipv4Address ip) {
  return !ip.is_private() && !ip.is_multicast() && !ip.is_broadcast() &&
         ip.value() != 0;
}

Controller::Controller(ControllerConfig config) : config_(config) {}

void Controller::apply_rule(EnforcementRule rule, std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.set_now(now_us);
  const net::MacAddress device = rule.device;
  const std::uint64_t evictions_before = rules_.evictions();
  rules_.install(std::move(rule));
  ++installs_;
  fan_out_invalidation(device, now_us);
  if (rules_.evictions() != evictions_before) {
    // The LRU evicted some other device's rule to make room; federated
    // caches may hold decisions derived from it, and the controller does
    // not know which device went — flush them all.
    for (SwitchRuleCache* cache : caches_) cache->invalidate_all(now_us);
    invalidations_sent_ += caches_.size();
  }
}

void Controller::remove_device(const net::MacAddress& device,
                               std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.remove(device);
  fan_out_invalidation(device, now_us);
}

void Controller::attach_cache(SwitchRuleCache* cache) {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.push_back(cache);
}

void Controller::invalidate_model_swap(
    std::span<const net::MacAddress> devices, std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const net::MacAddress& device : devices) {
    fan_out_invalidation(device, now_us);
  }
}

void Controller::fan_out_invalidation(const net::MacAddress& device,
                                      std::uint64_t now_us) {
  for (SwitchRuleCache* cache : caches_) {
    cache->invalidate_device(device, now_us);
  }
  invalidations_sent_ += caches_.size();
}

std::optional<IsolationLevel> Controller::level_of(
    const net::MacAddress& device) {
  std::lock_guard<std::mutex> lock(mu_);
  const EnforcementRule* rule = rules_.lookup(device);
  if (!rule) return std::nullopt;
  return rule->level;
}

FlowAction Controller::audit_decision(const net::ParsedPacket& pkt,
                                      const char** reason) {
  std::lock_guard<std::mutex> lock(mu_);
  const char* why = "";
  bool installable = false;
  const FlowAction action =
      config_.filtering_enabled
          ? decide(pkt, &why, &installable, /*peek_only=*/true)
          : (why = "filtering-disabled", FlowAction::kForward);
  if (reason) *reason = why;
  return action;
}

FlowAction Controller::decide(const net::ParsedPacket& pkt,
                              const char** reason, bool* installable,
                              bool peek_only) {
  *installable = true;

  // Infrastructure traffic required for association and identification is
  // never blocked: ARP, EAPoL, DHCP, and link-local multicast (mDNS/SSDP
  // discovery within the overlay is handled below with overlay checks —
  // but broadcast control traffic must flow for DHCP to work at all).
  if (pkt.is_arp || pkt.is_eapol || pkt.app.dhcp || pkt.app.bootp) {
    *installable = false;  // keep control traffic on the slow path
    *reason = "infrastructure";
    return FlowAction::kForward;
  }

  const auto look = [&](const net::MacAddress& mac) {
    return peek_only ? rules_.peek(mac) : rules_.lookup(mac);
  };
  const EnforcementRule* src_rule = look(pkt.src_mac);
  const EnforcementRule* dst_rule =
      pkt.dst_mac.is_multicast() ? nullptr : look(pkt.dst_mac);
  const Overlay src_overlay =
      src_rule ? src_rule->overlay() : Overlay::kUntrusted;

  // Flow-level filters refine the device's isolation level and take
  // precedence over the coarse overlay/whitelist policy: egress filters of
  // the sender first, then ingress filters of the receiver.
  if (src_rule) {
    if (auto drop = src_rule->filter_verdict_drop(pkt, /*from_device=*/true)) {
      *reason = *drop ? "flow-filter-egress" : "flow-filter-allow";
      return *drop ? FlowAction::kDrop : FlowAction::kForward;
    }
  }
  if (dst_rule) {
    if (auto drop = dst_rule->filter_verdict_drop(pkt, /*from_device=*/false)) {
      *reason = *drop ? "flow-filter-ingress" : "flow-filter-allow";
      return *drop ? FlowAction::kDrop : FlowAction::kForward;
    }
  }

  // Remote (Internet) destination?
  if (pkt.dst_ip && pkt.dst_ip->is_v4() &&
      is_internet_destination(pkt.dst_ip->v4())) {
    if (!src_rule) {
      *reason = "unidentified-no-internet";
      return FlowAction::kDrop;
    }
    if (src_rule->permits_remote(pkt.dst_ip->v4())) {
      *reason = src_rule->level == IsolationLevel::kTrusted
                    ? "trusted-internet"
                    : "whitelisted-endpoint";
      return FlowAction::kForward;
    }
    *reason = src_rule->level == IsolationLevel::kRestricted
                  ? "whitelist-miss"
                  : "strict-no-internet";
    return FlowAction::kDrop;
  }

  // Local multicast/broadcast stays within the sender's overlay; the
  // switch replicates it only to same-overlay ports, so forwarding here is
  // safe and keeps discovery protocols working.
  if (pkt.dst_mac.is_multicast()) {
    *installable = false;
    *reason = "local-multicast";
    return FlowAction::kForward;
  }

  // Device-to-device: both endpoints must be in the same overlay.
  const Overlay dst_overlay =
      dst_rule ? dst_rule->overlay() : Overlay::kUntrusted;
  if (src_overlay == dst_overlay) {
    *reason = "same-overlay";
    return FlowAction::kForward;
  }
  *reason = "overlay-isolation";
  return FlowAction::kDrop;
}

PacketInDecision Controller::packet_in(const net::ParsedPacket& pkt,
                                       std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++packet_ins_;
  rules_.set_now(now_us);

  PacketInDecision decision;
  bool installable = true;
  if (config_.filtering_enabled) {
    decision.action = decide(pkt, &decision.reason, &installable);
    if (decision.action == FlowAction::kDrop) ++drops_;
    // Every `decide` outcome is a pure function of the packet's flow class
    // under the current rule set (policy never reads the source port), so
    // it is always class-cacheable; invalidation fan-out bounds staleness.
    decision.cacheable = true;
  } else {
    decision.action = FlowAction::kForward;
    decision.reason = "filtering-disabled";
  }

  if (installable) {
    FlowEntry entry;
    entry.match = FlowMatch::micro_flow(pkt);
    entry.action = decision.action;
    entry.priority = 10;
    entry.idle_timeout_us = config_.flow_idle_timeout_us;
    entry.cookie = pkt.src_mac.to_u64();
    decision.flow_to_install = std::move(entry);
  }
  return decision;
}

}  // namespace iotsentinel::sdn
