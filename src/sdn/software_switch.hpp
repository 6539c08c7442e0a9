// Open vSwitch-style software switch with an OpenFlow-ish fast/slow path.
//
// A packet is looked up, in order, in the flow-class decision cache (when
// one is attached; see switch_cache.hpp), then in the local flow table
// (fast path), and on a table miss raised as a packet-in to the attached
// controller, whose decision is applied and whose returned flow entry, if
// any, is installed so the rest of the flow stays on the fast path. The
// flow table is a tuple-space classifier (see flow_table.hpp): one hash
// probe per distinct match shape, so the fast path stays O(1) as the
// installed-flow population grows. Per-path counters feed the latency
// model of the network simulator (controller round-trips cost more than
// fast-path switching).
//
// Flow-entry contract: a cached-path packet never reaches the flow table,
// so it refreshes neither an installed entry's counters (`packets`,
// `bytes`, `last_matched_us`) nor its idle timer. An entry whose flow is
// answered from the class cache therefore expires on the idle deadline of
// its last fast-path match (or its install), however much traffic the
// cache serves meanwhile; the next packet after that takes the cached
// path again, so expiry costs no controller round-trip.
#pragma once

#include <cstdint>
#include <functional>

#include "sdn/controller.hpp"
#include "sdn/flow_table.hpp"
#include "sdn/switch_cache.hpp"

namespace iotsentinel::sdn {

/// How a packet traversed the switch (cost model input).
enum class SwitchPath {
  kFastPath,    // matched an installed flow entry
  kSlowPath,    // controller round-trip (packet-in)
  kCachedPath,  // served by the local flow-class decision cache — a past
                // controller verdict for the class, no round-trip, no
                // flow install (cost model: local, like the fast path)
};

/// Result of pushing one packet through the switch.
struct SwitchResult {
  FlowAction action = FlowAction::kDrop;
  SwitchPath path = SwitchPath::kFastPath;
  const char* reason = "";
};

/// The data-plane element of the Security Gateway.
class SoftwareSwitch {
 public:
  explicit SoftwareSwitch(Controller& controller) : controller_(controller) {}

  /// Observer invoked after every `process` with the packet and the
  /// verdict the data plane actually applied — the attachment point for
  /// the enforcement auditor (sdn/enforcement_audit.hpp), which replays
  /// fast-path verdicts against the controller's current policy. Runs on
  /// whichever thread calls `process`; an empty hook costs one branch.
  using AuditHook = std::function<void(const net::ParsedPacket& pkt,
                                       const SwitchResult& result,
                                       std::uint64_t now_us)>;
  void set_audit(AuditHook hook) { audit_ = std::move(hook); }

  /// Binds this switch's flow-class decision cache (federation member; see
  /// sdn/switch_cache.hpp). The cache must be attached to the SAME
  /// controller (`Controller::attach_cache`) so rule changes invalidate
  /// it, and must outlive the switch. nullptr (default) disables the
  /// cached path entirely — bare switches behave exactly as before.
  void set_rule_cache(SwitchRuleCache* cache) { cache_ = cache; }

  /// Switches one packet at virtual time `now_us`.
  SwitchResult process(const net::ParsedPacket& pkt, std::uint64_t now_us);

  /// Expires idle flow entries (call periodically from the simulator).
  std::size_t expire_flows(std::uint64_t now_us) {
    return table_.expire(now_us);
  }

  /// Flushes all flows installed for a device (rule change / departure).
  std::size_t flush_device(const net::MacAddress& device) {
    return table_.remove_by_cookie(device.to_u64());
  }

  [[nodiscard]] FlowTable& table() { return table_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }
  [[nodiscard]] std::uint64_t fast_path_packets() const { return fast_; }
  [[nodiscard]] std::uint64_t slow_path_packets() const { return slow_; }
  /// Packets served by the flow-class decision cache (would have been
  /// slow-path controller consults before federation).
  [[nodiscard]] std::uint64_t cached_path_packets() const { return cached_; }

  /// Switch-side state bytes (the flow table with its mask tables,
  /// deadline heap and cookie index) — Fig. 6c accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    return table_.memory_bytes();
  }

 private:
  Controller& controller_;
  FlowTable table_;
  AuditHook audit_;
  SwitchRuleCache* cache_ = nullptr;
  std::uint64_t fast_ = 0;
  std::uint64_t slow_ = 0;
  std::uint64_t cached_ = 0;
};

}  // namespace iotsentinel::sdn
