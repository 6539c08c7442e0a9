#include "sdn/software_switch.hpp"

namespace iotsentinel::sdn {

SwitchResult SoftwareSwitch::process(const net::ParsedPacket& pkt,
                                     std::uint64_t now_us) {
  SwitchResult result;
  // Class cache first: a cached class verdict answers ephemeral-port
  // flows in O(1) without touching the flow table or the controller.
  FlowClassKey cls;
  const CachedDecision* cached = nullptr;
  if (cache_) {
    cls = FlowClassKey::of_packet(pkt);
    cached = cache_->lookup(cls, now_us);
  }
  if (cached) {
    ++cached_;
    result.action = cached->action;
    result.path = SwitchPath::kCachedPath;
    result.reason = cached->reason;
  } else if (auto action = table_.process(pkt, now_us)) {
    ++fast_;
    result.action = *action;
    result.path = SwitchPath::kFastPath;
    result.reason = "flow-entry";
  } else {
    ++slow_;
    PacketInDecision decision = controller_.packet_in(pkt, now_us);
    if (decision.flow_to_install) {
      table_.install(std::move(*decision.flow_to_install), now_us);
    }
    if (cache_ && decision.cacheable) {
      cache_->insert(cls, {decision.action, decision.reason});
    }
    result.action = decision.action;
    result.path = SwitchPath::kSlowPath;
    result.reason = decision.reason;
  }
  if (audit_) audit_(pkt, result, now_us);
  return result;
}

}  // namespace iotsentinel::sdn
