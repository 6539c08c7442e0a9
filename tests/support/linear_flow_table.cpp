#include "linear_flow_table.hpp"

#include <algorithm>

namespace iotsentinel::sdn {

std::uint64_t LinearFlowTable::install(FlowEntry entry, std::uint64_t now_us) {
  entry.installed_us = now_us;
  entry.last_matched_us = now_us;
  const std::uint64_t id = next_id_++;
  // Insert keeping descending priority; equal priorities keep insertion
  // order so earlier rules win ties.
  auto pos = std::find_if(entries_.begin(), entries_.end(),
                          [&](const FlowEntry& e) {
                            return e.priority < entry.priority;
                          });
  entries_.insert(pos, std::move(entry));
  return id;
}

std::optional<FlowAction> LinearFlowTable::process(const net::ParsedPacket& pkt,
                                                   std::uint64_t now_us) {
  for (auto& entry : entries_) {
    if (entry.match.matches(pkt)) {
      ++entry.packets;
      entry.bytes += pkt.wire_size;
      entry.last_matched_us = now_us;
      ++matched_;
      return entry.action;
    }
  }
  ++misses_;
  return std::nullopt;
}

std::size_t LinearFlowTable::expire(std::uint64_t now_us) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [now_us](const FlowEntry& e) {
    return e.idle_timeout_us != 0 &&
           now_us - e.last_matched_us >= e.idle_timeout_us;
  });
  return before - entries_.size();
}

std::size_t LinearFlowTable::remove_by_cookie(std::uint64_t cookie) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_,
                [cookie](const FlowEntry& e) { return e.cookie == cookie; });
  return before - entries_.size();
}

}  // namespace iotsentinel::sdn
