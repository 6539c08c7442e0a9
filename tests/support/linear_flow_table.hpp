// Reference flow table: the original single-tier implementation, a linear
// priority scan per packet with O(n) expire and remove_by_cookie.
//
// Test-support code, not part of the gateway. It is the oracle of the
// differential trace test (tests/test_flow_table_differential.cpp) and the
// baseline of the BENCH_flowtable.json ablation (bench/fig6a_latency_flows).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sdn/flow_table.hpp"

namespace iotsentinel::sdn {

/// The original single-tier implementation: linear scan per packet, O(n)
/// expire and remove_by_cookie. Reference oracle for the differential
/// trace test and baseline for the BENCH_flowtable.json ablation.
class LinearFlowTable {
 public:
  std::uint64_t install(FlowEntry entry, std::uint64_t now_us);
  std::optional<FlowAction> process(const net::ParsedPacket& pkt,
                                    std::uint64_t now_us);
  std::size_t expire(std::uint64_t now_us);
  std::size_t remove_by_cookie(std::uint64_t cookie);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t matched_packets() const { return matched_; }

 private:
  std::vector<FlowEntry> entries_;  // kept sorted by descending priority
  std::uint64_t next_id_ = 1;
  std::uint64_t misses_ = 0;
  std::uint64_t matched_ = 0;
};

}  // namespace iotsentinel::sdn
