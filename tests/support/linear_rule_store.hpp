// Reference rule store: a linear scan per lookup.
//
// Test-support code, not part of the gateway. It is the baseline of the
// rule-lookup ablation (bench/ablation_rule_lookup), which compares it with
// the hash-table `sdn::RuleCache` the paper prescribes, and its lookup and
// replace semantics are checked against the cache's in
// tests/test_rule_cache.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "sdn/enforcement_rule.hpp"

namespace iotsentinel::sdn {

/// Baseline for the lookup ablation: same interface, O(n) scan per lookup.
class LinearRuleStore {
 public:
  void install(EnforcementRule rule);
  const EnforcementRule* lookup(const net::MacAddress& device);
  [[nodiscard]] std::size_t size() const { return rules_.size(); }

 private:
  std::vector<EnforcementRule> rules_;
};

}  // namespace iotsentinel::sdn
