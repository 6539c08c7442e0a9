#include "linear_rule_store.hpp"

namespace iotsentinel::sdn {

void LinearRuleStore::install(EnforcementRule rule) {
  for (auto& existing : rules_) {
    if (existing.device == rule.device) {
      existing = std::move(rule);
      return;
    }
  }
  rules_.push_back(std::move(rule));
}

const EnforcementRule* LinearRuleStore::lookup(const net::MacAddress& device) {
  for (const auto& rule : rules_) {
    if (rule.device == device) return &rule;
  }
  return nullptr;
}

}  // namespace iotsentinel::sdn
