#include "core/security_service.hpp"

namespace iotsentinel::core {

void IoTSecurityService::register_endpoints(
    const std::string& device_type, std::vector<net::Ipv4Address> endpoints) {
  endpoints_[device_type] = std::move(endpoints);
}

namespace {

/// Clears a verdict's non-identification fields, keeping buffer capacity.
void reset_verdict(ServiceVerdict& verdict) {
  verdict.device_type.clear();
  verdict.is_known = false;
  verdict.level = sdn::IsolationLevel::kStrict;
  verdict.permitted_endpoints.clear();
}

}  // namespace

void IoTSecurityService::finish_verdict(ServiceVerdict& verdict) const {
  if (verdict.identification.type_index) {
    verdict.device_type = verdict.identification.type_name;
    verdict.is_known = true;
    verdict.level = db_.assess(verdict.device_type);
  } else {
    // Unknown device-type: strict isolation (paper Sect. III-B).
    verdict.level = sdn::IsolationLevel::kStrict;
  }

  if (verdict.level == sdn::IsolationLevel::kRestricted) {
    auto it = endpoints_.find(verdict.device_type);
    if (it != endpoints_.end()) verdict.permitted_endpoints = it->second;
  }
}

ServiceVerdict IoTSecurityService::assess(const fp::Fingerprint& f) const {
  ServiceVerdict verdict;
  assess_into(f, verdict);
  return verdict;
}

void IoTSecurityService::assess_into(const fp::Fingerprint& f,
                                     ServiceVerdict& out) const {
  reset_verdict(out);
  identifier_.identify_into(f, out.identification);
  finish_verdict(out);
  assessments_.fetch_add(1, std::memory_order_relaxed);
}

void IoTSecurityService::assess_batch(
    std::span<const fp::Fingerprint* const> fingerprints,
    std::vector<ServiceVerdict>& out,
    std::span<const ml::CompiledForest> engines) const {
  if (engines.empty()) engines = identifier_.bank().engines();
  out.resize(fingerprints.size());

  // Lend the verdicts' identification results to the batched identifier
  // so their candidate/name buffers are reused, then take them back.
  std::vector<IdentificationResult> identifications(fingerprints.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    identifications[i] = std::move(out[i].identification);
  }
  identifier_.identify_batch_with(engines, fingerprints, identifications);
  for (std::size_t i = 0; i < out.size(); ++i) {
    reset_verdict(out[i]);
    out[i].identification = std::move(identifications[i]);
    finish_verdict(out[i]);
  }
  assessments_.fetch_add(fingerprints.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace iotsentinel::core
