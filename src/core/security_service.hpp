// The IoT Security Service (IoTSSP, paper Sect. III-B).
//
// Receives device fingerprints from Security Gateways, identifies the
// device-type with the two-stage identifier, assesses the type against the
// vulnerability database and returns the isolation level to enforce plus —
// for Restricted devices — the permitted vendor-cloud endpoints. The
// service is stateless with respect to its gateway clients, mirroring the
// paper's privacy design.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/identifier.hpp"
#include "core/vulnerability_db.hpp"
#include "net/ip_address.hpp"
#include "sdn/isolation.hpp"

namespace iotsentinel::core {

/// The IoTSSP's answer to one fingerprint submission.
struct ServiceVerdict {
  /// Identified type name; empty for new/unknown device-types.
  std::string device_type;
  bool is_known = false;
  sdn::IsolationLevel level = sdn::IsolationLevel::kStrict;
  /// Endpoints a Restricted device may still reach (vendor cloud).
  std::vector<net::Ipv4Address> permitted_endpoints;
  /// Full identification trace (candidates, discrimination use, ...).
  IdentificationResult identification;
};

/// The cloud-side service.
class IoTSecurityService {
 public:
  IoTSecurityService(DeviceIdentifier identifier, VulnerabilityDb db)
      : identifier_(std::move(identifier)), db_(std::move(db)) {}

  /// Movable (setup-time only — moving while assessments run is a race);
  /// the telemetry atomics require spelling the moves out.
  IoTSecurityService(IoTSecurityService&& other) noexcept
      : identifier_(std::move(other.identifier_)),
        db_(std::move(other.db_)),
        endpoints_(std::move(other.endpoints_)),
        assessments_(other.assessments_.load(std::memory_order_relaxed)),
        batches_(other.batches_.load(std::memory_order_relaxed)) {}
  IoTSecurityService& operator=(IoTSecurityService&& other) noexcept {
    identifier_ = std::move(other.identifier_);
    db_ = std::move(other.db_);
    endpoints_ = std::move(other.endpoints_);
    assessments_.store(other.assessments_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    batches_.store(other.batches_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// Registers the permitted cloud endpoints for a device-type (consulted
  /// when the type is assessed Restricted).
  void register_endpoints(const std::string& device_type,
                          std::vector<net::Ipv4Address> endpoints);

  /// The paper's request path: fingerprint in, isolation level out.
  ///
  /// Thread safety: `assess`, `assess_into` and `assess_batch` are pure
  /// reads of state frozen at construction/registration time, so any
  /// number of threads may call them concurrently — the sharded gateway's
  /// classifier thread relies on this. `register_endpoints` is a setup-time
  /// mutation and must not race with assessments.
  [[nodiscard]] ServiceVerdict assess(const fp::Fingerprint& f) const;

  /// Reusable-buffer variant of `assess`: resets every field of `out`
  /// while keeping its buffers' capacity.
  void assess_into(const fp::Fingerprint& f, ServiceVerdict& out) const;

  /// Batched request path (one IoTSSP round for many completing devices):
  /// stage-1 classification runs through the bank's type-major
  /// `score_batch` sweep via `DeviceIdentifier::identify_batch_with`.
  /// Verdicts are field-for-field identical to per-fingerprint `assess`
  /// calls. `out` is resized to `fingerprints.size()`, reusing element
  /// buffers.
  ///
  /// `engines` selects the stage-1 engine set: empty (the default) means
  /// the identifier's own bank; otherwise a hot-swapped ml::ForestBank
  /// snapshot pinned for the duration of the call
  /// (ml::ForestBankPublisher). Everything else (stage 2, vulnerability
  /// assessment, endpoints) is the same either way.
  void assess_batch(std::span<const fp::Fingerprint* const> fingerprints,
                    std::vector<ServiceVerdict>& out,
                    std::span<const ml::CompiledForest> engines = {}) const;

  [[nodiscard]] const DeviceIdentifier& identifier() const {
    return identifier_;
  }
  [[nodiscard]] const VulnerabilityDb& vulnerability_db() const { return db_; }

  /// Fingerprints assessed so far (single + batched paths). Intrinsic
  /// service-side telemetry: the counters are relaxed atomics so the
  /// const/thread-safe contract of the assess family is unchanged.
  [[nodiscard]] std::uint64_t assessments() const {
    return assessments_.load(std::memory_order_relaxed);
  }
  /// `assess_batch` invocations (batch sizing = assessments / batches).
  [[nodiscard]] std::uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared verdict tail: maps an already-filled `identification` to
  /// type/level/endpoints (used by both the single and batched paths).
  void finish_verdict(ServiceVerdict& verdict) const;

  DeviceIdentifier identifier_;
  VulnerabilityDb db_;
  std::unordered_map<std::string, std::vector<net::Ipv4Address>> endpoints_;
  /// Telemetry (see `assessments`); mutable because assessing is
  /// logically const.
  mutable std::atomic<std::uint64_t> assessments_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
};

}  // namespace iotsentinel::core
