// Per-switch flow-class decision cache: the federation layer that lets N
// `SoftwareSwitch` instances (one per gateway shard) share one logical
// policy view without sharing the controller lock on every table miss.
//
// Why a *class* cache works
// -------------------------
// PR 6's fleet run showed the pipeline is slow-path bound: ~78% of standby
// packets miss the flow table because every standby flow draws a fresh
// ephemeral source port, so the micro-flow entry installed for the
// previous occurrence never matches the next one. But the controller's
// verdict does not depend on the source port at all: `Controller::decide`
// branches on the infrastructure class (ARP / EAPoL / DHCP) and otherwise
// on the src/dst enforcement rules, whose flow filters match only
// (direction, ip_proto, dst_port). Two packets with equal `FlowClassKey`s
// — the canonical 7-tuple with the source port wildcarded, plus the
// infrastructure-class bits `FlowMatch` cannot express — therefore always
// receive the same decision under the same rule set, so one packet-in per
// class per rule era answers them all.
//
// Federation protocol (who writes what, from where)
// -------------------------------------------------
// Lookups and inserts happen on the cache's OWNER thread (the shard worker
// driving its switch) and touch plain, unsynchronized maps. Rule changes
// happen on whatever thread calls the controller; the controller fans out
// `invalidate_device` / `invalidate_all` to every attached cache, which
// only appends to a mutex-protected pending queue and bumps an atomic
// sequence number. The owner drains the queue at the next lookup/insert —
// the common case (nothing pending) is a single relaxed-load-compare.
//
// Staleness window: an entry inserted concurrently with the invalidation
// that should kill it is erased at the owner's next drain; a decision
// computed before an invalidation but inserted after the drain is
// detected by a generation check and simply not cached. In the sharded
// gateway a device's rule install runs on its OWNING shard's worker
// thread — the same thread that drains that shard's cache — so entries
// keyed by the device's own (src) traffic are invalidated synchronously
// with the install, race-free. Cross-shard dst-keyed staleness has the
// same scope as stale flow-table entries and is covered by the
// enforcement auditor's documented contract (enforcement_audit.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/hash_mix.hpp"
#include "net/mac_address.hpp"
#include "net/packet.hpp"
#include "sdn/flow_table.hpp"
#include "telemetry/registry.hpp"

namespace iotsentinel::sdn {

/// Identity of one controller-decision equivalence class: the packet's
/// canonical 7-tuple with the ephemeral source port wildcarded, plus the
/// infrastructure-protocol bits `Controller::decide` branches on before
/// it ever consults a rule (FlowMatch cannot express these, so the
/// MicroFlowKey alone would conflate e.g. an ARP probe with an IP flow).
struct FlowClassKey {
  MicroFlowKey base;
  std::uint8_t cls = 0;  // kClsArp | kClsEapol | kClsDhcp

  static constexpr std::uint8_t kClsArp = 1u << 0;
  static constexpr std::uint8_t kClsEapol = 1u << 1;
  static constexpr std::uint8_t kClsDhcp = 1u << 2;  // DHCP or BOOTP

  /// Builds the class key of a parsed packet.
  static FlowClassKey of_packet(const net::ParsedPacket& pkt);

  [[nodiscard]] std::uint64_t hash() const {
    return net::mix64(base.hash() ^ (std::uint64_t{cls} * 0x9e3779b97f4a7c15ULL));
  }
  /// Source MAC encoded in the key (the invalidation index key).
  [[nodiscard]] std::uint64_t src_mac_u64() const {
    return base.w0 & 0xffffffffffffULL;
  }
  /// Destination MAC encoded in the key.
  [[nodiscard]] std::uint64_t dst_mac_u64() const {
    return base.w1 & 0xffffffffffffULL;
  }

  friend bool operator==(const FlowClassKey&, const FlowClassKey&) = default;
};

struct FlowClassKeyHash {
  std::size_t operator()(const FlowClassKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};

/// One cached controller decision, sufficient to answer a table miss
/// without a packet-in. `reason` points at the controller's static
/// diagnostic literals, so cached verdicts are byte-identical to slow-path
/// ones.
struct CachedDecision {
  FlowAction action = FlowAction::kDrop;
  const char* reason = "";
};

/// The per-switch decision cache (see file comment for the protocol).
class SwitchRuleCache {
 public:
  /// Flush-on-full capacity: at fleet scale each shard holds ~25k devices
  /// x ~8 standby flow classes ~= 200k live entries, comfortably under
  /// this cap, so steady state never flushes (~24 MB worst case).
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit SwitchRuleCache(std::size_t max_entries = kDefaultCapacity)
      : capacity_(max_entries == 0 ? kDefaultCapacity : max_entries) {}

  SwitchRuleCache(const SwitchRuleCache&) = delete;
  SwitchRuleCache& operator=(const SwitchRuleCache&) = delete;

  /// Binds the histogram that receives one invalidation fan-out lag
  /// sample (drain virtual time - enqueue virtual time, microseconds) per
  /// drained event. Call before traffic; may be shared across caches.
  void bind_lag_histogram(telemetry::Histogram* h) { lag_hist_ = h; }

  // --- owner thread ----------------------------------------------------

  /// Drains pending invalidations, then looks up `key`. The returned
  /// pointer is valid until the next mutating call on the owner thread.
  [[nodiscard]] const CachedDecision* lookup(const FlowClassKey& key,
                                             std::uint64_t now_us);

  /// Caches the decision computed for the `lookup` miss that preceded
  /// this call. Dropped (not inserted) when any invalidation was drained
  /// since that lookup — the decision may predate the rule change.
  void insert(const FlowClassKey& key, const CachedDecision& decision);

  // --- any thread (the controller, under its own lock) ------------------

  /// Queues removal of every entry whose src or dst MAC is `device`.
  void invalidate_device(const net::MacAddress& device, std::uint64_t now_us);

  /// Queues removal of every entry (rule-cache LRU eviction: the victim
  /// device is unknown to the controller, so everything must go).
  void invalidate_all(std::uint64_t now_us);

  // --- introspection (owner thread, or after writers quiesced) ----------

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t insertions() const { return insertions_; }
  /// Inserts dropped by the post-invalidation generation check.
  [[nodiscard]] std::uint64_t stale_inserts() const { return stale_inserts_; }
  /// Entries erased by drained device invalidations.
  [[nodiscard]] std::uint64_t invalidated_entries() const {
    return invalidated_entries_;
  }
  /// Whole-cache flushes (capacity overflow or invalidate_all).
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  /// Invalidation events enqueued by the controller (any thread).
  [[nodiscard]] std::uint64_t invalidations_enqueued() const {
    std::lock_guard<std::mutex> lock(pending_mu_);
    return enqueued_;
  }

 private:
  struct PendingInvalidation {
    std::uint64_t mac = 0;  // ignored when `all`
    std::uint64_t enqueued_us = 0;
    bool all = false;
  };

  void drain(std::uint64_t now_us);
  void apply_device_invalidation(std::uint64_t mac);
  void flush();

  const std::size_t capacity_;
  telemetry::Histogram* lag_hist_ = nullptr;

  // Owner-thread state.
  std::unordered_map<FlowClassKey, CachedDecision, FlowClassKeyHash> map_;
  /// MAC -> class keys currently cached that name it (src or dst); lets a
  /// device invalidation erase O(its classes) entries instead of scanning
  /// the whole cache. Cleared per-MAC on invalidation and wholesale on
  /// flush, so it cannot outgrow the entries it indexes.
  std::unordered_map<std::uint64_t, std::vector<FlowClassKey>> by_mac_;
  std::vector<PendingInvalidation> drain_scratch_;
  std::uint64_t drained_seq_ = 0;
  /// Drained-invalidation generation for the lookup/insert pairing check.
  std::uint64_t generation_ = 0;
  std::uint64_t generation_at_lookup_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t stale_inserts_ = 0;
  std::uint64_t invalidated_entries_ = 0;
  std::uint64_t flushes_ = 0;

  // Cross-thread invalidation queue.
  mutable std::mutex pending_mu_;
  std::vector<PendingInvalidation> pending_;
  std::uint64_t enqueued_ = 0;
  /// Bumped under `pending_mu_` after each enqueue; the owner compares it
  /// to `drained_seq_` with one acquire load to skip the lock when idle.
  std::atomic<std::uint64_t> pending_seq_{0};
};

}  // namespace iotsentinel::sdn
