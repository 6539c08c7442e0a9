// Enforcement-rule storage.
//
// The paper stores rules "in a hash table structure to minimize the lookup
// time as the enforcement rule cache grows" and bounds memory "by limiting
// the size of the enforcement rule cache and removing unused enforcement
// rules". RuleCache implements exactly that: an unordered_map keyed by MAC
// with optional capacity, LRU eviction of unused rules, and lookup/hit
// counters for the Fig. 6c memory bench. The linear-scan baseline of the
// lookup ablation bench lives in tests/support (LinearRuleStore).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "sdn/enforcement_rule.hpp"

namespace iotsentinel::sdn {

/// Hash-table rule cache with LRU eviction.
class RuleCache {
 public:
  /// `capacity == 0` means unbounded.
  explicit RuleCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Inserts or replaces the rule for `rule.device`. May evict the least
  /// recently used rule when at capacity.
  void install(EnforcementRule rule);

  /// Looks up the rule for a device, refreshing its LRU position.
  /// Returns nullptr on miss.
  const EnforcementRule* lookup(const net::MacAddress& device);

  /// Side-effect-free lookup: no LRU refresh, no counter updates. For the
  /// enforcement audit path, which must observe the cache without
  /// perturbing eviction order or hit-rate accounting.
  [[nodiscard]] const EnforcementRule* peek(
      const net::MacAddress& device) const;

  /// Removes the rule for a departed device. Returns true if present.
  bool remove(const net::MacAddress& device);

  /// Drops every rule not used since `cutoff_us` (periodic cleanup of
  /// devices no longer connected). Returns the number removed.
  std::size_t expire_unused(std::uint64_t cutoff_us);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Estimated resident bytes of the cache (entries + hash buckets), used
  /// by the Fig. 6c memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Updates the virtual clock used to stamp rule usage.
  void set_now(std::uint64_t now_us) { now_us_ = now_us; }

 private:
  struct Entry {
    EnforcementRule rule;
    std::uint64_t last_used_us = 0;
    std::list<net::MacAddress>::iterator lru_pos;
  };

  void touch(Entry& entry, const net::MacAddress& mac);

  std::size_t capacity_;
  std::uint64_t now_us_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;
  std::unordered_map<net::MacAddress, Entry> map_;
  /// Most recently used at the front.
  std::list<net::MacAddress> lru_;
};

}  // namespace iotsentinel::sdn
