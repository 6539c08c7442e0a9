#include "sdn/rule_cache.hpp"

namespace iotsentinel::sdn {

void RuleCache::install(EnforcementRule rule) {
  auto it = map_.find(rule.device);
  if (it != map_.end()) {
    it->second.rule = std::move(rule);
    touch(it->second, it->first);
    return;
  }
  if (capacity_ != 0 && map_.size() >= capacity_) {
    // Evict the least recently used rule.
    const net::MacAddress victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++evictions_;
  }
  const net::MacAddress mac = rule.device;
  lru_.push_front(mac);
  Entry entry;
  entry.rule = std::move(rule);
  entry.last_used_us = now_us_;
  entry.lru_pos = lru_.begin();
  map_.emplace(mac, std::move(entry));
}

const EnforcementRule* RuleCache::lookup(const net::MacAddress& device) {
  ++lookups_;
  auto it = map_.find(device);
  if (it == map_.end()) return nullptr;
  ++hits_;
  touch(it->second, it->first);
  return &it->second.rule;
}

const EnforcementRule* RuleCache::peek(const net::MacAddress& device) const {
  const auto it = map_.find(device);
  return it == map_.end() ? nullptr : &it->second.rule;
}

bool RuleCache::remove(const net::MacAddress& device) {
  auto it = map_.find(device);
  if (it == map_.end()) return false;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
  return true;
}

std::size_t RuleCache::expire_unused(std::uint64_t cutoff_us) {
  std::size_t removed = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.last_used_us < cutoff_us) {
      lru_.erase(it->second.lru_pos);
      it = map_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t RuleCache::memory_bytes() const {
  // Approximate resident size: per-entry node (key + Entry + bucket
  // pointers), LRU node, and the dynamic permitted-IP sets.
  std::size_t bytes = sizeof(RuleCache);
  bytes += map_.bucket_count() * sizeof(void*);
  for (const auto& [mac, entry] : map_) {
    bytes += sizeof(mac) + sizeof(Entry) + 2 * sizeof(void*);  // map node
    bytes += sizeof(net::MacAddress) + 2 * sizeof(void*);      // lru node
    bytes += entry.rule.permitted_ips.size() *
             (sizeof(net::Ipv4Address) + 2 * sizeof(void*));
    bytes += entry.rule.permitted_ips.bucket_count() * sizeof(void*);
  }
  return bytes;
}

void RuleCache::touch(Entry& entry, const net::MacAddress& mac) {
  entry.last_used_us = now_us_;
  lru_.erase(entry.lru_pos);
  lru_.push_front(mac);
  entry.lru_pos = lru_.begin();
}

}  // namespace iotsentinel::sdn
