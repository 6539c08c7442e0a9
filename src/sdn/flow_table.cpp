#include "sdn/flow_table.hpp"

#include <algorithm>

#include "net/hash_mix.hpp"

namespace iotsentinel::sdn {
namespace {

std::optional<net::Ipv4Address> packet_v4(const std::optional<net::IpAddress>& ip) {
  if (ip && ip->is_v4()) return ip->v4();
  return std::nullopt;
}

// MicroFlowKey presence/proto flags (w0 bits 48..53).
constexpr std::uint64_t kFlagTcp = 1u << 0;
constexpr std::uint64_t kFlagUdp = 1u << 1;
constexpr std::uint64_t kFlagSrcIp = 1u << 2;
constexpr std::uint64_t kFlagDstIp = 1u << 3;
constexpr std::uint64_t kFlagSrcPort = 1u << 4;
constexpr std::uint64_t kFlagDstPort = 1u << 5;

// Pinned-field set of a FlowMatch: the identity of its mask.
constexpr std::uint8_t kFieldSrcMac = 1u << 0;
constexpr std::uint8_t kFieldDstMac = 1u << 1;
constexpr std::uint8_t kFieldSrcIp = 1u << 2;
constexpr std::uint8_t kFieldDstIp = 1u << 3;
constexpr std::uint8_t kFieldProto = 1u << 4;
constexpr std::uint8_t kFieldSrcPort = 1u << 5;
constexpr std::uint8_t kFieldDstPort = 1u << 6;
constexpr std::uint8_t kAllFields = 0x7f;

constexpr std::size_t kMinBuckets = 8;

/// An entry's place in the tuple space: the fields it pins, all-ones over
/// the key bits those fields occupy (presence flags included), and its
/// pinned values in key layout. `(packet key & bits) == key` reproduces
/// FlowMatch::matches: a pinned address or port also requires the packet
/// to carry one, and a pinned protocol compares both the TCP and the UDP
/// flag.
struct Shape {
  std::uint8_t fields = 0;
  MicroFlowKey bits;
  MicroFlowKey key;
};

Shape shape_of(const FlowMatch& m) {
  Shape s;
  auto pin = [&s](std::uint8_t field, std::uint64_t& key_word,
                  std::uint64_t& bits_word, std::uint64_t value,
                  std::uint64_t ones, int shift, std::uint64_t flag) {
    s.fields |= field;
    key_word |= value << shift;
    bits_word |= ones << shift;
    s.key.w0 |= flag << 48;
    s.bits.w0 |= flag << 48;
  };
  constexpr std::uint64_t kMac = 0xffffffffffffULL;
  constexpr std::uint64_t kIp = 0xffffffffULL;
  constexpr std::uint64_t kPort = 0xffff;
  if (m.src_mac) {
    pin(kFieldSrcMac, s.key.w0, s.bits.w0, m.src_mac->to_u64(), kMac, 0, 0);
  }
  if (m.dst_mac) {
    pin(kFieldDstMac, s.key.w1, s.bits.w1, m.dst_mac->to_u64(), kMac, 0, 0);
  }
  if (m.src_ip) {
    pin(kFieldSrcIp, s.key.w2, s.bits.w2, m.src_ip->value(), kIp, 0,
        kFlagSrcIp);
  }
  if (m.dst_ip) {
    pin(kFieldDstIp, s.key.w2, s.bits.w2, m.dst_ip->value(), kIp, 32,
        kFlagDstIp);
  }
  if (m.ip_proto) {
    // Only the flag bits: a pinned protocol is a presence test.
    const std::uint64_t flag = (*m.ip_proto == 6) ? kFlagTcp : kFlagUdp;
    pin(kFieldProto, s.key.w0, s.bits.w0, flag, kFlagTcp | kFlagUdp, 48, 0);
  }
  if (m.src_port) {
    pin(kFieldSrcPort, s.key.w1, s.bits.w1, *m.src_port, kPort, 48,
        kFlagSrcPort);
  }
  if (m.dst_port) {
    pin(kFieldDstPort, s.key.w3, s.bits.w3, *m.dst_port, kPort, 0,
        kFlagDstPort);
  }
  return s;
}

/// FlowMatch::matches accepts only TCP and UDP for a pinned protocol.
bool matchable(const FlowMatch& match) {
  return !match.ip_proto || *match.ip_proto == 6 || *match.ip_proto == 17;
}

}  // namespace

bool FlowMatch::matches(const net::ParsedPacket& pkt) const {
  if (src_mac && pkt.src_mac != *src_mac) return false;
  if (dst_mac && pkt.dst_mac != *dst_mac) return false;
  if (src_ip) {
    auto v4 = packet_v4(pkt.src_ip);
    if (!v4 || *v4 != *src_ip) return false;
  }
  if (dst_ip) {
    auto v4 = packet_v4(pkt.dst_ip);
    if (!v4 || *v4 != *dst_ip) return false;
  }
  if (ip_proto) {
    const bool want_tcp = *ip_proto == 6;
    const bool want_udp = *ip_proto == 17;
    if (want_tcp && !pkt.is_tcp) return false;
    if (want_udp && !pkt.is_udp) return false;
    if (!want_tcp && !want_udp) return false;  // only TCP/UDP matchable
  }
  if (src_port && (!pkt.src_port || *pkt.src_port != *src_port)) return false;
  if (dst_port && (!pkt.dst_port || *pkt.dst_port != *dst_port)) return false;
  return true;
}

FlowMatch FlowMatch::micro_flow(const net::ParsedPacket& pkt) {
  FlowMatch m;
  m.src_mac = pkt.src_mac;
  m.dst_mac = pkt.dst_mac;
  m.src_ip = packet_v4(pkt.src_ip);
  m.dst_ip = packet_v4(pkt.dst_ip);
  if (pkt.is_tcp) m.ip_proto = 6;
  if (pkt.is_udp) m.ip_proto = 17;
  m.src_port = pkt.src_port;
  m.dst_port = pkt.dst_port;
  return m;
}

std::string FlowMatch::to_string() const {
  std::string out;
  auto field = [&out](const std::string& name, const std::string& value) {
    if (!out.empty()) out += ",";
    out += name + "=" + value;
  };
  if (src_mac) field("dl_src", src_mac->to_string());
  if (dst_mac) field("dl_dst", dst_mac->to_string());
  if (src_ip) field("nw_src", src_ip->to_string());
  if (dst_ip) field("nw_dst", dst_ip->to_string());
  if (ip_proto) field("nw_proto", std::to_string(*ip_proto));
  if (src_port) field("tp_src", std::to_string(*src_port));
  if (dst_port) field("tp_dst", std::to_string(*dst_port));
  if (out.empty()) out = "any";
  return out;
}

MicroFlowKey MicroFlowKey::of_packet(const net::ParsedPacket& pkt) {
  MicroFlowKey key;
  std::uint64_t flags = 0;
  if (pkt.is_tcp) flags |= kFlagTcp;
  if (pkt.is_udp) flags |= kFlagUdp;
  if (const auto v4 = packet_v4(pkt.src_ip)) {
    flags |= kFlagSrcIp;
    key.w2 |= static_cast<std::uint64_t>(v4->value());
  }
  if (const auto v4 = packet_v4(pkt.dst_ip)) {
    flags |= kFlagDstIp;
    key.w2 |= static_cast<std::uint64_t>(v4->value()) << 32;
  }
  if (pkt.src_port) {
    flags |= kFlagSrcPort;
    key.w1 |= static_cast<std::uint64_t>(*pkt.src_port) << 48;
  }
  if (pkt.dst_port) {
    flags |= kFlagDstPort;
    key.w3 = *pkt.dst_port;
  }
  key.w0 = pkt.src_mac.to_u64() | (flags << 48);
  key.w1 |= pkt.dst_mac.to_u64();
  return key;
}

MicroFlowKey MicroFlowKey::without_src_port() const {
  MicroFlowKey key = *this;
  key.w0 &= ~(kFlagSrcPort << 48);
  key.w1 &= 0xffffffffffffULL;  // drop the port value packed above dst MAC
  return key;
}

std::uint64_t MicroFlowKey::hash() const {
  std::uint64_t h = net::mix64(w0 + 0x9e3779b97f4a7c15ULL);
  h = net::mix64(h ^ w1);
  h = net::mix64(h ^ w2);
  return net::mix64(h ^ w3);
}

// --- FlowTable internals ----------------------------------------------------

bool FlowTable::beats(std::uint32_t a, std::uint32_t b) const {
  const Slot& sa = slots_[a];
  const Slot& sb = slots_[b];
  if (sa.entry.priority != sb.entry.priority) {
    return sa.entry.priority > sb.entry.priority;
  }
  return sa.id < sb.id;
}

void FlowTable::place(std::vector<Bucket>& buckets, Bucket bucket) {
  const std::size_t cap_mask = buckets.size() - 1;
  std::size_t i = bucket.hash & cap_mask;
  while (buckets[i].slot != kNoSlot) i = (i + 1) & cap_mask;
  buckets[i] = bucket;
}

void FlowTable::rehash(Mask& mask, std::size_t capacity) {
  std::vector<Bucket> old = std::move(mask.buckets);
  mask.buckets.assign(capacity, Bucket{});
  for (const Bucket& b : old) {
    if (b.slot != kNoSlot) place(mask.buckets, b);
  }
}

void FlowTable::erase_bucket(Mask& mask, std::size_t pos) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when the hole lies between their home bucket and where they sit.
  const std::size_t cap_mask = mask.buckets.size() - 1;
  std::size_t hole = pos;
  for (std::size_t i = (pos + 1) & cap_mask; mask.buckets[i].slot != kNoSlot;
       i = (i + 1) & cap_mask) {
    const std::size_t home = mask.buckets[i].hash & cap_mask;
    if (((i - home) & cap_mask) >= ((i - hole) & cap_mask)) {
      mask.buckets[hole] = mask.buckets[i];
      hole = i;
    }
  }
  mask.buckets[hole] = Bucket{};
}

std::vector<FlowTable::Mask>::iterator FlowTable::find_mask(
    std::uint8_t fields) {
  return std::find_if(masks_.begin(), masks_.end(),
                      [fields](const Mask& m) { return m.fields == fields; });
}

void FlowTable::index_entry(std::uint32_t slot, const MicroFlowKey& bits) {
  const Slot& s = slots_[slot];
  auto it = find_mask(s.fields);
  if (it == masks_.end()) {
    masks_.push_back({bits, s.fields, 0, std::vector<Bucket>(kMinBuckets)});
    it = masks_.end() - 1;
  }
  Mask& mask = *it;
  if ((mask.entries + 1) * 2 > mask.buckets.size()) {
    rehash(mask, mask.buckets.size() * 2);
  }
  // Entries with equal keys (duplicate installs) take separate buckets of
  // one probe run; lookups scan the run and keep the winner.
  place(mask.buckets, Bucket{slot, static_cast<std::uint32_t>(s.key.hash())});
  ++mask.entries;
}

void FlowTable::unindex_entry(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.fields == kUnindexed) return;
  const auto it = find_mask(s.fields);
  Mask& mask = *it;
  const std::size_t cap_mask = mask.buckets.size() - 1;
  std::size_t i = s.key.hash() & cap_mask;
  while (mask.buckets[i].slot != slot) i = (i + 1) & cap_mask;
  erase_bucket(mask, i);
  if (--mask.entries == 0) {
    masks_.erase(it);  // no probe is paid for a mask with no entries
  } else if (mask.entries * 8 < mask.buckets.size() &&
             mask.buckets.size() > kMinBuckets) {
    rehash(mask, mask.buckets.size() / 2);
  }
}

std::uint32_t FlowTable::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void FlowTable::release_slot(std::uint32_t slot) {
  unindex_entry(slot);
  Slot& s = slots_[slot];
  s.entry = FlowEntry{};
  s.id = 0;
  s.fields = kUnindexed;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void FlowTable::remove_entry(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const auto it = by_cookie_.find(s.entry.cookie);
  if (it != by_cookie_.end()) {
    auto& refs = it->second;
    for (auto ref = refs.begin(); ref != refs.end(); ++ref) {
      if (ref->first == slot && ref->second == s.id) {
        refs.erase(ref);
        break;
      }
    }
    if (refs.empty()) by_cookie_.erase(it);
  }
  release_slot(slot);
}

void FlowTable::heap_push(Deadline d) {
  heap_.push_back(d);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Deadline& a, const Deadline& b) {
                   return a.at_us > b.at_us;
                 });
}

FlowTable::Deadline FlowTable::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const Deadline& a, const Deadline& b) {
                  return a.at_us > b.at_us;
                });
  const Deadline d = heap_.back();
  heap_.pop_back();
  return d;
}

// --- FlowTable public API ---------------------------------------------------

std::uint64_t FlowTable::install(FlowEntry entry, std::uint64_t now_us) {
  entry.installed_us = now_us;
  entry.last_matched_us = now_us;
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.entry = std::move(entry);
  s.id = id;
  ++live_;
  if (s.entry.idle_timeout_us != 0) {
    heap_push({now_us + s.entry.idle_timeout_us, id, slot});
  }
  by_cookie_[s.entry.cookie].emplace_back(slot, id);
  if (matchable(s.entry.match)) {
    const Shape shape = shape_of(s.entry.match);
    s.fields = shape.fields;
    s.key = shape.key;
    index_entry(slot, shape.bits);
  }
  return id;
}

std::optional<FlowAction> FlowTable::process(const net::ParsedPacket& pkt,
                                             std::uint64_t now_us) {
  // One probe run per mask; the winner is the highest priority, then the
  // oldest entry, across masks and among equal keys.
  const MicroFlowKey key = MicroFlowKey::of_packet(pkt);
  std::uint32_t best = kNoSlot;
  for (const Mask& mask : masks_) {
    const MicroFlowKey probe{key.w0 & mask.bits.w0, key.w1 & mask.bits.w1,
                             key.w2 & mask.bits.w2, key.w3 & mask.bits.w3};
    const auto hash = static_cast<std::uint32_t>(probe.hash());
    const std::size_t cap_mask = mask.buckets.size() - 1;
    for (std::size_t i = hash & cap_mask; mask.buckets[i].slot != kNoSlot;
         i = (i + 1) & cap_mask) {
      const Bucket& b = mask.buckets[i];
      if (b.hash == hash && slots_[b.slot].key == probe &&
          (best == kNoSlot || beats(b.slot, best))) {
        best = b.slot;
      }
    }
  }
  if (best == kNoSlot) {
    ++misses_;
    return std::nullopt;
  }
  Slot& s = slots_[best];
  ++s.entry.packets;
  s.entry.bytes += pkt.wire_size;
  s.entry.last_matched_us = now_us;
  ++matched_;
  if (s.fields == kAllFields) ++tier1_hits_;
  return s.entry.action;
}

std::size_t FlowTable::expire(std::uint64_t now_us) {
  std::size_t removed = 0;
  while (!heap_.empty() && heap_.front().at_us <= now_us) {
    const Deadline d = heap_pop();
    const Slot& s = slots_[d.slot];
    if (s.id != d.id) continue;  // entry already removed; stale record
    const std::uint64_t deadline =
        s.entry.last_matched_us + s.entry.idle_timeout_us;
    if (deadline > now_us) {
      // Matched since the record was queued — re-arm at the new deadline.
      heap_push({deadline, d.id, d.slot});
      continue;
    }
    remove_entry(d.slot);
    ++removed;
  }
  return removed;
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const auto it = by_cookie_.find(cookie);
  if (it == by_cookie_.end()) return 0;
  const auto victims = std::move(it->second);
  by_cookie_.erase(it);
  std::size_t removed = 0;
  for (const auto& [slot, id] : victims) {
    if (slots_[slot].id != id) continue;  // index is maintained eagerly
    release_slot(slot);
    ++removed;
  }
  return removed;
}

std::vector<FlowEntry> FlowTable::entries() const {
  std::vector<std::uint32_t> order;
  order.reserve(live_);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) { return beats(a, b); });
  std::vector<FlowEntry> out;
  out.reserve(order.size());
  for (const std::uint32_t idx : order) out.push_back(slots_[idx].entry);
  return out;
}

std::size_t FlowTable::memory_bytes() const {
  std::size_t bytes = sizeof(FlowTable);
  bytes += slots_.capacity() * sizeof(Slot);
  bytes += masks_.capacity() * sizeof(Mask);
  for (const Mask& mask : masks_) {
    bytes += mask.buckets.capacity() * sizeof(Bucket);
  }
  bytes += heap_.capacity() * sizeof(Deadline);
  bytes += by_cookie_.bucket_count() * sizeof(void*);
  for (const auto& [cookie, refs] : by_cookie_) {
    bytes += sizeof(cookie) + sizeof(refs) + 2 * sizeof(void*);  // map node
    bytes += refs.capacity() * sizeof(refs[0]);
  }
  return bytes;
}

}  // namespace iotsentinel::sdn
