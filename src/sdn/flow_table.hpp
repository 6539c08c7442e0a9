// OpenFlow-style flow table: priority-ordered match/action entries with
// per-entry statistics and idle timeouts.
//
// This is the data plane the paper programs through Open vSwitch; the
// controller installs one micro-flow entry per admitted/blocked flow so
// subsequent packets of the flow are switched without a controller
// round-trip.
//
// Tuple-space lookup
// ------------------
// `FlowTable` keeps the observable semantics of a single priority-ordered
// OpenFlow table (highest priority wins; equal priorities are broken by
// insertion order, older entry first — locked in by regression tests) but
// serves each packet with tuple space search, the Open vSwitch classifier
// design (Srinivasan et al., SIGCOMM 1999; Pfaff et al., NSDI 2015):
//
//   * entries are grouped by their *mask* — the set of `FlowMatch` fields
//     they pin. Each mask owns an open-addressed hash table keyed by the
//     pinned values (a `MicroFlowKey` with the wildcarded fields zeroed);
//   * a lookup masks the packet's key once per live mask and probes that
//     mask's table; the winner across masks is the highest priority, then
//     the lowest insertion id.
//
// Lookup cost is one hash probe per distinct mask, independent of the
// number of installed entries. The controller installs two shapes — the
// exact 7-tuple of a TCP/UDP flow and the MAC+IP pair of a portless one —
// so a gateway runs with two masks. A bucket is 8 bytes pointing into the
// entry pool; no entry takes its own heap node. Entries pinning the same
// values under one mask (duplicate installs) sit in one probe run, which
// the lookup scans to its end. There is no memo of past lookups, so
// removals need no coherence work and no traffic pattern can grow lookup
// state: memory is proportional to the installed entries.
//
// Expiry is driven by a lazy min-heap of idle deadlines instead of a
// full-table scan: entries re-validate on pop (a refreshed entry is pushed
// back with its new deadline), permanent entries (idle_timeout_us == 0)
// never enter the heap. `remove_by_cookie` — device departure, quarantine,
// provisional-flow flush — resolves the victim set through a cookie→ids
// index instead of scanning the table.
//
// The original O(n)-everything implementation lives in the test tree
// (`tests/support/linear_flow_table.hpp`) as the reference oracle for the
// differential trace test and the baseline of the BENCH_flowtable.json
// ablation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip_address.hpp"
#include "net/mac_address.hpp"
#include "net/packet.hpp"

namespace iotsentinel::sdn {

/// Match fields; unset optionals are wildcards.
struct FlowMatch {
  std::optional<net::MacAddress> src_mac;
  std::optional<net::MacAddress> dst_mac;
  std::optional<net::Ipv4Address> src_ip;
  std::optional<net::Ipv4Address> dst_ip;
  /// IP protocol (6 = TCP, 17 = UDP); wildcard when unset.
  std::optional<std::uint8_t> ip_proto;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;

  /// Does this match cover the packet?
  [[nodiscard]] bool matches(const net::ParsedPacket& pkt) const;

  /// Exact micro-flow match for one packet (all populated fields pinned).
  static FlowMatch micro_flow(const net::ParsedPacket& pkt);

  [[nodiscard]] std::string to_string() const;
};

/// Forwarding decision of an entry.
enum class FlowAction {
  kForward,
  kDrop,
};

/// One table entry.
struct FlowEntry {
  FlowMatch match;
  FlowAction action = FlowAction::kDrop;
  /// Higher wins; ties broken by insertion order (older first).
  std::uint16_t priority = 0;
  /// Entry is removed when unmatched for this long; 0 = permanent.
  std::uint64_t idle_timeout_us = 0;
  /// Bookkeeping (maintained by FlowTable).
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t last_matched_us = 0;
  std::uint64_t installed_us = 0;
  /// Installation cookie: lets the controller bulk-remove a device's flows.
  std::uint64_t cookie = 0;
};

/// Canonical 7-tuple of one packet, packed for hashing: the flow table's
/// lookup key.
///
/// Two packets with equal keys are indistinguishable to every possible
/// `FlowMatch` (matches() inspects exactly the fields encoded here,
/// including their presence). A match pins a subset of these bits, so a
/// packet matches an entry iff the packet's key, masked to the entry's
/// pinned fields, equals the entry's key.
struct MicroFlowKey {
  std::uint64_t w0 = 0;  // src MAC (48) | presence/proto flags (6) << 48
  std::uint64_t w1 = 0;  // dst MAC (48) | src port (16) << 48
  std::uint64_t w2 = 0;  // src IPv4 | dst IPv4 << 32
  std::uint64_t w3 = 0;  // dst port (16)

  /// Builds the key of a parsed packet.
  static MicroFlowKey of_packet(const net::ParsedPacket& pkt);

  /// This key with the source port wildcarded (port and presence flag
  /// cleared). All packets of one (device, service) conversation class
  /// collapse onto this key regardless of the ephemeral port drawn per
  /// occurrence — the basis of the flow-class decision cache
  /// (sdn/switch_cache.hpp).
  [[nodiscard]] MicroFlowKey without_src_port() const;

  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const MicroFlowKey&, const MicroFlowKey&) = default;
};

/// Priority-ordered flow table served by tuple space search.
class FlowTable {
 public:
  /// Installs an entry; returns its stable id.
  std::uint64_t install(FlowEntry entry, std::uint64_t now_us);

  /// Finds the highest-priority matching entry, updates its counters, and
  /// returns its action. Returns nullopt on table miss.
  std::optional<FlowAction> process(const net::ParsedPacket& pkt,
                                    std::uint64_t now_us);

  /// Removes entries idle past their timeout. Returns number removed.
  std::size_t expire(std::uint64_t now_us);

  /// Removes all entries with the given cookie. Returns number removed.
  std::size_t remove_by_cookie(std::uint64_t cookie);

  [[nodiscard]] std::size_t size() const { return live_; }
  /// Snapshot of the live entries in lookup order (descending priority,
  /// insertion order within a priority). Sorts on demand: O(n log n).
  [[nodiscard]] std::vector<FlowEntry> entries() const;
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t matched_packets() const { return matched_; }

  /// Estimated resident bytes (entry pool + mask tables + deadline heap +
  /// cookie index), mirroring RuleCache::memory_bytes() for the Fig. 6c
  /// switch-side accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- introspection (tests / benches) ----------------------------------
  /// Lookups won by a fully pinned TCP/UDP entry (an exact micro-flow).
  [[nodiscard]] std::uint64_t tier1_hits() const { return tier1_hits_; }
  /// Live masks: distinct pinned-field sets among matchable entries, i.e.
  /// hash probes per lookup.
  [[nodiscard]] std::size_t masks() const { return masks_.size(); }
  /// Pending deadline-heap records (permanent entries never appear).
  [[nodiscard]] std::size_t deadline_heap_size() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// `Slot::fields` of an entry no packet can match (ip_proto pinned to
  /// something other than TCP/UDP): live, but in no mask table.
  static constexpr std::uint8_t kUnindexed = 0xff;

  /// Pool slot; `id == 0` marks a free slot (ids are never reused, so a
  /// stale heap/cookie reference is detected by id mismatch).
  struct Slot {
    FlowEntry entry;
    MicroFlowKey key;  // the entry's pinned values (mask table key)
    std::uint64_t id = 0;
    std::uint32_t next_free = kNoSlot;
    std::uint8_t fields = kUnindexed;  // pinned-field set (the mask)
  };

  /// Open-addressed mask-table bucket: one entry's pool slot plus the low
  /// 32 bits of its key's hash (home position and a cheap reject before
  /// the key compare). Linear probing, backward-shift deletion.
  struct Bucket {
    std::uint32_t slot = kNoSlot;  // kNoSlot = empty
    std::uint32_t hash = 0;
  };

  /// All entries pinning one field set.
  struct Mask {
    MicroFlowKey bits;  // all-ones over the pinned fields and their flags
    std::uint8_t fields = 0;
    std::size_t entries = 0;
    std::vector<Bucket> buckets;  // power-of-two capacity, load <= 1/2
  };

  /// Lazy idle-deadline record; re-validated against the slot on pop.
  struct Deadline {
    std::uint64_t at_us = 0;
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
  };

  /// Does slot `a` win over slot `b` (priority desc, then id asc)?
  [[nodiscard]] bool beats(std::uint32_t a, std::uint32_t b) const;
  std::vector<Mask>::iterator find_mask(std::uint8_t fields);
  /// Files a matchable entry under its mask, creating the mask (with the
  /// given key bits) if it is the first of its shape.
  void index_entry(std::uint32_t slot, const MicroFlowKey& bits);
  /// Drops an entry from its mask; an emptied mask is erased.
  void unindex_entry(std::uint32_t slot);
  /// Puts `bucket` in the first empty bucket of its probe run.
  static void place(std::vector<Bucket>& buckets, Bucket bucket);
  void erase_bucket(Mask& mask, std::size_t pos);
  void rehash(Mask& mask, std::size_t capacity);
  std::uint32_t alloc_slot();
  /// Removes one live entry from the cookie index, then releases it
  /// (heap records invalidate lazily by id).
  void remove_entry(std::uint32_t slot);
  /// Drops a live entry from its mask and returns its slot to the pool.
  void release_slot(std::uint32_t slot);
  void heap_push(Deadline d);
  Deadline heap_pop();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::vector<Mask> masks_;  // live masks only; an emptied mask is erased
  std::vector<Deadline> heap_;  // min-heap on at_us
  /// cookie -> (slot, id) of live entries installed under it.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, std::uint64_t>>>
      by_cookie_;
  std::uint64_t next_id_ = 1;
  std::uint64_t misses_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t tier1_hits_ = 0;
};

}  // namespace iotsentinel::sdn
