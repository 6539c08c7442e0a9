// Sharded multi-threaded Security Gateway pipeline.
//
// The serial SecurityGateway pushes one interleaved packet stream through
// one extractor and one classifier — fine for a lab capture, not for a
// gateway onboarding many devices at once. ShardedGateway parallelizes the
// per-packet work while keeping every piece of mutable state single-writer:
//
//   ingest thread ──SpscRing──▶ worker shard 0 (extractor+tracker+switch)
//       │ hash(src MAC) % N ──▶ worker shard 1          │ completed
//       └──────────────────────▶ ...                     ▼ fingerprints
//                            submission queue ──▶ classifier thread
//                                                   │ score_batch /
//                                                   │ identify_batch
//                 worker shard (via SpscRing) ◀─────┘ verdict message
//                      │ rule install (controller lock) + flow flush
//                      ▼ + inventory update, between two of the
//                        device's frames
//
//   * Frames are routed by hash(source MAC) % num_shards, so all packets
//     of one device land on one shard in submission order — fingerprint
//     extraction sees exactly the per-device subsequence it would see in
//     the serial gateway, and no extractor/tracker/flow-table state is
//     ever shared between threads.
//   * Completed fingerprints drain into a small mutex+condvar submission
//     queue; a dedicated classifier thread scores them in batches through
//     the bank's type-major score_batch sweep and fires GatewayEvents.
//   * Post-verdict effects (enforcement-rule install, inventory update,
//     flushing flows admitted under the provisional policy) are routed
//     *back* to the owning worker through a second SPSC ring: install +
//     flush land atomically w.r.t. the device's frame stream, which is
//     what makes the enforcement auditor's zero-violation check hold.
//   * expire_departed rides the frame rings as an in-band control op; the
//     worker round-trips a barrier through the classifier before sweeping
//     so straggler verdicts cannot resurrect a departed device's rule.
//
// Verdict/event sets are identical to the serial gateway on the same
// trace (asserted by tests/test_gateway_pool.cpp); only event order and
// data-plane timing differ.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/device_tracker.hpp"
#include "net/builder.hpp"
#include "core/security_gateway.hpp"
#include "core/security_service.hpp"
#include "core/spsc_ring.hpp"
#include "fingerprint/extractor.hpp"
#include "ml/hot_swap.hpp"
#include "sdn/controller.hpp"
#include "sdn/software_switch.hpp"
#include "sdn/switch_cache.hpp"
#include "telemetry/registry.hpp"

namespace iotsentinel::core {

/// Sharded pipeline configuration.
struct ShardedGatewayConfig {
  /// Worker shards; each owns a private extractor + tracker + data plane.
  std::size_t num_shards = 4;
  /// Per-shard frame ring capacity (rounded up to a power of two);
  /// `submit` applies backpressure when the owning shard's ring is full.
  std::size_t ring_capacity = 4096;
  /// Max fingerprints the classifier thread scores per batch.
  std::size_t classify_batch_max = 32;
  /// Records (timestamp, src MAC) of every frame in per-shard processing
  /// order — test/diagnostic aid, leave off in production.
  bool record_frame_log = false;
  /// Gives every shard's switch a federated flow-class decision cache
  /// (sdn/switch_cache.hpp) with invalidation fan-out from the shared
  /// controller — the control-plane scale-out that collapses the
  /// slow-path consult rate on ephemeral-port standby traffic.
  bool switch_cache_enabled = true;
  /// Per-shard decision-cache capacity (flush-on-full above it).
  std::size_t switch_cache_entries = sdn::SwitchRuleCache::kDefaultCapacity;
  /// Optional hot-swap model source (must outlive the gateway). When set,
  /// the classifier thread registers as a reader and pins one published
  /// ForestBank snapshot per batch — background retrains through the
  /// publisher reach the serving path at the next batch boundary without
  /// ever blocking it. Verdict events carry the bank version that scored
  /// them, and a swap fans cache invalidations out for devices of the
  /// retrained type (see Controller::invalidate_model_swap). The
  /// publisher's engines must stem from `service`'s own identifier so
  /// stage 2 (references, type names) matches stage 1. When null the
  /// gateway serves the service's fixed compiled bank, as before.
  ml::ForestBankPublisher* model_publisher = nullptr;
  fp::ExtractorConfig extractor;
  sdn::ControllerConfig controller;
};

/// The multi-threaded gateway runtime. Construction spawns the worker and
/// classifier threads; `finish()` (or the destructor) drains and joins.
class ShardedGateway {
 public:
  /// `service` outlives the gateway. Threads start immediately.
  explicit ShardedGateway(const IoTSecurityService& service,
                          ShardedGatewayConfig config = {});
  ~ShardedGateway();

  ShardedGateway(const ShardedGateway&) = delete;
  ShardedGateway& operator=(const ShardedGateway&) = delete;

  /// Observer invoked (on the classifier thread) after each
  /// identification + enforcement install. Set before the first `submit`.
  void on_device_identified(std::function<void(const GatewayEvent&)> cb) {
    observer_ = std::move(cb);
  }

  /// Enqueues one raw frame at capture time `timestamp_us` onto its
  /// owning shard's ring. Zero-copy: the frame bytes must stay valid
  /// until `finish()` returns (replay buffers and capture rings satisfy
  /// this naturally). Single ingest thread only; blocks briefly when the
  /// shard's ring is full (backpressure). Must not be called after
  /// `finish()`.
  void submit(std::span<const std::uint8_t> frame, std::uint64_t timestamp_us);

  /// Like `submit`, but takes ownership of the frame bytes: the buffer
  /// rides the ring and is freed by the worker after processing. This is
  /// the entry point for streaming sources (e.g. the fleet simulator)
  /// that produce each frame once and keep no trace behind — memory in
  /// flight is bounded by the ring capacities instead of the stream
  /// length. Same single-ingest-thread and backpressure contract.
  void submit_owned(net::Bytes frame, std::uint64_t timestamp_us);

  /// Requests a departure sweep on every shard: each worker forgets the
  /// devices its tracker saw last before `now_us - idle_us`, removing
  /// their enforcement rules, flushing their flows and discarding any
  /// half-open captures — the sharded equivalent of the serial gateway's
  /// `expire_departed`. The request rides the frame rings, so it takes
  /// effect at a definite point in each shard's frame stream; before
  /// sweeping, a worker posts a barrier through the submission queue and
  /// drains the classifier's echo, guaranteeing that verdicts for
  /// captures completed *before* the sweep are applied first (and then
  /// swept — a departed device never keeps a freshly installed rule).
  /// Asynchronous; same single-ingest-thread contract as `submit`. Sweep
  /// counts surface as `ShardStats::devices_expired`.
  void expire_departed(std::uint64_t now_us, std::uint64_t idle_us);

  /// Installs an enforcement-audit hook on every shard's data plane (each
  /// shard gets a copy — pair with sdn/enforcement_audit.hpp, whose hooks
  /// share one auditor's counters). Set before the first `submit`.
  void set_audit(const sdn::SoftwareSwitch::AuditHook& hook) {
    for (auto& shard : shards_) shard->data_plane.set_audit(hook);
  }

  /// Drains the pipeline: workers force-complete in-progress captures
  /// (the serial gateway's `finish_pending_captures`), the classifier
  /// scores every straggler, all verdicts are applied, and every thread
  /// is joined. Idempotent. After it returns the gateway is quiescent and
  /// all accessors below are safe.
  void finish();

  /// Shard a device's frames are routed to.
  [[nodiscard]] std::size_t shard_of(const net::MacAddress& mac) const {
    return std::hash<net::MacAddress>{}(mac) % shards_.size();
  }

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

  /// Backpressure observability. All counters are monotonic and read
  /// with relaxed atomics, so the snapshot is safe (and cheap) to take
  /// while the pipeline is running — the numbers lag the hot paths by at
  /// most a cache-coherency hop.
  struct ShardStats {
    /// Frames this shard's worker has fully processed.
    std::uint64_t frames_processed = 0;
    /// submit/submit_owned calls that found this shard's ring full and
    /// had to spin (one count per stalled frame, however long the wait).
    std::uint64_t submit_stalls = 0;
    /// Highest frame-ring occupancy ever observed at submit time.
    std::uint64_t ring_high_water = 0;
    /// The ring's actual (power-of-two) capacity, for context.
    std::uint64_t ring_capacity = 0;
    /// Idle flow entries evicted by the worker's periodic expiry sweep.
    std::uint64_t flows_expired = 0;
    /// Frames rejected by `is_malformed_frame` (counted in
    /// frames_processed, dropped before reaching the extractor).
    std::uint64_t malformed_frames = 0;
    /// Frames whose data-plane verdict was kDrop (includes malformed).
    std::uint64_t dropped_frames = 0;
    /// Devices removed by `expire_departed` sweeps on this shard.
    std::uint64_t devices_expired = 0;
    /// High-water mark of concurrently tracked setup captures in this
    /// shard's extractor (adversarial state-bloat metric).
    std::uint64_t extractor_peak_active = 0;
  };
  struct Stats {
    std::vector<ShardStats> shards;
    /// Sums over all shards, for quick dashboards (the peak-active sum
    /// bounds fleet-wide concurrent extractor state).
    std::uint64_t frames_processed = 0;
    std::uint64_t submit_stalls = 0;
    std::uint64_t flows_expired = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t dropped_frames = 0;
    std::uint64_t devices_expired = 0;
    std::uint64_t extractor_peak_active = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Identification events so far (copy — safe to call while running).
  [[nodiscard]] std::vector<GatewayEvent> events() const;

  /// The shared enforcement controller (its mutating entry points are
  /// internally locked).
  [[nodiscard]] sdn::Controller& controller() { return controller_; }
  [[nodiscard]] const sdn::Controller& controller() const {
    return controller_;
  }

  /// The gateway's metric registry (docs/OBSERVABILITY.md). Lock-free
  /// readable while the pipeline runs: `registry().snapshot()` /
  /// `text_report()` are safe from any thread at any time. Workers
  /// publish their shard-local counters on the expiry stride (every
  /// `kExpiryStride` frames) and at drain, the classifier publishes
  /// controller/service aggregates per batch, so live values lag the hot
  /// paths by at most one stride/batch; after `finish()` they are exact.
  [[nodiscard]] telemetry::Registry& registry() { return registry_; }
  [[nodiscard]] const telemetry::Registry& registry() const {
    return registry_;
  }

  /// One shard's flow-class decision cache (post-finish inspection; a
  /// default-constructed idle cache when `switch_cache_enabled` is off).
  [[nodiscard]] const sdn::SwitchRuleCache& shard_rule_cache(
      std::size_t shard) const {
    return shards_[shard]->cache;
  }

  // --- post-finish() inspection ----------------------------------------
  /// One shard's passive device inventory.
  [[nodiscard]] const DeviceTracker& shard_inventory(std::size_t shard) const {
    return shards_[shard]->tracker;
  }
  /// One shard's data plane.
  [[nodiscard]] const sdn::SoftwareSwitch& shard_data_plane(
      std::size_t shard) const {
    return shards_[shard]->data_plane;
  }
  /// One shard's fingerprint extractor (state-bloat metrics).
  [[nodiscard]] const fp::SetupCaptureExtractor& shard_extractor(
      std::size_t shard) const {
    return shards_[shard]->extractor;
  }
  /// Frames a shard processed.
  [[nodiscard]] std::uint64_t shard_packets(std::size_t shard) const {
    return shards_[shard]->packets.load(std::memory_order_relaxed);
  }

  /// One processed frame, in shard processing order (recorded only when
  /// `record_frame_log` is set).
  struct FrameLogEntry {
    std::uint64_t timestamp_us = 0;
    net::MacAddress src;

    friend bool operator==(const FrameLogEntry&,
                           const FrameLogEntry&) = default;
  };
  [[nodiscard]] const std::vector<FrameLogEntry>& frame_log(
      std::size_t shard) const {
    return shards_[shard]->frame_log;
  }

 private:
  /// What a ring slot carries: a frame, or an in-band control request
  /// (`expire_departed`) that must execute at a definite point in the
  /// shard's frame stream.
  enum class IngestOp : std::uint8_t { kFrame, kExpireDeparted };

  /// A frame in flight between the ingest thread and a worker. Bytes are
  /// either borrowed (`submit`'s lifetime contract, `owned` empty) or
  /// carried by `owned` (`submit_owned`), in which case `data` points
  /// into it — moving a vector never relocates its heap buffer, so the
  /// pointer stays valid while the ref rides the ring.
  struct FrameRef {
    std::uint64_t timestamp_us = 0;
    const std::uint8_t* data = nullptr;
    std::uint32_t size = 0;
    IngestOp op = IngestOp::kFrame;
    /// kExpireDeparted only: the sweep's idle threshold.
    std::uint64_t idle_us = 0;
    net::Bytes owned;
  };

  /// Post-verdict message routed from the classifier thread back to the
  /// device's owning shard. The worker — not the classifier — installs
  /// the rule, so rule install + flow flush + inventory update happen
  /// atomically with respect to that shard's frame stream (a fast-path
  /// entry can never contradict the installed rule set, which is what the
  /// enforcement auditor asserts). `is_barrier` marks the classifier's
  /// echo of an expire_departed barrier instead of a verdict.
  struct VerdictMsg {
    net::MacAddress mac;
    std::string device_type;
    sdn::IsolationLevel level = sdn::IsolationLevel::kStrict;
    sdn::EnforcementRule rule;
    std::uint64_t at_us = 0;
    bool is_barrier = false;
  };

  /// A completed capture awaiting classification, or (barrier_shard >= 0)
  /// an expire_departed barrier the classifier echoes back to that shard
  /// behind every verdict submitted before it.
  struct PendingCapture {
    net::MacAddress mac;
    fp::Fingerprint fingerprint;
    std::uint64_t end_us = 0;
    int barrier_shard = -1;
  };

  /// Resolved registry references one shard's worker publishes into (see
  /// docs/OBSERVABILITY.md for the metric contract). Bound once at
  /// construction so the hot path never touches the registry's name maps.
  struct ShardTelemetry {
    telemetry::Counter* frames = nullptr;
    telemetry::Gauge* ring_high_water = nullptr;
    telemetry::Counter* tier1_hits = nullptr;
    telemetry::Gauge* masks = nullptr;
    telemetry::Gauge* live_flows = nullptr;
    telemetry::Gauge* deadline_heap = nullptr;
    telemetry::Counter* fast_path = nullptr;
    telemetry::Counter* cached_path = nullptr;
    telemetry::Counter* slow_path = nullptr;
    telemetry::Counter* cache_hits = nullptr;
    telemetry::Counter* cache_misses = nullptr;
    telemetry::Gauge* cache_size = nullptr;
  };

  struct Shard {
    Shard(std::size_t ring_capacity, const fp::ExtractorConfig& extractor_cfg,
          sdn::Controller& controller, std::size_t cache_entries)
        : frames(ring_capacity),
          verdicts(kVerdictRingCapacity),
          extractor(extractor_cfg),
          data_plane(controller),
          cache(cache_entries) {}

    SpscRing<FrameRef> frames;     // ingest -> worker
    SpscRing<VerdictMsg> verdicts; // classifier -> worker
    fp::SetupCaptureExtractor extractor;
    DeviceTracker tracker;
    sdn::SoftwareSwitch data_plane;
    /// This shard's federated flow-class decision cache; attached to the
    /// shared controller and bound to `data_plane` only when
    /// `switch_cache_enabled` (idle otherwise).
    sdn::SwitchRuleCache cache;
    /// Worker-published metric bindings.
    ShardTelemetry metrics;
    /// This shard's index in shards_ (barrier addressing).
    std::size_t index = 0;
    /// Monotonic counters behind stats(). `packets` is bumped by the
    /// worker; the stall/high-water pair only by the ingest thread.
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> submit_stalls{0};
    std::atomic<std::uint64_t> ring_high_water{0};
    std::atomic<std::uint64_t> flows_expired{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> devices_expired{0};
    /// Worker-maintained mirror of extractor.peak_active_devices() so
    /// stats() stays race-free while the pipeline runs.
    std::atomic<std::uint64_t> extractor_peak{0};
    /// Worker-thread-only stride counter for the periodic expiry sweep.
    std::uint64_t frames_since_expiry = 0;
    /// Worker-thread-only scratch for expire_departed sweeps.
    std::vector<net::MacAddress> departed_scratch;
    std::vector<FrameLogEntry> frame_log;
    std::thread thread;
  };

  static constexpr std::size_t kVerdictRingCapacity = 256;
  /// Frames between a worker's idle-flow expiry sweeps.
  static constexpr std::uint64_t kExpiryStride = 1024;

  void worker_loop(Shard& shard);
  void classifier_loop();
  /// Worker-side: copies the shard's plain single-writer counters into
  /// its registry bindings (monotone `publish`, so readers never observe
  /// a counter going backwards). Called on the expiry stride and at
  /// worker drain.
  void publish_shard_telemetry(Shard& shard);
  /// Classifier-side: publishes controller + service aggregates.
  void publish_control_plane_telemetry();
  /// Routes a popped ring slot to process_frame or handle_expire.
  void dispatch(Shard& shard, const FrameRef& frame);
  void process_frame(Shard& shard, const FrameRef& frame);
  /// Worker-side expire_departed: barrier round-trip, then the sweep.
  void handle_expire(Shard& shard, std::uint64_t now_us,
                     std::uint64_t idle_us);
  /// Shared backpressure path of submit/submit_owned/expire_departed.
  void enqueue(Shard& shard, FrameRef ref);
  bool drain_verdicts(Shard& shard);
  /// Worker-side verdict application: rule install + flow flush +
  /// inventory update, serialized with the shard's frame stream.
  void apply_verdict_msg(Shard& shard, VerdictMsg& msg);
  /// Classifier-side: packages a verdict for the owning worker and fires
  /// the identification event.
  void apply_verdict(const PendingCapture& capture,
                     const ServiceVerdict& verdict);
  /// Classifier-side: fans cache invalidations out for the devices whose
  /// type the newly observed bank retrained (all identified devices when
  /// the classifier missed intermediate banks and cannot attribute the
  /// change to one type).
  void handle_model_swap(const ml::ForestBank& bank,
                         std::uint64_t prev_version, std::uint64_t now_us);

  const IoTSecurityService& service_;
  ShardedGatewayConfig config_;
  sdn::Controller controller_;
  /// Declared before shards_ so metric storage outlives the workers'
  /// final publishes (members destroy in reverse order).
  telemetry::Registry registry_;
  /// Control-plane metric bindings (published by the classifier thread
  /// and finish()).
  telemetry::Counter* m_packet_ins_ = nullptr;
  telemetry::Counter* m_drops_ = nullptr;
  telemetry::Counter* m_installs_ = nullptr;
  telemetry::Counter* m_invalidations_ = nullptr;
  telemetry::Counter* m_assessments_ = nullptr;
  telemetry::Counter* m_fingerprints_scored_ = nullptr;
  telemetry::Histogram* m_batch_latency_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Submission queue: workers (producers) -> classifier (consumer).
  std::mutex submission_mu_;
  std::condition_variable submission_cv_;
  std::deque<PendingCapture> submissions_;   // guarded by submission_mu_
  std::size_t flushed_workers_ = 0;          // guarded by submission_mu_

  /// Set by finish(): no more frames will be submitted.
  std::atomic<bool> ingest_done_{false};
  /// Set by the classifier after its last verdict was pushed.
  std::atomic<bool> classifier_done_{false};
  /// Owner-thread flag making finish() idempotent.
  bool finished_ = false;

  mutable std::mutex events_mu_;
  std::vector<GatewayEvent> events_;         // guarded by events_mu_
  std::function<void(const GatewayEvent&)> observer_;

  // Classifier-thread-only hot-swap state (no locks needed).
  /// Version of the bank snapshot scoring the current batch (stamped into
  /// each verdict's GatewayEvent); 0 without a model_publisher.
  std::uint64_t classifier_model_version_ = 0;
  /// Last identified type of each device, as seen by the classifier —
  /// EnforcementRule does not carry the type, and a swap must invalidate
  /// exactly the devices of the retrained type.
  std::unordered_map<net::MacAddress, std::size_t> device_type_by_mac_;
  /// Scratch for handle_model_swap's device list.
  std::vector<net::MacAddress> swap_scratch_;

  std::thread classifier_thread_;
};

}  // namespace iotsentinel::core
