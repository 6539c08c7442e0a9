#include "core/gateway_pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "net/parser.hpp"

namespace iotsentinel::core {
namespace {

/// Idle backoff shared by the ingest (ring-full), worker (nothing to do)
/// and classifier (verdict-ring-full) spin sites: stay polite immediately
/// (these loops always make progress through another thread), and back
/// off to a real sleep when the peer has been quiet for a while — on
/// oversubscribed machines a pure yield storm starves the thread that
/// would unblock us.
class Backoff {
 public:
  void wait() {
    if (++idle_polls_ < kYieldPolls) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  void reset() { idle_polls_ = 0; }

 private:
  static constexpr std::size_t kYieldPolls = 256;
  std::size_t idle_polls_ = 0;
};

/// Source MAC straight from the raw Ethernet header (bytes 6..11). The
/// threshold matches parse_ethernet_frame's 14-byte minimum: any frame
/// the parser would reject (leaving src_mac zero) routes deterministically
/// to the zero-MAC shard, keeping routing and parsed-MAC views identical.
net::MacAddress src_mac_of_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < 14) return net::MacAddress{};
  return net::MacAddress({frame[6], frame[7], frame[8], frame[9], frame[10],
                          frame[11]});
}

}  // namespace

ShardedGateway::ShardedGateway(const IoTSecurityService& service,
                               ShardedGatewayConfig config)
    : service_(service), config_(config), controller_(config.controller) {
  config_.num_shards = std::max<std::size_t>(config_.num_shards, 1);
  config_.classify_batch_max =
      std::max<std::size_t>(config_.classify_batch_max, 1);

  // Control-plane metric bindings (names: docs/OBSERVABILITY.md).
  m_packet_ins_ = &registry_.counter("controller.packet_ins");
  m_drops_ = &registry_.counter("controller.drops");
  m_neg_hits_ = &registry_.counter("controller.negative_cache_hits");
  m_installs_ = &registry_.counter("controller.rule_installs");
  m_invalidations_ = &registry_.counter("controller.invalidations_sent");
  m_assessments_ = &registry_.counter("service.assessments");
  m_fingerprints_scored_ = &registry_.counter("classifier.fingerprints_scored");
  m_batch_latency_ = &registry_.histogram("classifier.batch_latency_us");
  telemetry::Histogram& fanout_lag =
      registry_.histogram("sdn.invalidation_fanout_lag_us");
  if (config_.model_publisher != nullptr) {
    // Surface the publisher's swap telemetry through this gateway's
    // registry (names: docs/OBSERVABILITY.md). Bound before the threads
    // spawn, like every other binding here.
    ml::ForestBankPublisher::Telemetry hotswap;
    hotswap.retrains = &registry_.counter("hotswap.retrains_completed");
    hotswap.bank_epoch = &registry_.gauge("hotswap.bank_epoch");
    hotswap.swap_latency_us = &registry_.histogram("hotswap.swap_latency_us");
    hotswap.retired_banks = &registry_.gauge("hotswap.retired_banks");
    config_.model_publisher->bind_telemetry(hotswap);
  }

  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.ring_capacity,
                                              config_.extractor, controller_,
                                              config_.switch_cache_entries));
    Shard& shard = *shards_.back();
    shard.index = i;
    if (config_.switch_cache_enabled) {
      // Federation: the switch consults its local cache before its table;
      // every controller rule change fans an invalidation out to it.
      // Attach before the threads spawn so the registry is never mutated
      // concurrently with traffic.
      shard.cache.bind_lag_histogram(&fanout_lag);
      controller_.attach_cache(&shard.cache);
      shard.data_plane.set_rule_cache(&shard.cache);
    }
    const std::string prefix = "gateway.shard" + std::to_string(i) + ".";
    shard.metrics.frames = &registry_.counter(prefix + "frames");
    shard.metrics.ring_high_water =
        &registry_.gauge(prefix + "ring_high_water");
    shard.metrics.tier1_hits =
        &registry_.counter(prefix + "flowtable.tier1_hits");
    shard.metrics.masks = &registry_.gauge(prefix + "flowtable.masks");
    shard.metrics.live_flows = &registry_.gauge(prefix + "flowtable.live_flows");
    shard.metrics.deadline_heap =
        &registry_.gauge(prefix + "flowtable.deadline_heap");
    shard.metrics.fast_path = &registry_.counter(prefix + "switch.fast_path");
    shard.metrics.cached_path =
        &registry_.counter(prefix + "switch.cached_path");
    shard.metrics.slow_path = &registry_.counter(prefix + "switch.slow_path");
    shard.metrics.cache_hits = &registry_.counter(prefix + "rule_cache.hits");
    shard.metrics.cache_misses =
        &registry_.counter(prefix + "rule_cache.misses");
    shard.metrics.cache_size = &registry_.gauge(prefix + "rule_cache.size");
    // Completion callback runs on the shard's worker thread.
    shard.extractor.on_capture_complete([this](const fp::DeviceCapture& c) {
      // Deep-copy the fingerprint before taking the lock: the submission
      // mutex is contended by every worker and the classifier, and must
      // not be held across a heap-allocating copy.
      PendingCapture pending{c.mac, c.fingerprint, c.end_us};
      {
        std::lock_guard<std::mutex> lock(submission_mu_);
        submissions_.push_back(std::move(pending));
      }
      submission_cv_.notify_one();
    });
  }
  for (auto& shard : shards_) {
    shard->thread =
        std::thread([this, &s = *shard] { worker_loop(s); });
  }
  classifier_thread_ = std::thread([this] { classifier_loop(); });
}

ShardedGateway::~ShardedGateway() { finish(); }

void ShardedGateway::submit(std::span<const std::uint8_t> frame,
                            std::uint64_t timestamp_us) {
  assert(!finished_);
  Shard& shard = *shards_[shard_of(src_mac_of_frame(frame))];
  FrameRef ref;
  ref.timestamp_us = timestamp_us;
  ref.data = frame.data();
  ref.size = static_cast<std::uint32_t>(frame.size());
  enqueue(shard, std::move(ref));
}

void ShardedGateway::submit_owned(net::Bytes frame,
                                  std::uint64_t timestamp_us) {
  assert(!finished_);
  Shard& shard = *shards_[shard_of(src_mac_of_frame(frame))];
  FrameRef ref;
  ref.timestamp_us = timestamp_us;
  ref.owned = std::move(frame);
  ref.data = ref.owned.data();
  ref.size = static_cast<std::uint32_t>(ref.owned.size());
  enqueue(shard, std::move(ref));
}

void ShardedGateway::enqueue(Shard& shard, FrameRef ref) {
  Backoff backoff;
  bool stalled = false;
  while (!shard.frames.try_push(std::move(ref))) {
    stalled = true;
    backoff.wait();
  }
  if (stalled) {
    shard.submit_stalls.fetch_add(1, std::memory_order_relaxed);
  }
  // Single ingest thread: a plain read-modify-write max is race-free.
  const auto occupancy = static_cast<std::uint64_t>(shard.frames.size());
  if (occupancy > shard.ring_high_water.load(std::memory_order_relaxed)) {
    shard.ring_high_water.store(occupancy, std::memory_order_relaxed);
  }
}

ShardedGateway::Stats ShardedGateway::stats() const {
  Stats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.frames_processed = shard->packets.load(std::memory_order_relaxed);
    s.submit_stalls = shard->submit_stalls.load(std::memory_order_relaxed);
    s.ring_high_water = shard->ring_high_water.load(std::memory_order_relaxed);
    s.ring_capacity = shard->frames.capacity();
    s.flows_expired = shard->flows_expired.load(std::memory_order_relaxed);
    s.malformed_frames = shard->malformed.load(std::memory_order_relaxed);
    s.dropped_frames = shard->dropped.load(std::memory_order_relaxed);
    s.devices_expired = shard->devices_expired.load(std::memory_order_relaxed);
    s.extractor_peak_active =
        shard->extractor_peak.load(std::memory_order_relaxed);
    stats.frames_processed += s.frames_processed;
    stats.submit_stalls += s.submit_stalls;
    stats.flows_expired += s.flows_expired;
    stats.malformed_frames += s.malformed_frames;
    stats.dropped_frames += s.dropped_frames;
    stats.devices_expired += s.devices_expired;
    stats.extractor_peak_active += s.extractor_peak_active;
    stats.shards.push_back(s);
  }
  return stats;
}

void ShardedGateway::expire_departed(std::uint64_t now_us,
                                     std::uint64_t idle_us) {
  assert(!finished_);
  for (auto& shard : shards_) {
    FrameRef op;
    op.timestamp_us = now_us;
    op.op = IngestOp::kExpireDeparted;
    op.idle_us = idle_us;
    enqueue(*shard, std::move(op));
  }
}

void ShardedGateway::finish() {
  if (finished_) return;
  finished_ = true;
  ingest_done_.store(true, std::memory_order_release);
  submission_cv_.notify_all();
  classifier_thread_.join();
  for (auto& shard : shards_) shard->thread.join();
  // All threads joined: one last publish makes every aggregate exact.
  publish_control_plane_telemetry();
}

std::vector<GatewayEvent> ShardedGateway::events() const {
  std::lock_guard<std::mutex> lock(events_mu_);
  return events_;
}

void ShardedGateway::dispatch(Shard& shard, const FrameRef& frame) {
  if (frame.op == IngestOp::kExpireDeparted) {
    handle_expire(shard, frame.timestamp_us, frame.idle_us);
  } else {
    process_frame(shard, frame);
  }
}

void ShardedGateway::process_frame(Shard& shard, const FrameRef& frame) {
  const std::span<const std::uint8_t> bytes(frame.data, frame.size);
  shard.packets.fetch_add(1, std::memory_order_relaxed);
  if (config_.record_frame_log) {
    shard.frame_log.push_back({frame.timestamp_us, src_mac_of_frame(bytes)});
  }
  if (is_malformed_frame(bytes)) {
    // Counted and dropped before the extractor/tracker see it: a
    // malformed-frame flood must not mint phantom device state.
    shard.malformed.fetch_add(1, std::memory_order_relaxed);
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const net::ParsedPacket pkt =
      net::parse_ethernet_frame(bytes, frame.timestamp_us);
  shard.tracker.observe(pkt, bytes);
  shard.extractor.observe(pkt);
  const sdn::SwitchResult result =
      shard.data_plane.process(pkt, frame.timestamp_us);
  if (result.action == sdn::FlowAction::kDrop) {
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  shard.extractor_peak.store(shard.extractor.peak_active_devices(),
                             std::memory_order_relaxed);
  // The serial gateway expires idle flows on every frame; here a strided
  // sweep keeps the amortised cost negligible while still bounding the
  // table by the live-flow population on long streaming runs.
  if (++shard.frames_since_expiry >= kExpiryStride) {
    shard.frames_since_expiry = 0;
    const std::size_t removed =
        shard.data_plane.expire_flows(frame.timestamp_us);
    if (removed > 0) {
      shard.flows_expired.fetch_add(removed, std::memory_order_relaxed);
    }
    // Piggyback the telemetry publish on the same stride: the shard's
    // plain single-writer counters become registry-visible here, so live
    // readers lag the hot path by at most kExpiryStride frames.
    publish_shard_telemetry(shard);
  }
}

void ShardedGateway::publish_shard_telemetry(Shard& shard) {
  const sdn::SoftwareSwitch& dp = shard.data_plane;
  const sdn::FlowTable& table = dp.table();
  const ShardTelemetry& m = shard.metrics;
  m.frames->publish(shard.packets.load(std::memory_order_relaxed));
  m.ring_high_water->set_max(
      shard.ring_high_water.load(std::memory_order_relaxed));
  m.tier1_hits->publish(table.tier1_hits());
  m.masks->set(table.masks());
  m.live_flows->set(table.size());
  m.deadline_heap->set(table.deadline_heap_size());
  m.fast_path->publish(dp.fast_path_packets());
  m.cached_path->publish(dp.cached_path_packets());
  m.slow_path->publish(dp.slow_path_packets());
  m.cache_hits->publish(shard.cache.hits());
  m.cache_misses->publish(shard.cache.misses());
  m.cache_size->set(shard.cache.size());
}

void ShardedGateway::publish_control_plane_telemetry() {
  m_packet_ins_->publish(controller_.packet_ins());
  m_drops_->publish(controller_.drops());
  m_neg_hits_->publish(controller_.negative_cache_hits());
  m_installs_->publish(controller_.rule_installs());
  m_invalidations_->publish(controller_.invalidations_sent());
  m_assessments_->publish(service_.assessments());
}

void ShardedGateway::handle_expire(Shard& shard, std::uint64_t now_us,
                                   std::uint64_t idle_us) {
  // Post a barrier behind every capture this shard already submitted, so
  // the classifier's answers to pre-sweep captures are applied (and then
  // swept if their device is idle) before any device state is forgotten.
  // Without the barrier a straggler verdict could resurrect a rule for a
  // device we just expired.
  {
    std::lock_guard<std::mutex> lock(submission_mu_);
    PendingCapture barrier;
    barrier.barrier_shard = static_cast<int>(shard.index);
    submissions_.push_back(std::move(barrier));
  }
  submission_cv_.notify_one();
  // Drain verdicts until the classifier echoes the barrier through this
  // shard's verdict ring (FIFO after everything submitted before it).
  Backoff backoff;
  VerdictMsg msg;
  for (;;) {
    if (!shard.verdicts.try_pop(msg)) {
      backoff.wait();
      continue;
    }
    if (msg.is_barrier) break;
    apply_verdict_msg(shard, msg);
    backoff.reset();
  }
  // The sweep proper — the serial gateway's expire_departed, shard-local.
  shard.tracker.idle_devices_into(now_us, idle_us, shard.departed_scratch);
  for (const net::MacAddress& mac : shard.departed_scratch) {
    controller_.remove_device(mac, now_us);
    shard.data_plane.flush_device(mac);
    // Discard any half-open capture and the fingerprinted marker too: a
    // departed device that rejoins (or an attacker reusing its MAC) must
    // be fingerprinted and identified afresh, never inherit identity.
    shard.extractor.forget(mac);
    shard.tracker.forget(mac);
  }
  shard.devices_expired.fetch_add(shard.departed_scratch.size(),
                                  std::memory_order_relaxed);
}

bool ShardedGateway::drain_verdicts(Shard& shard) {
  bool did_work = false;
  VerdictMsg msg;
  while (shard.verdicts.try_pop(msg)) {
    if (!msg.is_barrier) apply_verdict_msg(shard, msg);
    did_work = true;
  }
  return did_work;
}

void ShardedGateway::apply_verdict_msg(Shard& shard, VerdictMsg& msg) {
  // Single controller lock (inside apply_rule): the rule is globally
  // visible to every shard's packet-in path from here on. Installing it
  // here — on the owning worker, between two of the device's frames —
  // rather than on the classifier thread means install + flush + mark
  // are atomic with respect to the device's traffic, so no fast-path
  // entry admitted under the provisional policy can outlive the rule it
  // contradicts (the enforcement auditor's zero-violation guarantee).
  controller_.apply_rule(std::move(msg.rule), msg.at_us);
  // Flows admitted under the provisional (no-rule) policy must be
  // re-evaluated under the device's real isolation level.
  shard.data_plane.flush_device(msg.mac);
  shard.tracker.mark_identified(msg.mac, msg.device_type, msg.level);
}

void ShardedGateway::worker_loop(Shard& shard) {
  Backoff backoff;
  bool flushed = false;
  FrameRef frame;
  for (;;) {
    bool did_work = drain_verdicts(shard);
    // One frame per iteration so verdict messages are interleaved
    // promptly and the classifier's push never waits long.
    if (shard.frames.try_pop(frame)) {
      dispatch(shard, frame);
      did_work = true;
    }
    if (did_work) {
      backoff.reset();
      continue;
    }

    if (ingest_done_.load(std::memory_order_acquire)) {
      if (!flushed) {
        // The empty-ring check above may have raced with the last
        // submits; the acquire on ingest_done_ makes them visible now,
        // so one more drain is definitive.
        while (shard.frames.try_pop(frame)) dispatch(shard, frame);
        shard.extractor.flush_all();
        flushed = true;
        {
          std::lock_guard<std::mutex> lock(submission_mu_);
          ++flushed_workers_;
        }
        submission_cv_.notify_all();
        continue;
      }
      if (classifier_done_.load(std::memory_order_acquire)) {
        // Same pattern: drain verdicts that raced with the flag.
        drain_verdicts(shard);
        // Final publish: after this the registry holds the shard's exact
        // end-of-run numbers.
        publish_shard_telemetry(shard);
        return;
      }
    }
    backoff.wait();
  }
}

void ShardedGateway::apply_verdict(const PendingCapture& capture,
                                   const ServiceVerdict& verdict) {
  // All post-verdict effects — rule install included — go back to the
  // owning worker, which is the only thread allowed to touch that
  // shard's tracker and flow table (see apply_verdict_msg for why the
  // install rides along).
  Shard& owner = *shards_[shard_of(capture.mac)];
  VerdictMsg msg;
  msg.mac = capture.mac;
  msg.device_type = verdict.device_type;
  msg.level = verdict.level;
  msg.rule = rule_for_verdict(verdict, capture.mac, capture.end_us);
  msg.at_us = capture.end_us;
  Backoff backoff;
  while (!owner.verdicts.try_push(std::move(msg))) backoff.wait();

  // Track each device's identified type (classifier-thread-only state):
  // a later model swap of that type must invalidate this device's cached
  // flow-class decisions. Unknown devices carry no type.
  if (verdict.identification.type_index) {
    device_type_by_mac_[capture.mac] = *verdict.identification.type_index;
  } else {
    device_type_by_mac_.erase(capture.mac);
  }

  GatewayEvent event =
      event_for_verdict(verdict, capture.mac, capture.end_us);
  event.model_version = classifier_model_version_;
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    events_.push_back(event);
  }
  if (observer_) observer_(event);
}

void ShardedGateway::handle_model_swap(const ml::ForestBank& bank,
                                       std::uint64_t prev_version,
                                       std::uint64_t now_us) {
  // Cached flow-class decisions of devices identified by the replaced
  // classifier were derived under a model that no longer serves; flush
  // them so each affected device's next table miss re-consults the
  // controller. When exactly one bank was published since the last batch
  // its retrained_type pins the blast radius to that type's devices;
  // otherwise (several swaps coalesced into one epoch jump) every
  // identified device is invalidated — correct, just wider.
  const bool single_known_type =
      bank.version == prev_version + 1 &&
      bank.retrained_type != ml::ForestBank::kNoRetrainedType;
  swap_scratch_.clear();
  for (const auto& [mac, type] : device_type_by_mac_) {
    if (!single_known_type || type == bank.retrained_type) {
      swap_scratch_.push_back(mac);
    }
  }
  controller_.invalidate_model_swap(swap_scratch_, now_us);
}

void ShardedGateway::classifier_loop() {
  ml::ForestBankPublisher* publisher = config_.model_publisher;
  std::optional<ml::ForestBankPublisher::ReaderHandle> reader;
  std::uint64_t last_version = 0;
  if (publisher != nullptr) {
    reader.emplace(publisher->register_reader());
    last_version = publisher->version();
    classifier_model_version_ = last_version;
  }
  std::vector<PendingCapture> batch;
  std::vector<int> barriers;  // shards whose barrier precedes this batch
  std::vector<const fp::Fingerprint*> fingerprints;
  std::vector<ServiceVerdict> verdicts;  // buffers reused across batches
  for (;;) {
    batch.clear();
    barriers.clear();
    {
      std::unique_lock<std::mutex> lock(submission_mu_);
      submission_cv_.wait(lock, [this] {
        return !submissions_.empty() || flushed_workers_ == shards_.size();
      });
      // Queue order must be preserved end to end: leading barriers are
      // echoed before this round's verdicts, and a barrier *behind*
      // captures ends batch collection (it is popped next round, after
      // those verdicts were pushed to the rings).
      while (!submissions_.empty() &&
             submissions_.front().barrier_shard >= 0) {
        barriers.push_back(submissions_.front().barrier_shard);
        submissions_.pop_front();
      }
      while (!submissions_.empty() &&
             submissions_.front().barrier_shard < 0 &&
             batch.size() < config_.classify_batch_max) {
        batch.push_back(std::move(submissions_.front()));
        submissions_.pop_front();
      }
      if (batch.empty() && barriers.empty() &&
          flushed_workers_ == shards_.size()) {
        break;
      }
    }
    for (const int shard_idx : barriers) {
      Shard& owner = *shards_[static_cast<std::size_t>(shard_idx)];
      VerdictMsg echo;
      echo.is_barrier = true;
      Backoff backoff;
      while (!owner.verdicts.try_push(std::move(echo))) backoff.wait();
    }
    if (batch.empty()) continue;

    fingerprints.clear();
    for (const PendingCapture& capture : batch) {
      fingerprints.push_back(&capture.fingerprint);
    }
    // Wall-clock (not virtual-time) classification latency: this is the
    // real compute cost of one IoTSSP batch round. The bank acquire is
    // timed too — it is part of the serving cost a hot swap must not
    // inflate (the bench_retrain acceptance number).
    const auto t0 = std::chrono::steady_clock::now();
    if (publisher != nullptr) {
      const ml::ForestBankPublisher::BankRef bank = publisher->acquire(*reader);
      classifier_model_version_ = bank->version;
      if (bank->version != last_version) {
        handle_model_swap(*bank, last_version, batch.front().end_us);
        last_version = bank->version;
      }
      service_.assess_batch_with(bank->engines, fingerprints, verdicts);
    } else {
      service_.assess_batch(fingerprints, verdicts);
    }
    const auto t1 = std::chrono::steady_clock::now();
    m_batch_latency_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    m_fingerprints_scored_->add(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      apply_verdict(batch[i], verdicts[i]);
    }
    publish_control_plane_telemetry();
  }
  classifier_done_.store(true, std::memory_order_release);
}

}  // namespace iotsentinel::core
