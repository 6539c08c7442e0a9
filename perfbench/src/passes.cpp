#include "passes.hpp"

#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "sdn/enforcement_audit.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace iotsentinel;

namespace {

/// Frames between VmRSS samples on the ingest thread.
constexpr std::size_t kRssStride = std::size_t{1} << 15;

/// Collects on_device_identified events; one writer (the classifier
/// thread, or the caller for the serial gateway), read after the drain.
class EventSink {
 public:
  explicit EventSink(std::size_t expected) { events_.reserve(expected + 64); }
  void add(const core::GatewayEvent& event) {
    events_.push_back({event.device, event.device_type, event.level, now_ns()});
  }
  std::vector<EventRecord> take() { return std::move(events_); }

 private:
  std::vector<EventRecord> events_;
};

/// Submits the sweeps the trace schedules before frame `i`.
void submit_sweeps(core::ShardedGateway& gw, const Trace& trace, std::size_t i,
                  std::size_t& next) {
  while (next < trace.sweeps.size() && trace.sweeps[next].before_frame == i) {
    gw.expire_departed(trace.sweeps[next].now_us, trace.shape.sweep_idle_us);
    ++next;
  }
}

/// Upper bound of the power-of-two bucket holding quantile `q`.
double histogram_quantile(const telemetry::Snapshot::Hist& hist, double q) {
  if (hist.count == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(hist.count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    seen += hist.buckets[i];
    if (seen >= target) {
      return static_cast<double>(telemetry::Histogram::bucket_bound(i));
    }
  }
  return static_cast<double>(
      telemetry::Histogram::bucket_bound(hist.buckets.size() - 1));
}

void read_counters(core::ShardedGateway& gw, PassResult& r) {
  GatewayCounters& c = r.counters;
  const core::ShardedGateway::Stats stats = gw.stats();
  r.frames_processed = stats.frames_processed;
  c.submit_stalls = stats.submit_stalls;
  for (const auto& shard : stats.shards) {
    c.ring_high_water = std::max(c.ring_high_water, shard.ring_high_water);
  }
  for (std::size_t s = 0; s < gw.num_shards(); ++s) {
    const sdn::SoftwareSwitch& dp = gw.shard_data_plane(s);
    c.fast += dp.fast_path_packets();
    c.cached += dp.cached_path_packets();
    c.slow += dp.slow_path_packets();
    c.tier1_hits += dp.table().tier1_hits();
    c.cache_entries += gw.shard_rule_cache(s).size();
    c.memory_bytes += dp.memory_bytes();
  }
  const sdn::Controller& ctl = gw.controller();
  c.packet_ins = ctl.packet_ins();
  c.negative_hits = ctl.negative_cache_hits();
  c.rule_installs = ctl.rule_installs();
  c.invalidations = ctl.invalidations_sent();
  c.memory_bytes += ctl.rules().memory_bytes();
  const telemetry::Snapshot snap = gw.registry().snapshot();
  for (const auto& scalar : snap.scalars) {
    if (scalar.name == "classifier.fingerprints_scored") c.scored = scalar.value;
  }
  for (const auto& hist : snap.histograms) {
    if (hist.name == "classifier.batch_latency_us") {
      c.batches = hist.count;
      c.batch_p50_us = histogram_quantile(hist, 0.50);
      c.batch_p99_us = histogram_quantile(hist, 0.99);
    }
  }
}

void read_counters(core::SecurityGateway& gw, PassResult& r) {
  GatewayCounters& c = r.counters;
  const sdn::SoftwareSwitch& dp = gw.data_plane();
  c.fast = dp.fast_path_packets();
  c.cached = dp.cached_path_packets();
  c.slow = dp.slow_path_packets();
  c.tier1_hits = dp.table().tier1_hits();
  r.frames_processed = c.fast + c.cached + c.slow + gw.malformed_frames();
  c.memory_bytes = dp.memory_bytes();
  sdn::Controller& ctl = gw.controller();
  c.packet_ins = ctl.packet_ins();
  c.negative_hits = ctl.negative_cache_hits();
  c.rule_installs = ctl.rule_installs();
  c.invalidations = ctl.invalidations_sent();
  c.memory_bytes += ctl.rules().memory_bytes();
}

/// Paced generator state shared by the sharded and serial open loops.
class Pacer {
 public:
  Pacer(std::size_t frames, double rate_fps)
      : period_ns_(1e9 / rate_fps), late_ns_(frames) {
    start_ns_ = now_ns() + 2'000'000;
    prev_return_ns_ = start_ns_;
  }
  [[nodiscard]] std::int64_t due(std::size_t i) const {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(i) * period_ns_);
  }
  /// When frame i was sent: the start of its submit (serial: on_frame).
  [[nodiscard]] std::int64_t sent(std::size_t i) const {
    return due(i) + late_ns_[i];
  }
  /// Spins until frame i is due; records how late it is sent.
  void wait(std::size_t i) {
    const std::int64_t due_ns = due(i);
    std::int64_t now = now_ns();
    while (now < due_ns) now = now_ns();
    late_ns_[i] = now - due_ns;
    if (now - std::max(due_ns, prev_return_ns_) > kLateNs) ++own_late_;
  }
  /// Marks the return of frame i's submit; returns the time.
  std::int64_t submitted() {
    prev_return_ns_ = now_ns();
    return prev_return_ns_;
  }
  void report(PassResult& r) const {
    const auto n = static_cast<double>(late_ns_.size());
    std::size_t late = 0;
    for (const std::int64_t v : late_ns_) late += v > kLateNs ? 1 : 0;
    r.gen_late_share = static_cast<double>(late) / n;
    r.gen_own_late_share = static_cast<double>(own_late_) / n;
    std::vector<std::int64_t> late_ns = late_ns_;
    r.gen_late_p99_us = quantile(late_ns, 0.99) / 1e3;
    r.valid = r.gen_own_late_share <= kMaxOwnLateShare;
  }

 private:
  double period_ns_;
  std::int64_t start_ns_ = 0;
  std::int64_t prev_return_ns_ = 0;
  std::vector<std::int64_t> late_ns_;
  std::size_t own_late_ = 0;
};

/// Matches events to capture labels and, for an open-loop pass, measures
/// each identification from the submit of its capture's closing frame to
/// the event. Frame latency runs from the due time instead; how late the
/// generator sent frames is reported on its own (gen_late_*).
void score_events(const Trace& trace, PassResult& r,
                  const Pacer* pacer = nullptr) {
  std::vector<std::uint32_t> seen(trace.shape.devices, 0);
  std::size_t matched = 0;
  for (const EventRecord& event : r.events) {
    const auto it = trace.device_of_mac.find(event.mac);
    if (it == trace.device_of_mac.end()) {
      ++r.unexpected_events;
      continue;
    }
    const std::uint32_t device = it->second;
    const auto& labels = trace.labels_of_device[device];
    const std::uint32_t k = seen[device]++;
    if (k >= labels.size()) {
      ++r.unexpected_events;
      continue;
    }
    ++matched;
    if (event.device_type == trace.type_names[trace.type_of_device[device]]) {
      ++r.correct_types;
    }
    const CaptureLabel& label = trace.labels[labels[k]];
    if (pacer != nullptr && label.close_frame != CaptureLabel::kClosedAtFinish) {
      r.identify_ns.push_back(event.at_ns - pacer->sent(label.close_frame));
    }
  }
  r.labels_without_event = trace.labels.size() - matched;
}

void frame_latency(std::vector<std::int64_t>& latency_ns, PassResult& r) {
  window_quantiles(latency_ns, kFrameWindow, 1e3, r.frame_window_p50_us,
                   r.frame_window_p99_us);
  r.frame_p50_us = quantile(latency_ns, 0.50) / 1e3;
  r.frame_p99_us = quantile(latency_ns, 0.99) / 1e3;
}

PassResult serial_closed_loop(const Trace& trace,
                              const core::IoTSecurityService& service,
                              bool measure_rss, bool audit) {
  PassResult r;
  r.frames_submitted = trace.size();
  EventSink sink(trace.labels.size());
  if (measure_rss) malloc_trim(0);
  const std::uint64_t base = rss_bytes();
  std::uint64_t peak = base;
  {
    core::SecurityGateway gw(service, serial_config());
    std::optional<sdn::EnforcementAuditor> auditor;
    if (audit) {
      auditor.emplace(gw.controller());
      auditor->attach(gw.data_plane());
    }
    gw.on_device_identified([&](const core::GatewayEvent& e) { sink.add(e); });
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      gw.on_frame(trace.frame(i), trace.ts_us[i]);
      if ((i + 1) % kAdvanceStride == 0) gw.advance_time(trace.ts_us[i]);
      if (measure_rss && i % kRssStride == 0) peak = std::max(peak, rss_bytes());
    }
    gw.finish_pending_captures();
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    peak = std::max(peak, rss_bytes());
    read_counters(gw, r);
    if (auditor) {
      r.counters.audit_checked = auditor->checked();
      r.counters.audit_violations = auditor->violations();
    }
  }
  if (measure_rss) r.rss_mib = static_cast<double>(peak - base) / (1024.0 * 1024.0);
  r.events = sink.take();
  score_events(trace, r);
  return r;
}

PassResult serial_open_loop(const Trace& trace,
                            const core::IoTSecurityService& service,
                            double rate_fps) {
  PassResult r;
  r.frames_submitted = trace.size();
  EventSink sink(trace.labels.size());
  std::vector<std::int64_t> latency_ns(trace.size());
  Pacer pacer(trace.size(), rate_fps);
  {
    core::SecurityGateway gw(service, serial_config());
    gw.on_device_identified([&](const core::GatewayEvent& e) { sink.add(e); });
    for (std::size_t i = 0; i < trace.size(); ++i) {
      pacer.wait(i);
      gw.on_frame(trace.frame(i), trace.ts_us[i]);
      latency_ns[i] = pacer.submitted() - pacer.due(i);
      if ((i + 1) % kAdvanceStride == 0) {
        // Part of the serial loop, not generator lag.
        gw.advance_time(trace.ts_us[i]);
        pacer.submitted();
      }
    }
    gw.finish_pending_captures();
    read_counters(gw, r);
  }
  pacer.report(r);
  frame_latency(latency_ns, r);
  r.events = sink.take();
  score_events(trace, r, &pacer);
  return r;
}

}  // namespace

void window_quantiles(const std::vector<std::int64_t>& samples,
                      std::size_t window, double scale, std::vector<double>& p50,
                      std::vector<double>& p99) {
  std::vector<std::int64_t> w;
  for (std::size_t start = 0; start + window <= samples.size(); start += window) {
    w.assign(samples.begin() + static_cast<std::ptrdiff_t>(start),
             samples.begin() + static_cast<std::ptrdiff_t>(start + window));
    p50.push_back(quantile(w, 0.50) / scale);
    p99.push_back(quantile(w, 0.99) / scale);
  }
}

core::ShardedGatewayConfig sharded_config(std::size_t shards) {
  core::ShardedGatewayConfig config;
  config.num_shards = shards;
  config.ring_capacity = kRingCapacity;
  config.controller.flow_idle_timeout_us = kFlowIdleTimeoutUs;
  return config;
}

core::GatewayConfig serial_config() {
  core::GatewayConfig config;
  config.controller.flow_idle_timeout_us = kFlowIdleTimeoutUs;
  return config;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return t;
  for (const unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

PassResult closed_loop(const Trace& trace,
                       const core::IoTSecurityService& service,
                       bool measure_rss, bool audit) {
  if (trace.shape.shards == 0) {
    return serial_closed_loop(trace, service, measure_rss, audit);
  }
  PassResult r;
  r.frames_submitted = trace.size();
  EventSink sink(trace.labels.size());
  if (measure_rss) malloc_trim(0);
  const std::uint64_t base = rss_bytes();
  std::uint64_t peak = base;
  {
    core::ShardedGateway gw(service, sharded_config(trace.shape.shards));
    std::optional<sdn::EnforcementAuditor> auditor;
    if (audit) {
      auditor.emplace(gw.controller());
      gw.set_audit(auditor->hook());
    }
    gw.on_device_identified([&](const core::GatewayEvent& e) { sink.add(e); });
    std::size_t next_sweep = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      submit_sweeps(gw, trace, i, next_sweep);
      gw.submit(trace.frame(i), trace.ts_us[i]);
      if (measure_rss && i % kRssStride == 0) peak = std::max(peak, rss_bytes());
    }
    gw.finish();
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    peak = std::max(peak, rss_bytes());
    read_counters(gw, r);
    if (auditor) {
      r.counters.audit_checked = auditor->checked();
      r.counters.audit_violations = auditor->violations();
    }
  }
  if (measure_rss) r.rss_mib = static_cast<double>(peak - base) / (1024.0 * 1024.0);
  r.events = sink.take();
  score_events(trace, r);
  return r;
}

PassResult open_loop(const Trace& trace,
                     const core::IoTSecurityService& service, double rate_fps) {
  if (trace.shape.shards == 0) {
    return serial_open_loop(trace, service, rate_fps);
  }
  PassResult r;
  r.frames_submitted = trace.size();
  EventSink sink(trace.labels.size());
  // Verdict times per shard, written by that shard's worker through the
  // audit hook: its j-th call answers the j-th frame routed to it.
  struct alignas(64) ShardVerdicts {
    std::vector<std::int64_t> at_ns;
    std::size_t count = 0;
  };
  std::vector<ShardVerdicts> verdicts(trace.num_shards());
  for (std::size_t s = 0; s < verdicts.size(); ++s) {
    verdicts[s].at_ns.assign(trace.frames_per_shard[s], 0);
  }
  Pacer pacer(trace.size(), rate_fps);
  {
    core::ShardedGateway gw(service, sharded_config(trace.shape.shards));
    const core::ShardedGateway* gw_ptr = &gw;
    gw.set_audit([&verdicts, gw_ptr](const net::ParsedPacket& pkt,
                                      const sdn::SwitchResult&, std::uint64_t) {
      ShardVerdicts& v = verdicts[gw_ptr->shard_of(pkt.src_mac)];
      if (v.count < v.at_ns.size()) v.at_ns[v.count] = now_ns();
      ++v.count;
    });
    gw.on_device_identified([&](const core::GatewayEvent& e) { sink.add(e); });
    std::size_t next_sweep = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      submit_sweeps(gw, trace, i, next_sweep);
      pacer.wait(i);
      gw.submit(trace.frame(i), trace.ts_us[i]);
      pacer.submitted();
    }
    gw.finish();
    read_counters(gw, r);
  }
  pacer.report(r);
  std::vector<std::int64_t> latency_ns;
  latency_ns.reserve(trace.size());
  for (const ShardVerdicts& v : verdicts) {
    r.frames_without_verdict += std::max(v.count, v.at_ns.size()) -
                                std::min(v.count, v.at_ns.size());
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ShardVerdicts& v = verdicts[trace.shard[i]];
    if (trace.rank[i] < v.count) {
      latency_ns.push_back(v.at_ns[trace.rank[i]] - pacer.due(i));
    }
  }
  frame_latency(latency_ns, r);
  r.events = sink.take();
  score_events(trace, r, &pacer);
  return r;
}

}  // namespace perfbench
