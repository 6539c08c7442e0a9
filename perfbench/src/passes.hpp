// Timed replays of a pre-rendered trace through the unmodified gateway.
//
// A closed-loop pass submits the trace as fast as backpressure allows and
// times it from the first submit to the return of finish() (serial: of
// finish_pending_captures()). An open-loop pass paces frames at a fixed
// offered rate and times every frame from its due time to its verdict:
// the return of on_frame (serial) or the SoftwareSwitch audit hook on
// the owning shard's worker (sharded). Every pass constructs a fresh
// gateway.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "core/security_service.hpp"
#include "net/mac_address.hpp"
#include "sdn/isolation.hpp"
#include "trace.hpp"

namespace perfbench {

/// Ring slots per shard (bench_fleet's default).
inline constexpr std::size_t kRingCapacity = 16'384;
/// Micro-flow idle timeout (bench_fleet's default): the fleet's standby
/// connections are sub-second, and a longer timeout only grows tier-2.
inline constexpr std::uint64_t kFlowIdleTimeoutUs = 5'000'000;

/// The gateway configurations every pass and set-up constructs.
iotsentinel::core::ShardedGatewayConfig sharded_config(std::size_t shards);
iotsentinel::core::GatewayConfig serial_config();

/// One on_device_identified event, stamped on arrival.
struct EventRecord {
  iotsentinel::net::MacAddress mac;
  std::string device_type;
  iotsentinel::sdn::IsolationLevel level = iotsentinel::sdn::IsolationLevel::kStrict;
  std::int64_t at_ns = 0;
};

/// Gateway-side counters read after the pass's drain.
struct GatewayCounters {
  std::uint64_t fast = 0;
  std::uint64_t cached = 0;
  std::uint64_t slow = 0;
  std::uint64_t tier1_hits = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t rule_installs = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t submit_stalls = 0;
  std::uint64_t ring_high_water = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t memory_bytes = 0;
  /// Classifier thread (sharded only): fingerprints, batches, and the
  /// batch-latency histogram's p50/p99 bucket bounds.
  std::uint64_t scored = 0;
  std::uint64_t batches = 0;
  double batch_p50_us = 0.0;
  double batch_p99_us = 0.0;
  std::uint64_t audit_checked = 0;
  std::uint64_t audit_violations = 0;
};

struct PassResult {
  std::size_t frames_submitted = 0;
  std::size_t frames_processed = 0;
  double wall_s = 0.0;
  /// Peak VmRSS during the pass minus VmRSS before construction (only
  /// when measured; see closed_loop).
  double rss_mib = 0.0;
  std::vector<EventRecord> events;
  GatewayCounters counters;
  /// Events matched against the trace's capture labels (the k-th event
  /// of a device answers its k-th label).
  std::size_t labels_without_event = 0;
  std::size_t unexpected_events = 0;
  /// Events whose type is the roster ground truth.
  std::size_t correct_types = 0;
  // Open loop only.
  /// Frames whose verdict (audit hook call) is missing, or hook calls a
  /// shard made beyond the frames routed to it.
  std::size_t frames_without_verdict = 0;
  /// Frame latency quantiles of each kFrameWindow frames, in due order,
  /// and of the whole pass.
  std::vector<double> frame_window_p50_us;
  std::vector<double> frame_window_p99_us;
  double frame_p50_us = 0.0;
  double frame_p99_us = 0.0;
  /// Submit of a capture's closing frame to its event, per capture closed
  /// by a frame (captures the final flush closes have no closing frame).
  std::vector<std::int64_t> identify_ns;
  /// How late the paced generator sent frames: p99 of (send - due), the
  /// share sent more than kLateNs after due, and the share it sent late
  /// on its own account (not while blocked in submit).
  double gen_late_p99_us = 0.0;
  double gen_late_share = 0.0;
  double gen_own_late_share = 0.0;
  bool valid = true;
  /// Share of the machine's CPU time the host stole during the pass.
  double steal_share = 0.0;
};

/// Closed-loop pass. With `measure_rss`, freed heap is first returned to
/// the kernel (malloc_trim) and `rss_mib` is measured; only a pass whose
/// gateway starts on pages no earlier pass touched gives an honest
/// delta, so a run measures its first pass alone. With `audit`, an
/// sdn::EnforcementAuditor is attached and its counts land in
/// `counters` (never on a timed pass).
PassResult closed_loop(const Trace& trace,
                       const iotsentinel::core::IoTSecurityService& service,
                       bool measure_rss, bool audit = false);

/// Open-loop pass at `rate_fps` offered frames per second.
PassResult open_loop(const Trace& trace,
                     const iotsentinel::core::IoTSecurityService& service,
                     double rate_fps);

/// Latency quantiles are taken per window of consecutive samples and the
/// median over windows is reported. Rare multi-millisecond stalls (host
/// preemption of a virtual CPU; about 1% of wall time on the reference
/// machine) otherwise decide a whole-pass p99 on their own and swing it
/// tenfold between passes. Not a mean of any kind: when the host is busy
/// a third of the windows can read a thousand times the rest. A window
/// for a p99 holds at least 1000 samples, so its p99 has ten beyond it;
/// identification p50 windows are smaller, so that a run has dozens.
inline constexpr std::size_t kFrameWindow = 8192;
inline constexpr std::size_t kIdentifyWindow = 250;
inline constexpr std::size_t kIdentifyTailWindow = 1000;

/// Appends the p50 and p99 of each full window of `window` consecutive
/// `samples`, divided by `scale`.
void window_quantiles(const std::vector<std::int64_t>& samples,
                      std::size_t window, double scale, std::vector<double>& p50,
                      std::vector<double>& p99);

/// Lateness beyond which a paced frame counts as sent late.
inline constexpr std::int64_t kLateNs = 10'000;
/// A pass is invalid when the generator fell behind on its own account
/// for more than this share of frames.
inline constexpr double kMaxOwnLateShare = 0.01;

std::int64_t now_ns();

/// VmRSS of this process, in bytes.
std::uint64_t rss_bytes();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor stole (a virtual CPU was ready to run while
/// the host ran something else).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

}  // namespace perfbench
