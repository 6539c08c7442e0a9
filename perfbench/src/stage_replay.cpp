#include "stage_replay.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "core/device_tracker.hpp"
#include "core/security_gateway.hpp"
#include "fingerprint/extractor.hpp"
#include "net/hash_mix.hpp"
#include "net/parser.hpp"
#include "sdn/controller.hpp"
#include "sdn/software_switch.hpp"
#include "sdn/switch_cache.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace iotsentinel;

namespace {

constexpr const char* kSpanLabels[] = {
    "frame",          "malformed",     "parse",       "tracker",
    "extractor",      "switch",        "batch",       "assess",
    "apply_rule",     "flush_device",  "mark_identified", "sweep",
    "idle_scan",      "remove_device", "forget",      "expire",
    "score_probe",    "identify_probe"};
static_assert(std::size(kSpanLabels) == static_cast<std::size_t>(SpanName::kCount));

/// Records spans into one log. `run` times its callable only when asked
/// to, so untraced frames pay no clock reads.
class Tracer {
 public:
  Tracer(bool on, std::vector<Span>& log) : on_(on), log_(log) {}

  [[nodiscard]] bool on() const { return on_; }

  std::uint32_t open(SpanName name, std::uint32_t parent = Span::kNoParent) {
    Span span;
    span.name = name;
    span.parent = parent;
    log_.push_back(span);
    const auto index = static_cast<std::uint32_t>(log_.size() - 1);
    log_[index].start_ns = now_ns();  // last, so the span times only `fn`
    return index;
  }
  void close(std::uint32_t index) { log_[index].end_ns = now_ns(); }

  /// Runs `fn` inside a span when `traced`, bare otherwise.
  template <typename Fn>
  decltype(auto) run(bool traced, SpanName name, std::uint32_t parent,
                     Fn&& fn) {
    if (!traced) return fn();
    struct Closer {
      Tracer& tracer;
      std::uint32_t index;
      ~Closer() { tracer.close(index); }
    } closer{*this, open(name, parent)};
    return fn();
  }

  Span& at(std::uint32_t index) { return log_[index]; }

 private:
  bool on_;
  std::vector<Span>& log_;
};

struct PendingCapture {
  net::MacAddress mac;
  fp::Fingerprint fingerprint;
  std::uint64_t end_us = 0;
};

struct ReplayShard {
  ReplayShard(sdn::Controller& controller, bool with_cache)
      : data_plane(controller) {
    if (with_cache) {
      controller.attach_cache(&cache);
      data_plane.set_rule_cache(&cache);
    }
  }
  fp::SetupCaptureExtractor extractor;
  core::DeviceTracker tracker;
  sdn::SoftwareSwitch data_plane;
  sdn::SwitchRuleCache cache;
  std::size_t frames_since_expiry = 0;
};

class Replay {
 public:
  Replay(const Trace& trace, const core::IoTSecurityService& service,
         bool traced, ReplayResult& result)
      : trace_(trace),
        service_(service),
        serial_(trace.shape.shards == 0),
        controller_(serial_config().controller),
        tracer_(traced, result.spans),
        result_(result) {
    for (std::size_t s = 0; s < trace.num_shards(); ++s) {
      shards_.push_back(std::make_unique<ReplayShard>(controller_, !serial_));
      shards_.back()->extractor.on_capture_complete(
          [this](const fp::DeviceCapture& c) {
            pending_.push_back({c.mac, c.fingerprint, c.end_us});
            ++result_.captures;
          });
    }
    if (traced) {
      result.spans.reserve(trace.size() / kSampleEvery * 7 +
                           trace.labels.size() * 8 + trace.size() / 64);
    }
    result.events.reserve(trace.labels.size());
  }

  void run() {
    std::size_t next_sweep = 0;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      while (next_sweep < trace_.sweeps.size() &&
             trace_.sweeps[next_sweep].before_frame == i) {
        sweep(trace_.sweeps[next_sweep++].now_us);
      }
      frame(i);
    }
    for (auto& shard : shards_) shard->extractor.flush_all();
    classify(last_ts_);
    for (const auto& shard : shards_) {
      result_.discarded += shard->extractor.discarded_captures();
    }
  }

 private:
  void frame(std::size_t i) {
    const std::span<const std::uint8_t> bytes = trace_.frame(i);
    const std::uint64_t ts = trace_.ts_us[i];
    last_ts_ = ts;
    ReplayShard& shard = *shards_[trace_.shard[i]];
    const bool sampled =
        tracer_.on() && net::mix64(i ^ 0x5eed) % kSampleEvery == 0;
    std::uint32_t root = Span::kNoParent;
    if (sampled) {
      root = tracer_.open(SpanName::kFrame);
      ++result_.sampled_frames;
    }
    const bool malformed = tracer_.run(sampled, SpanName::kMalformed, root, [&] {
      return core::is_malformed_frame(bytes);
    });
    if (!malformed) {
      const net::ParsedPacket pkt = tracer_.run(
          sampled, SpanName::kParse, root,
          [&] { return net::parse_ethernet_frame(bytes, ts); });
      tracer_.run(sampled, SpanName::kTracker, root,
                  [&] { shard.tracker.observe(pkt, bytes); });
      tracer_.run(sampled, SpanName::kExtractor, root,
                  [&] { shard.extractor.observe(pkt); });
      if (sampled) {
        const std::uint32_t sw = tracer_.open(SpanName::kSwitch, root);
        const sdn::SwitchResult r = shard.data_plane.process(pkt, ts);
        tracer_.close(sw);
        tracer_.at(sw).path = static_cast<std::uint8_t>(r.path);
      } else {
        (void)shard.data_plane.process(pkt, ts);
      }
    }
    if (sampled) tracer_.close(root);

    // Idle-flow expiry: the shard worker's stride, or the serial
    // loop's advance_time every kAdvanceStride frames.
    if (serial_) {
      if ((i + 1) % kAdvanceStride == 0) {
        tracer_.run(tracer_.on(), SpanName::kExpire, Span::kNoParent, [&] {
          shard.extractor.advance_time(ts);
          shard.data_plane.expire_flows(ts);
        });
      }
    } else if (++shard.frames_since_expiry >= kAdvanceStride) {
      shard.frames_since_expiry = 0;
      tracer_.run(tracer_.on(), SpanName::kExpire, Span::kNoParent,
                  [&] { shard.data_plane.expire_flows(ts); });
    }
    if (!pending_.empty()) classify(ts);
  }

  void classify(std::uint64_t now_us) {
    if (pending_.empty()) return;
    const bool traced = tracer_.on();
    fingerprints_.clear();
    for (const PendingCapture& p : pending_) {
      fingerprints_.push_back(&p.fingerprint);
    }
    if (traced) probe();
    const std::uint32_t batch =
        traced ? tracer_.open(SpanName::kBatch) : Span::kNoParent;
    tracer_.run(traced, SpanName::kAssess, batch,
                [&] { service_.assess_batch(fingerprints_, verdicts_); });
    for (std::size_t k = 0; k < pending_.size(); ++k) {
      const PendingCapture& p = pending_[k];
      const core::ServiceVerdict& v = verdicts_[k];
      // The serial gateway stamps rules with the current frame's time,
      // the sharded one with the capture's end.
      const std::uint64_t at = serial_ ? now_us : p.end_us;
      ReplayShard& shard = *shards_[serial_ ? 0 : shard_of(p.mac, shards_.size())];
      tracer_.run(traced, SpanName::kApplyRule, batch, [&] {
        controller_.apply_rule(core::rule_for_verdict(v, p.mac, at), at);
      });
      tracer_.run(traced, SpanName::kFlushDevice, batch,
                  [&] { shard.data_plane.flush_device(p.mac); });
      tracer_.run(traced, SpanName::kMarkIdentified, batch, [&] {
        shard.tracker.mark_identified(p.mac, v.device_type, v.level);
      });
      result_.events.push_back({p.mac, v.device_type, v.level, 0});
    }
    if (traced) tracer_.close(batch);
    result_.fingerprints += pending_.size();
    ++result_.batches;
    pending_.clear();
  }

  /// Times stage 1 alone and the full identifier on the batch, outside
  /// the batch span (the gateway does not make these calls).
  void probe() {
    const core::DeviceIdentifier& identifier = service_.identifier();
    fixed_.clear();
    for (const fp::Fingerprint* f : fingerprints_) {
      fixed_.push_back(f->to_fixed(identifier.config().fixed_prefix));
    }
    scores_.resize(fixed_.size() * identifier.num_types());
    tracer_.run(true, SpanName::kScoreProbe, Span::kNoParent,
                [&] { identifier.bank().score_batch(fixed_, scores_); });
    tracer_.run(true, SpanName::kIdentifyProbe, Span::kNoParent, [&] {
      identifier.identify_batch(fingerprints_, identifications_);
    });
  }

  void sweep(std::uint64_t now_us) {
    const bool traced = tracer_.on();
    for (auto& shard_ptr : shards_) {
      ReplayShard& shard = *shard_ptr;
      const std::uint32_t root =
          traced ? tracer_.open(SpanName::kSweep) : Span::kNoParent;
      tracer_.run(traced, SpanName::kIdleScan, root, [&] {
        shard.tracker.idle_devices_into(now_us, trace_.shape.sweep_idle_us,
                                        departed_);
      });
      for (const net::MacAddress& mac : departed_) {
        tracer_.run(traced, SpanName::kRemoveDevice, root,
                    [&] { controller_.remove_device(mac, now_us); });
        tracer_.run(traced, SpanName::kFlushDevice, root,
                    [&] { shard.data_plane.flush_device(mac); });
        tracer_.run(traced, SpanName::kForget, root, [&] {
          shard.extractor.forget(mac);
          shard.tracker.forget(mac);
        });
      }
      if (traced) tracer_.close(root);
    }
  }

  const Trace& trace_;
  const core::IoTSecurityService& service_;
  bool serial_;
  sdn::Controller controller_;
  std::vector<std::unique_ptr<ReplayShard>> shards_;
  Tracer tracer_;
  ReplayResult& result_;
  std::vector<PendingCapture> pending_;
  std::vector<const fp::Fingerprint*> fingerprints_;
  std::vector<core::ServiceVerdict> verdicts_;
  std::vector<fp::FixedFingerprint> fixed_;
  std::vector<double> scores_;
  std::vector<core::IdentificationResult> identifications_;
  std::vector<net::MacAddress> departed_;
  std::uint64_t last_ts_ = 0;
};

}  // namespace

const char* span_label(SpanName name) {
  return kSpanLabels[static_cast<std::size_t>(name)];
}

ReplayResult stage_replay(const Trace& trace,
                          const core::IoTSecurityService& service,
                          bool traced) {
  ReplayResult result;
  // Calibration: the median duration of an empty span.
  std::vector<Span> empty;
  empty.reserve(10'001);
  Tracer calibrate(true, empty);
  for (std::size_t k = 0; k < 10'001; ++k) {
    calibrate.close(calibrate.open(SpanName::kFrame));
  }
  std::vector<std::int64_t> durations;
  for (const Span& span : empty) durations.push_back(span.end_ns - span.start_ns);
  result.clock_ns = quantile(durations, 0.5);
  Replay replay(trace, service, traced, result);
  const std::int64_t t0 = now_ns();
  replay.run();
  result.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return result;
}

SelfTimes self_times(const std::vector<Span>& spans, double clock_ns) {
  SelfTimes out;
  for (const Span& span : spans) {
    const auto raw = static_cast<double>(span.end_ns - span.start_ns);
    const double duration = raw - clock_ns;
    const auto name = static_cast<std::size_t>(span.name);
    out.total_ns[name] += duration;
    ++out.count[name];
    if (span.parent != Span::kNoParent) {
      // The child's clock reads stay in the parent's self time.
      out.total_ns[static_cast<std::size_t>(spans[span.parent].name)] -= raw;
    }
    if (span.name == SpanName::kSwitch) {
      out.switch_path_ns[span.path] += duration;
      ++out.switch_path_count[span.path];
    }
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,start_ns,end_ns,parent,path\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%" PRId64 ",%" PRId64 ",%lld,%u\n", i,
                 span_label(s.name), s.start_ns, s.end_ns,
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 static_cast<unsigned>(s.path));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
