#include "simnet/network_sim.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "net/parser.hpp"
#include "net/protocols.hpp"

namespace iotsentinel::sim {

NetworkSim::NetworkSim(bool filtering, std::uint64_t seed)
    : filtering_(filtering),
      controller_(std::make_unique<sdn::Controller>(
          sdn::ControllerConfig{.filtering_enabled = filtering})),
      switch_(std::make_unique<sdn::SoftwareSwitch>(*controller_)),
      rng_(seed) {}

std::size_t NetworkSim::add_host(SimHost host) {
  by_name_[host.name] = hosts_.size();
  hosts_.push_back(std::move(host));
  return hosts_.size() - 1;
}

const SimHost& NetworkSim::host(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::fprintf(stderr, "NetworkSim: unknown host '%s'\n", name.c_str());
    std::abort();
  }
  return hosts_[it->second];
}

void NetworkSim::apply_rule(sdn::EnforcementRule rule) {
  controller_->apply_rule(std::move(rule), now_us_);
}

void NetworkSim::set_concurrent_flows(std::size_t count) {
  flows_ = count;
  // Give each synthetic flow a real micro-flow entry so the data plane's
  // table has a realistic population (the controller sees one packet-in
  // per flow, as with real traffic).
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<std::uint8_t>(2 + i % 200);
    const auto b = static_cast<std::uint8_t>(2 + (i / 200) % 200);
    const net::MacAddress src_mac =
        net::MacAddress::of(0x02, 0xf1, 0x00, 0x00, 0x00, a);
    const net::MacAddress dst_mac =
        net::MacAddress::of(0x02, 0xf1, 0x00, 0x00, 0x01, b);
    const auto src_ip = net::Ipv4Address::of(192, 168, 1, a);
    const auto dst_ip = net::Ipv4Address::of(192, 168, 2, b);
    const auto sport = static_cast<std::uint16_t>(49152 + i % 4096);
    const net::Bytes udp = net::build_udp_payload(
        sport, static_cast<std::uint16_t>(5000 + i % 1000), {});
    const net::Bytes frame = net::build_ipv4(src_mac, dst_mac, src_ip,
                                             dst_ip, net::ipproto::kUdp, udp);
    const auto pkt = net::parse_ethernet_frame(frame, now_us_);
    switch_->process(pkt, now_us_);
    now_us_ += 200;
  }
}

double NetworkSim::gaussian(double mean, double std) {
  // Box-Muller on the deterministic stream.
  const double u1 = std::max(rng_.uniform(), 1e-12);
  const double u2 = rng_.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  return mean + std * z;
}

double NetworkSim::oneway_ms(const SimHost& src, const SimHost& dst,
                             sdn::SwitchPath path) {
  double ms = 0.0;
  auto hop = [&](const SimHost& h) {
    switch (h.medium) {
      case Medium::kWireless:
        ms += std::max(0.1, gaussian(latency_.wifi_hop_ms + h.extra_oneway_ms,
                                     latency_.wifi_jitter_ms));
        break;
      case Medium::kWired:
        ms += std::max(0.05, gaussian(latency_.wire_hop_ms + h.extra_oneway_ms,
                                      latency_.wire_jitter_ms));
        break;
      case Medium::kInternet:
        ms += std::max(0.05, gaussian(latency_.wire_hop_ms, latency_.wire_jitter_ms));
        ms += std::max(0.5, gaussian(latency_.internet_oneway_ms + h.extra_oneway_ms,
                                     latency_.internet_jitter_ms));
        break;
    }
  };
  hop(src);
  hop(dst);

  // Gateway processing: fast-path switching or a controller round-trip,
  // plus queueing behind the concurrent background flows.
  double gateway_us =
      (path == sdn::SwitchPath::kSlowPath ? latency_.gateway_slow_us
                                          : latency_.gateway_fast_us) +
      static_cast<double>(flows_) * latency_.per_flow_queue_us;
  if (filtering_) gateway_us += latency_.filtering_extra_us;
  ms += gateway_us / 1000.0;
  return ms;
}

std::optional<double> NetworkSim::ping_once(const SimHost& src,
                                            const SimHost& dst) {
  const auto ident = static_cast<std::uint16_t>(rng_.next_u64());

  const net::Bytes request = net::build_icmp_echo(
      src.mac, dst.mac, src.ip, dst.ip, ident, 1);
  const auto req_pkt = net::parse_ethernet_frame(request, now_us_);
  const sdn::SwitchResult req_res = switch_->process(req_pkt, now_us_);
  now_us_ += 1000;
  if (req_res.action == sdn::FlowAction::kDrop) return std::nullopt;
  const double forward_ms = oneway_ms(src, dst, req_res.path);

  const net::Bytes reply = net::build_icmp_echo(
      dst.mac, src.mac, dst.ip, src.ip, ident, 2);
  const auto rep_pkt = net::parse_ethernet_frame(reply, now_us_);
  const sdn::SwitchResult rep_res = switch_->process(rep_pkt, now_us_);
  now_us_ += 1000;
  if (rep_res.action == sdn::FlowAction::kDrop) return std::nullopt;
  const double return_ms = oneway_ms(dst, src, rep_res.path);

  return forward_ms + return_ms;
}

RttResult NetworkSim::measure_rtt(const std::string& src,
                                  const std::string& dst,
                                  std::size_t iterations) {
  RttResult result;
  const SimHost& s = host(src);
  const SimHost& d = host(dst);
  for (std::size_t i = 0; i < iterations; ++i) {
    ++result.sent;
    if (auto rtt = ping_once(s, d)) {
      result.rtt_ms.add(*rtt);
    } else {
      ++result.dropped;
    }
    now_us_ += 1'000'000;  // 1 s ping interval
  }
  return result;
}

double NetworkSim::cpu_utilization_pct() {
  double pct = cpu_.base_pct +
               cpu_.per_flow_pct * static_cast<double>(flows_);
  if (filtering_) {
    pct += cpu_.filtering_base_pct +
           cpu_.filtering_per_flow_pct * static_cast<double>(flows_);
  }
  pct += gaussian(0.0, cpu_.noise_pct);
  return std::min(100.0, std::max(0.0, pct));
}

double NetworkSim::memory_mb(std::size_t rule_count, bool calibrated) const {
  if (!filtering_) {
    return memory_.base_mb +
           memory_.no_filtering_slope_mb * static_cast<double>(rule_count);
  }
  if (calibrated) {
    return memory_.base_mb + memory_.floodlight_bytes_per_rule *
                                 static_cast<double>(rule_count) / 1e6;
  }
  // Raw accounting covers both gateway-side stores: the controller's
  // enforcement-rule cache and the switch's tuple-space flow table.
  return memory_.base_mb +
         static_cast<double>(controller_->rules().memory_bytes() +
                             switch_->memory_bytes()) /
             1e6;
}

NetworkSim make_paper_testbed(bool filtering, std::uint64_t seed) {
  NetworkSim sim(filtering, seed);
  const auto dev_ip = [](std::uint8_t last) {
    return net::Ipv4Address::of(192, 168, 0, last);
  };
  // Per-device extra latency reproduces Table V's distinct base RTTs:
  // D1D4 ~24.5, D2D4 ~28.2, D3D4 ~27.5 ms without filtering.
  sim.add_host({.name = "D1",
                .mac = net::MacAddress::of(0x02, 0xd1, 0, 0, 0, 1),
                .ip = dev_ip(11), .medium = Medium::kWireless,
                .extra_oneway_ms = 0.0});
  sim.add_host({.name = "D2",
                .mac = net::MacAddress::of(0x02, 0xd2, 0, 0, 0, 2),
                .ip = dev_ip(12), .medium = Medium::kWireless,
                .extra_oneway_ms = 0.95});
  sim.add_host({.name = "D3",
                .mac = net::MacAddress::of(0x02, 0xd3, 0, 0, 0, 3),
                .ip = dev_ip(13), .medium = Medium::kWireless,
                .extra_oneway_ms = 0.75});
  sim.add_host({.name = "D4",
                .mac = net::MacAddress::of(0x02, 0xd4, 0, 0, 0, 4),
                .ip = dev_ip(14), .medium = Medium::kWireless,
                .extra_oneway_ms = 0.05});
  sim.add_host({.name = "Slocal",
                .mac = net::MacAddress::of(0x02, 0x51, 0, 0, 0, 5),
                .ip = dev_ip(100), .medium = Medium::kWired,
                .extra_oneway_ms = 0.0});
  sim.add_host({.name = "Sremote",
                .mac = net::MacAddress::of(0x02, 0x52, 0, 0, 0, 6),
                .ip = net::Ipv4Address::of(52, 29, 100, 10),
                .medium = Medium::kInternet, .extra_oneway_ms = 0.0});

  // All measurement devices are Trusted so enforcement admits every flow
  // and only the filtering machinery's cost is visible — matching the
  // paper's methodology of measuring overhead, not blocking.
  for (const char* name : {"D1", "D2", "D3", "D4", "Slocal", "Sremote"}) {
    sdn::EnforcementRule rule;
    rule.device = sim.host(name).mac;
    rule.level = sdn::IsolationLevel::kTrusted;
    sim.apply_rule(std::move(rule));
  }
  return sim;
}

}  // namespace iotsentinel::sim
