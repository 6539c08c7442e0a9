// Full-system onboarding demo (the paper's Fig. 1/Fig. 3 flow).
//
// An IoT Security Service is trained on the complete 27-type catalog with
// a vulnerability database; a Security Gateway then watches three devices
// join the network:
//   * a Philips Hue Bridge   (clean)      -> Trusted
//   * an Edimax camera       (vulnerable) -> Restricted + cloud whitelist
//   * a mystery device       (unknown)    -> Strict
// and enforces each verdict in its SDN data plane. The demo then probes
// the data plane to show the overlays in action.
//
// Build & run:  ./build/examples/onboarding_demo
#include <cstdio>

#include "core/security_gateway.hpp"
#include "net/builder.hpp"
#include "simnet/corpus.hpp"
#include "simnet/traffic_generator.hpp"

namespace {

using namespace iotsentinel;

/// Vendor cloud endpoints per device-type, scraped from the catalog.
std::vector<net::Ipv4Address> cloud_endpoints(const sim::DeviceProfile& p) {
  std::vector<net::Ipv4Address> out;
  for (const auto& step : p.steps) {
    if (step.remote.value() != 0 && !step.remote.is_private()) {
      bool seen = false;
      for (const auto& ip : out) seen |= (ip == step.remote);
      if (!seen) out.push_back(step.remote);
    }
  }
  return out;
}

/// Replays one device's setup capture into the gateway.
net::MacAddress onboard(core::SecurityGateway& gw,
                        const sim::DeviceProfile& profile,
                        std::uint32_t instance, std::uint8_t ip_last,
                        std::uint64_t seed) {
  sim::TrafficGenerator gen;
  ml::Rng rng(seed);
  const auto mac = sim::TrafficGenerator::mint_mac(profile, instance);
  std::uint64_t last_ts = 0;
  for (const auto& tf : gen.generate(
           profile, mac, net::Ipv4Address::of(192, 168, 0, ip_last), rng)) {
    gw.on_frame(tf.frame, tf.timestamp_us);
    last_ts = tf.timestamp_us;
  }
  gw.advance_time(last_ts + 120'000'000);
  return mac;
}

const char* verdict(sdn::FlowAction action) {
  return action == sdn::FlowAction::kForward ? "FORWARD" : "DROP   ";
}

}  // namespace

int main() {
  std::printf("=== IoT Sentinel onboarding demo ===\n\n");

  // --- IoT Security Service: train on the full catalog (minus one type we
  // keep "unknown" to demonstrate discovery). -----------------------------
  std::vector<std::string> known_types;
  for (const auto& p : sim::device_catalog()) {
    if (p.name != "SmarterCoffee" && p.name != "iKettle2") {
      known_types.push_back(p.name);
    }
  }
  std::printf("[IoTSSP] training per-type classifiers for %zu device-types...\n",
              known_types.size());
  const auto corpus = sim::generate_corpus_for(known_types, 15, 99);
  core::DeviceIdentifier identifier;
  identifier.train(corpus.type_names, corpus.by_type);
  core::IoTSecurityService service(std::move(identifier),
                                   core::VulnerabilityDb::with_sample_data());
  for (const auto& name : known_types) {
    service.register_endpoints(name,
                               cloud_endpoints(*sim::find_profile(name)));
  }

  // --- Security Gateway ---------------------------------------------------
  core::SecurityGateway gateway(service);
  gateway.on_device_identified([](const core::GatewayEvent& e) {
    std::printf("[gateway] %s identified as %-12s -> isolation level %s%s\n",
                e.device.to_string().c_str(),
                e.is_new_type ? "<new type>" : e.device_type.c_str(),
                sdn::to_string(e.level).c_str(),
                e.is_new_type ? " (never seen before)" : "");
  });

  std::printf("\n--- three devices join the network ---\n");
  const auto hue =
      onboard(gateway, *sim::find_profile("HueBridge"), 1, 21, 501);
  const auto cam =
      onboard(gateway, *sim::find_profile("EdimaxCam"), 2, 22, 502);
  const auto mystery =
      onboard(gateway, *sim::find_profile("iKettle2"), 3, 23, 503);

  std::printf("\n--- installed enforcement rules (paper Fig. 2 format) ---\n");
  for (const auto& mac : {hue, cam, mystery}) {
    const sdn::EnforcementRule* rule = gateway.controller().rules().lookup(mac);
    if (rule) std::printf("%s\n", rule->to_string().c_str());
  }

  // --- probe the data plane ------------------------------------------------
  std::printf("--- data-plane verdicts after onboarding ---\n");
  const std::uint64_t t = 500'000'000;
  struct Probe {
    const char* label;
    net::Bytes frame;
  };
  const Probe probes[] = {
      {"HueBridge -> Internet (any)          ",
       net::build_tcp_syn(hue, net::MacAddress::of(2, 0, 0, 0, 0, 1),
                          net::Ipv4Address::of(192, 168, 0, 21),
                          net::Ipv4Address::of(8, 8, 8, 8), 50000, 443, 1)},
      {"EdimaxCam -> its vendor cloud        ",
       net::build_tcp_syn(cam, net::MacAddress::of(2, 0, 0, 0, 0, 1),
                          net::Ipv4Address::of(192, 168, 0, 22),
                          net::Ipv4Address::of(104, 22, 7, 70), 50001, 80, 1)},
      {"EdimaxCam -> elsewhere on the Internet",
       net::build_tcp_syn(cam, net::MacAddress::of(2, 0, 0, 0, 0, 1),
                          net::Ipv4Address::of(192, 168, 0, 22),
                          net::Ipv4Address::of(8, 8, 8, 8), 50002, 443, 1)},
      {"EdimaxCam -> HueBridge (cross overlay)",
       net::build_tcp_syn(cam, hue, net::Ipv4Address::of(192, 168, 0, 22),
                          net::Ipv4Address::of(192, 168, 0, 21), 50003, 80,
                          1)},
      {"mystery device -> Internet            ",
       net::build_tcp_syn(mystery, net::MacAddress::of(2, 0, 0, 0, 0, 1),
                          net::Ipv4Address::of(192, 168, 0, 23),
                          net::Ipv4Address::of(104, 27, 12, 120), 50004, 2081,
                          1)},
      {"mystery device -> EdimaxCam (untrusted overlay)",
       net::build_tcp_syn(mystery, cam, net::Ipv4Address::of(192, 168, 0, 23),
                          net::Ipv4Address::of(192, 168, 0, 22), 50005, 80,
                          1)},
  };
  std::uint64_t now = t;
  for (const auto& probe : probes) {
    const auto result = gateway.on_frame(probe.frame, now);
    std::printf("  %-48s %s (%s)\n", probe.label, verdict(result.action),
                result.reason);
    now += 1000;
  }

  std::printf("\n--- device inventory ---\n");
  gateway.inventory().for_each([](const core::TrackedDevice& device) {
    std::printf("  %s\n", device.summary().c_str());
  });

  std::printf("\ndata plane: %llu fast-path / %llu slow-path packets "
              "(%llu exact micro-flow hits), %zu flow entries, "
              "%llu controller drops\n",
              static_cast<unsigned long long>(
                  gateway.data_plane().fast_path_packets()),
              static_cast<unsigned long long>(
                  gateway.data_plane().slow_path_packets()),
              static_cast<unsigned long long>(
                  gateway.data_plane().table().tier1_hits()),
              gateway.data_plane().table().size(),
              static_cast<unsigned long long>(gateway.controller().drops()));
  return 0;
}
