// Reproduces Fig. 6a: latency between device pairs vs the number of
// concurrent flows in the network (20..150), with and without filtering.
//
// Paper reference: both curves are essentially flat around the pairs' base
// RTTs (D1-D2 ~12-16 ms, D1-D3 ~10-14 ms in the figure's normalization);
// "the increase in latency for up to 150 concurrent flows is insignificant".
// Shape to reproduce: slope of a few hundred microseconds over the whole
// sweep, filtering curve marginally above no-filtering.
//
// Part 2 is the data-plane ablation behind the figure: per-packet flow-
// table lookup cost vs the number of installed wildcard flows, for the
// reference LinearFlowTable (priority scan per packet, from the test
// support library) and the tuple-space FlowTable (one hash probe per
// distinct match shape).
// The curves are written to BENCH_flowtable.json (uploaded by CI next to
// the other BENCH_*.json reference numbers).
#include <chrono>
#include <cstdio>
#include <vector>

#include "linear_flow_table.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"
#include "net/protocols.hpp"
#include "sdn/flow_table.hpp"
#include "simnet/network_sim.hpp"

namespace {

using namespace iotsentinel;

/// One synthetic flow: a wildcard entry (src MAC + dst port pinned, the
/// rest open — not an exact micro-flow, so every entry shares one mask)
/// and a packet that matches it and nothing else.
struct SyntheticFlow {
  sdn::FlowEntry entry;
  net::ParsedPacket pkt;
};

std::vector<SyntheticFlow> make_flows(std::size_t count) {
  std::vector<SyntheticFlow> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<std::uint8_t>(i & 0xff);
    const auto b = static_cast<std::uint8_t>((i >> 8) & 0xff);
    const net::MacAddress src = net::MacAddress::of(0x02, 0x6a, 0, 0, b, a);
    const net::MacAddress dst = net::MacAddress::of(0x02, 0x6b, 0, 0, b, a);
    const auto dport = static_cast<std::uint16_t>(1024 + (i % 30000));

    SyntheticFlow flow;
    flow.entry.match.src_mac = src;
    flow.entry.match.dst_port = dport;
    flow.entry.action = sdn::FlowAction::kForward;
    flow.entry.priority = 10;
    flow.entry.cookie = src.to_u64();

    const net::Bytes frame = net::build_ipv4(
        src, dst, net::Ipv4Address::of(10, static_cast<std::uint8_t>(1 + b),
                                       a, 2),
        net::Ipv4Address::of(10, 200, b, a), net::ipproto::kUdp,
        net::build_udp_payload(static_cast<std::uint16_t>(40000 + (i % 9000)),
                               dport, {}));
    flow.pkt = net::parse_ethernet_frame(frame, 0);
    flows.push_back(std::move(flow));
  }
  return flows;
}

/// Steady-state per-packet process() cost on a caller-provided table:
/// install all entries, warm with one pass, then time `passes` full
/// passes over the packet set. The table outlives the call so the caller
/// can read implementation-specific counters of the timed section.
template <typename Table>
double ns_per_packet(Table& table, const std::vector<SyntheticFlow>& flows,
                     std::size_t passes) {
  std::uint64_t now = 1;
  for (const auto& flow : flows) table.install(flow.entry, now++);
  for (const auto& flow : flows) table.process(flow.pkt, now++);  // warm-up

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& flow : flows) {
      table.process(flow.pkt, now++);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double total_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count());
  return total_ns / static_cast<double>(passes * flows.size());
}

struct AblationRow {
  std::size_t flows = 0;
  double linear_ns = 0.0;
  double tuple_space_ns = 0.0;
  std::size_t masks = 0;
};

AblationRow run_ablation(std::size_t flow_count) {
  const auto flows = make_flows(flow_count);
  // Fixed total work (~128k timed packets) so large tables don't blow up
  // the CI smoke run while small ones still measure enough packets.
  const std::size_t passes =
      std::max<std::size_t>(2, (128 * 1024) / flow_count);

  AblationRow row;
  row.flows = flow_count;

  sdn::LinearFlowTable linear;
  row.linear_ns = ns_per_packet(linear, flows, passes);
  if (linear.matched_packets() == 0) std::printf("(unexpected: no matches)\n");

  sdn::FlowTable tuple_space;
  row.tuple_space_ns = ns_per_packet(tuple_space, flows, passes);
  if (tuple_space.misses() != 0) {
    std::printf("(unexpected: tuple-space table missed packets)\n");
  }
  row.masks = tuple_space.masks();
  return row;
}

void write_json(const std::vector<AblationRow>& rows) {
  std::FILE* f = std::fopen("BENCH_flowtable.json", "w");
  if (!f) {
    std::printf("could not write BENCH_flowtable.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"flowtable_lookup\",\n");
  std::fprintf(f, "  \"generated_by\": \"fig6a_latency_flows\",\n");
  std::fprintf(f,
               "  \"description\": \"steady-state per-packet process() cost "
               "vs installed wildcard flows; linear = single priority-scan "
               "table, tuple_space = one hash probe per distinct match "
               "shape (masks)\",\n");
  std::fprintf(f, "  \"curve\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AblationRow& r = rows[i];
    std::fprintf(f,
                 "    {\"flows\": %zu, \"linear_ns_per_packet\": %.1f, "
                 "\"tuple_space_ns_per_packet\": %.1f, \"speedup\": %.1f, "
                 "\"masks\": %zu}%s\n",
                 r.flows, r.linear_ns, r.tuple_space_ns,
                 r.linear_ns / r.tuple_space_ns, r.masks,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("=== Fig. 6a: latency vs number of concurrent flows ===\n\n");
  std::printf("%6s  %16s %16s %16s %16s\n", "flows", "D1-D2 w/filt",
              "D1-D2 wo/filt", "D1-D3 w/filt", "D1-D3 wo/filt");

  double first_with = 0.0;
  double last_with = 0.0;
  for (std::size_t flows = 20; flows <= 150; flows += 10) {
    double row[4] = {0, 0, 0, 0};
    int col = 0;
    for (const char* dst : {"D2", "D3"}) {
      for (bool filtering : {true, false}) {
        sim::NetworkSim sim =
            sim::make_paper_testbed(filtering, 40 + flows + (filtering ? 1 : 0));
        sim.set_concurrent_flows(flows);
        row[col++] = sim.measure_rtt("D1", dst, 15).rtt_ms.mean();
      }
    }
    std::printf("%6zu  %13.2f ms %13.2f ms %13.2f ms %13.2f ms\n", flows,
                row[0], row[1], row[2], row[3]);
    if (flows == 20) first_with = row[0];
    if (flows == 150) last_with = row[0];
  }

  std::printf("\nD1-D2 (filtering) increase across the sweep: %.2f ms "
              "(paper: insignificant, well under 1 ms)\n",
              last_with - first_with);

  std::printf("\n=== flow-table ablation: per-packet lookup vs installed "
              "wildcard flows ===\n\n");
  std::printf("%6s  %14s %14s %9s %6s\n", "flows", "linear ns/pkt",
              "tuple ns/pkt", "speedup", "masks");
  std::vector<AblationRow> rows;
  for (const std::size_t flows : {16u, 64u, 256u, 1024u, 4096u}) {
    rows.push_back(run_ablation(flows));
    const AblationRow& r = rows.back();
    std::printf("%6zu  %14.1f %14.1f %8.1fx %6zu\n", r.flows, r.linear_ns,
                r.tuple_space_ns, r.linear_ns / r.tuple_space_ns, r.masks);
  }
  write_json(rows);
  std::printf("\ncurves written to BENCH_flowtable.json\n");
  return 0;
}
