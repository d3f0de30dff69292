#include "src/sim/topology.h"

#include <algorithm>
#include <cmath>

namespace bftbase {

SimTime Topology::OneWayUs(NodeId from, NodeId to) const {
  const int rf = RegionOf(from);
  const int rt = RegionOf(to);
  if (rf == rt) {
    return 0;
  }
  if (rf >= static_cast<int>(latency_us.size()) ||
      rt >= static_cast<int>(latency_us[rf].size())) {
    return 0;
  }
  return latency_us[rf][rt];
}

SimTime Topology::MaxRttUs() const {
  SimTime max_rtt = 0;
  const int n = static_cast<int>(latency_us.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n && j < static_cast<int>(latency_us[i].size());
         ++j) {
      if (i < static_cast<int>(latency_us[j].size())) {
        max_rtt = std::max(max_rtt, latency_us[i][j] + latency_us[j][i]);
      }
    }
  }
  return max_rtt;
}

namespace {

Topology MakeLan() {
  Topology t;
  t.name = "lan";
  t.regions = 1;
  return t;
}

// US-east / EU-west / AP-south triangle. One-way latencies are asymmetric
// (return routes differ) and add up to RTTs of 100 ms (us<->eu), 164 ms
// (us<->ap) and 156 ms (eu<->ap) — max RTT 164 ms, so a write commit
// (request + pre-prepare/prepare/commit + reply across regions) far exceeds
// the seed repo's 300 ms LAN retry constant. That gap is what the client
// retransmission regression pins.
Topology Make3Region() {
  Topology t;
  t.name = "3-region";
  t.regions = 3;
  t.latency_us = {
      {0, 48000, 80000},
      {52000, 0, 76000},
      {84000, 80000, 0},
  };
  // Intra-region: log-normal around exp(3.912) ~= 50 us with sigma 0.6
  // (occasional ~ms microburst), capped at 5 ms.
  t.intra_jitter = JitterSpec::LogNormal(3.912, 0.6, 5 * kMillisecond);
  // Inter-region: Pareto tail, typical draw a few hundred us, rare tens of
  // ms, capped at 30 ms (still well under every derived timeout).
  t.inter_jitter = JitterSpec::Pareto(150.0, 1.5, 30 * kMillisecond);
  return t;
}

// Five regions spanning 36–165 ms one-way; max RTT 325 ms (regions 2<->4).
Topology Make5RegionWan() {
  Topology t;
  t.name = "5-region-wan";
  t.regions = 5;
  t.latency_us = {
      {0, 36000, 72000, 95000, 120000},
      {40000, 0, 52000, 78000, 140000},
      {76000, 48000, 0, 44000, 165000},
      {99000, 82000, 46000, 0, 60000},
      {128000, 148000, 160000, 64000, 0},
  };
  t.intra_jitter = JitterSpec::LogNormal(3.912, 0.6, 5 * kMillisecond);
  // Heavier tail than 3-region (smaller alpha, larger scale): the preset
  // that exposes the primary-quality monitor's LAN-tuned threshold.
  t.inter_jitter = JitterSpec::Pareto(300.0, 1.3, 60 * kMillisecond);
  return t;
}

}  // namespace

bool TopologyFromName(const std::string& name, Topology* out) {
  if (name == "lan") {
    *out = MakeLan();
    return true;
  }
  if (name == "3-region") {
    *out = Make3Region();
    return true;
  }
  if (name == "5-region-wan") {
    *out = Make5RegionWan();
    return true;
  }
  return false;
}

std::vector<std::string> KnownTopologyNames() {
  return {"lan", "3-region", "5-region-wan"};
}

void ApplyTopology(Network& net, const Topology& topo, int node_count) {
  if (topo.regions <= 1) {
    return;  // lan: nothing to arm; traces stay byte-identical.
  }
  for (NodeId a = 0; a < node_count; ++a) {
    for (NodeId b = a + 1; b < node_count; ++b) {
      net.AddDelay(a, b, topo.OneWayUs(a, b));
      net.AddDelay(b, a, topo.OneWayUs(b, a));
      net.SetLinkJitter(a, b,
                        topo.RegionOf(a) == topo.RegionOf(b)
                            ? topo.intra_jitter
                            : topo.inter_jitter);
    }
  }
}

}  // namespace bftbase
