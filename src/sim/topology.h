// Named geo-distribution presets for the simulated network.
//
// The paper's testbed is a single LAN; every protocol constant in the seed
// repo (client retry timeout, view-change timeout, the primary-quality
// threshold) was calibrated against that. A topology preset models a WAN
// deployment instead: nodes are assigned round-robin to regions, and an
// asymmetric inter-region one-way latency matrix plus heavy-tailed per-link
// jitter are written into the Network's directed link table (AddDelay for
// each one-way delay, SetLinkJitter for the tail). All jitter draws come
// from the simulation's seeded RNG, so a (preset, seed) pair is bit-for-bit
// reproducible.
//
// Presets:
//   "lan"          — 1 region, zero matrix, no levers armed. Byte-identical
//                    event traces to a run with no topology at all.
//   "3-region"     — US-east / EU / AP-south triangle, 48–84 ms one-way,
//                    Pareto inter-region tails. Max RTT 164 ms.
//   "5-region-wan" — 5 regions, 36–165 ms one-way, heavier Pareto tails.
//                    Max RTT 325 ms.
#ifndef SRC_SIM_TOPOLOGY_H_
#define SRC_SIM_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/sim/network.h"

namespace bftbase {

struct Topology {
  std::string name;
  int regions = 1;
  // One-way inter-region latency in microseconds, latency_us[from][to].
  // Asymmetric on purpose (real WAN routes are), zero on the diagonal.
  // Empty (or all-zero) means no extra delay is programmed.
  std::vector<std::vector<SimTime>> latency_us;
  // Per-link jitter models: intra-region links see short log-normal
  // microbursts, inter-region links see Pareto congestion tails.
  JitterSpec intra_jitter = JitterSpec::None();
  JitterSpec inter_jitter = JitterSpec::None();

  // Region assignment: round-robin, so any contiguous id range (replicas
  // first, then clients) spreads across regions.
  int RegionOf(NodeId node) const {
    return regions <= 1 ? 0 : static_cast<int>(node % regions);
  }
  // One-way delay between the regions of two nodes (0 for same region or
  // when no matrix is set).
  SimTime OneWayUs(NodeId from, NodeId to) const;
  // Largest round trip between any two regions: the figure RTT-derived
  // protocol timeouts (Config::network_rtt_us) should be seeded with.
  SimTime MaxRttUs() const;
};

// Looks up a preset by name ("lan", "3-region", "5-region-wan"). Returns
// false (and leaves *out untouched) for unknown names.
bool TopologyFromName(const std::string& name, Topology* out);
// Names accepted by TopologyFromName, for CLI help and sweep loops.
std::vector<std::string> KnownTopologyNames();

// Programs the preset onto a fresh network for nodes [0, node_count): every
// directed link from -> to gets OneWayUs(from, to) as its delay and the
// pair's jitter model. Delay faults add to these entries and take back what
// they added, so once every fault has healed Network::Delay(from, to) equals
// OneWayUs(from, to) again. A "lan" (single-region) topology arms nothing.
void ApplyTopology(Network& net, const Topology& topo, int node_count);

}  // namespace bftbase

#endif  // SRC_SIM_TOPOLOGY_H_
