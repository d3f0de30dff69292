// Plumbing for ReplicaService checkpoints driven outside a replica, shared
// by the tests and bench_recovery: a checkpoint reports its root only after
// its digest work has run on the replica's idle lane (which is also when its
// pages persist and the WAL is cut), so a caller that wants the root now runs
// the simulation until the lane job has reported it.
#ifndef TESTS_CHECKPOINT_HELPERS_H_
#define TESTS_CHECKPOINT_HELPERS_H_

#include <optional>

#include "src/base/replica_service.h"
#include "src/sim/simulation.h"

namespace bftbase {

inline Digest TakeCheckpointNow(Simulation& sim, ReplicaService& service,
                                SeqNum seq) {
  std::optional<Digest> root;
  service.TakeCheckpoint(seq, [&root](const Digest& digest) { root = digest; });
  sim.RunUntilTrue([&root] { return root.has_value(); },
                   Simulation::kNoPendingEvent);
  return root.value_or(Digest());
}

}  // namespace bftbase

#endif  // TESTS_CHECKPOINT_HELPERS_H_
