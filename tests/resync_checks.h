// Checks of ServiceAdapter::RunLength, shared by the checkpoint-manager and
// conformance-wrapper tests: every run an adapter reports holds one value,
// and a FullResync that walks the adapter's runs computes and charges
// exactly what the walk object by object does. That second walk is what a
// decorator keeping the default RunLength gets (a timing wrapper, say), so
// the two must agree on the state, the virtual time and the real hashing.
#ifndef TESTS_RESYNC_CHECKS_H_
#define TESTS_RESYNC_CHECKS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/adapter.h"
#include "src/base/checkpoint_manager.h"
#include "src/sim/simulation.h"
#include "src/util/hotpath.h"

namespace bftbase {

// Forwards every call to `inner` but keeps the default RunLength of 1.
class PerObjectAdapter : public ServiceAdapter {
 public:
  explicit PerObjectAdapter(ServiceAdapter* inner) : inner_(inner) {}

  Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                bool tentative) override {
    return inner_->Execute(op, client, nondet, tentative);
  }
  Bytes GetObj(size_t index) override { return inner_->GetObj(index); }
  void PutObjs(const std::vector<ObjectUpdate>& objs) override {
    inner_->PutObjs(objs);
  }
  size_t ObjectCount() const override { return inner_->ObjectCount(); }
  void RestartClean() override { inner_->RestartClean(); }

 private:
  ServiceAdapter* inner_;
};

// The run reported from every index stays inside the array and holds
// GetObj(index)'s value throughout.
inline void ExpectRunsHoldOneValue(ServiceAdapter& adapter,
                                   const std::string& where) {
  const size_t count = adapter.ObjectCount();
  for (size_t index = 0; index < count; ++index) {
    const size_t length = adapter.RunLength(index);
    ASSERT_GE(length, 1u) << where << ": object " << index;
    ASSERT_LE(length, count - index) << where << ": object " << index;
    const Bytes value = adapter.GetObj(index);
    for (size_t i = index + 1; i < index + length; ++i) {
      ASSERT_EQ(HexEncode(adapter.GetObj(i)), HexEncode(value))
          << where << ": object " << i << " in the run of " << length
          << " from " << index;
    }
  }
}

// What one FullResync computed, charged and hashed.
struct ResyncFigures {
  Digest root;
  size_t overrides = 0;
  SimTime cpu = 0;
  uint64_t sha256_invocations = 0;
  uint64_t bytes_hashed = 0;
  uint64_t nodes_rehashed = 0;
};

inline ResyncFigures MeasureResync(Simulation& sim, ServiceAdapter& adapter,
                                   const Bytes& protocol_state) {
  CheckpointManager cm(&sim, &adapter);
  const hotpath::Counters before = hotpath::counters();
  const SimTime start = sim.CurrentHandlerFinishTime();
  cm.FullResync(/*seq=*/1, protocol_state);
  const hotpath::Counters& after = hotpath::counters();
  ResyncFigures figures;
  figures.root = cm.latest_root();
  figures.overrides = cm.tree().override_count();
  figures.cpu = sim.CurrentHandlerFinishTime() - start;
  figures.sha256_invocations =
      after.sha256_invocations - before.sha256_invocations;
  figures.bytes_hashed = after.bytes_hashed - before.bytes_hashed;
  figures.nodes_rehashed =
      after.tree_nodes_rehashed - before.tree_nodes_rehashed;
  return figures;
}

// A FullResync over `adapter`'s runs matches one object by object.
inline void ExpectResyncMatchesPerObjectWalk(Simulation& sim,
                                             ServiceAdapter& adapter,
                                             const Bytes& protocol_state,
                                             const std::string& where) {
  PerObjectAdapter per_object(&adapter);
  const ResyncFigures runs = MeasureResync(sim, adapter, protocol_state);
  const ResyncFigures objects = MeasureResync(sim, per_object, protocol_state);
  EXPECT_EQ(runs.root, objects.root) << where;
  EXPECT_EQ(runs.overrides, objects.overrides) << where;
  EXPECT_EQ(runs.cpu, objects.cpu) << where;
  EXPECT_EQ(runs.sha256_invocations, objects.sha256_invocations) << where;
  EXPECT_EQ(runs.bytes_hashed, objects.bytes_hashed) << where;
  EXPECT_EQ(runs.nodes_rehashed, objects.nodes_rehashed) << where;
}

}  // namespace bftbase

#endif  // TESTS_RESYNC_CHECKS_H_
