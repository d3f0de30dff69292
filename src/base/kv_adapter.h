// KvAdapter: the smallest useful ServiceAdapter — a reference implementation
// of the conformance-wrapper contract and the service used by the protocol
// tests and the quickstart example.
//
// Abstract state: a fixed-size array of byte-string slots, all empty at
// start. Only non-empty slots are stored (a missing slot reads as empty), so
// memory follows the slots written, not the array. Operations:
//   SET <slot> <value>    -> "OK"
//   GET <slot>            -> value
//   APPEND <slot> <value> -> "OK"   (exercises read-modify-write)
//
// There is no concrete/abstract distinction to hide here (the concrete state
// IS the abstract state), which is exactly why it is the right smoke-test
// for the library plumbing: any disagreement between replicas is a protocol
// bug, not a wrapper bug.
#ifndef SRC_BASE_KV_ADAPTER_H_
#define SRC_BASE_KV_ADAPTER_H_

#include <unordered_map>
#include <vector>

#include "src/base/adapter.h"
#include "src/sim/simulation.h"

namespace bftbase {

class KvAdapter : public ServiceAdapter {
 public:
  // `execute_cost_us`: modeled CPU cost per operation (virtual time).
  KvAdapter(Simulation* sim, size_t slots, SimTime execute_cost_us = 20);

  Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                bool tentative) override;
  Bytes GetObj(size_t index) override;
  size_t RunLength(size_t index) override;
  void PutObjs(const std::vector<ObjectUpdate>& objs) override;
  size_t ObjectCount() const override { return slot_count_; }
  void RestartClean() override;

  // --- Operation encoding (client side) --------------------------------------
  static Bytes EncodeSet(uint32_t slot, BytesView value);
  static Bytes EncodeGet(uint32_t slot);
  static Bytes EncodeAppend(uint32_t slot, BytesView value);

  // Test hooks: silently corrupts a slot's concrete value (models a software
  // bug / malicious tampering below the wrapper).
  void CorruptSlot(size_t index, uint8_t xor_mask = 0xff);
  uint64_t executions() const { return executions_; }

 private:
  enum OpCode : uint8_t { kSet = 1, kGet = 2, kAppend = 3 };

  // Stores `value` in slot `index`; an empty value drops the entry.
  void Store(size_t index, Bytes value);

  Simulation* sim_;
  SimTime execute_cost_us_;
  size_t slot_count_;
  std::unordered_map<size_t, Bytes> slots_;  // non-empty slots only
  uint64_t executions_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BASE_KV_ADAPTER_H_
