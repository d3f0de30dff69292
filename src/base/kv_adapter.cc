#include "src/base/kv_adapter.h"

#include "src/util/codec.h"

namespace bftbase {

KvAdapter::KvAdapter(Simulation* sim, size_t slots, SimTime execute_cost_us)
    : sim_(sim), execute_cost_us_(execute_cost_us), slots_(slots) {}

Bytes KvAdapter::EncodeSet(uint32_t slot, BytesView value) {
  Encoder enc;
  enc.PutU8(kSet);
  enc.PutU32(slot);
  enc.PutBytes(value);
  return enc.Take();
}

Bytes KvAdapter::EncodeGet(uint32_t slot) {
  Encoder enc;
  enc.PutU8(kGet);
  enc.PutU32(slot);
  return enc.Take();
}

Bytes KvAdapter::EncodeAppend(uint32_t slot, BytesView value) {
  Encoder enc;
  enc.PutU8(kAppend);
  enc.PutU32(slot);
  enc.PutBytes(value);
  return enc.Take();
}

Bytes KvAdapter::Execute(BytesView op, NodeId /*client*/, BytesView /*nondet*/,
                         bool tentative) {
  sim_->ChargeCpu(execute_cost_us_);
  ++executions_;
  Decoder dec(op);
  uint8_t code = dec.GetU8();
  uint32_t slot = dec.GetU32();
  if (!dec.ok() || slot >= slots_.size()) {
    return ToBytes("ERR bad-op");
  }
  switch (code) {
    case kSet: {
      Bytes value = dec.GetBytes();
      if (!dec.AtEnd() || tentative) {
        return ToBytes(tentative ? "ERR read-only" : "ERR bad-op");
      }
      NotifyModify(slot);
      slots_[slot] = std::move(value);
      return ToBytes("OK");
    }
    case kGet: {
      if (!dec.AtEnd()) {
        return ToBytes("ERR bad-op");
      }
      return slots_[slot];
    }
    case kAppend: {
      Bytes value = dec.GetBytes();
      if (!dec.AtEnd() || tentative) {
        return ToBytes(tentative ? "ERR read-only" : "ERR bad-op");
      }
      NotifyModify(slot);
      Append(slots_[slot], value);
      return ToBytes("OK");
    }
    default:
      return ToBytes("ERR bad-op");
  }
}

Bytes KvAdapter::GetObj(size_t index) {
  if (index >= slots_.size()) {
    return Bytes();
  }
  return slots_[index];
}

void KvAdapter::PutObjs(const std::vector<ObjectUpdate>& objs) {
  for (const ObjectUpdate& update : objs) {
    if (update.index < slots_.size()) {
      slots_[update.index] = update.value;
    }
  }
}

void KvAdapter::RestartClean() {
  size_t n = slots_.size();
  slots_.assign(n, Bytes());
}

void KvAdapter::CorruptSlot(size_t index, uint8_t xor_mask) {
  if (index < slots_.size()) {
    if (slots_[index].empty()) {
      slots_[index].push_back(xor_mask);
    } else {
      for (uint8_t& b : slots_[index]) {
        b ^= xor_mask;
      }
    }
  }
}

}  // namespace bftbase
