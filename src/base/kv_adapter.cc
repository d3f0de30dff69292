#include "src/base/kv_adapter.h"

#include "src/util/codec.h"

namespace bftbase {

KvAdapter::KvAdapter(Simulation* sim, size_t slots, SimTime execute_cost_us)
    : sim_(sim), execute_cost_us_(execute_cost_us), slot_count_(slots) {}

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
  if (!dec.ok() || slot >= slot_count_) {
    return ToBytes("ERR bad-op");
  }
  switch (code) {
    case kSet: {
      Bytes value = dec.GetBytes();
      if (!dec.AtEnd() || tentative) {
        return ToBytes(tentative ? "ERR read-only" : "ERR bad-op");
      }
      NotifyModify(slot);
      Store(slot, std::move(value));
      return ToBytes("OK");
    }
    case kGet: {
      if (!dec.AtEnd()) {
        return ToBytes("ERR bad-op");
      }
      return GetObj(slot);
    }
    case kAppend: {
      Bytes value = dec.GetBytes();
      if (!dec.AtEnd() || tentative) {
        return ToBytes(tentative ? "ERR read-only" : "ERR bad-op");
      }
      NotifyModify(slot);
      if (!value.empty()) {
        Append(slots_[slot], value);
      }
      return ToBytes("OK");
    }
    default:
      return ToBytes("ERR bad-op");
  }
}

void KvAdapter::Store(size_t index, Bytes value) {
  if (value.empty()) {
    slots_.erase(index);
  } else {
    slots_[index] = std::move(value);
  }
}

Bytes KvAdapter::GetObj(size_t index) {
  auto it = slots_.find(index);
  return it == slots_.end() ? Bytes() : it->second;
}

size_t KvAdapter::RunLength(size_t index) {
  // The cold walks (a replica's construction, a restart after RestartClean)
  // see no stored slot: the whole array is one run of empty slots. Any
  // other state walks slot by slot.
  return index < slot_count_ && slots_.empty() ? slot_count_ - index : 1;
}

void KvAdapter::PutObjs(const std::vector<ObjectUpdate>& objs) {
  for (const ObjectUpdate& update : objs) {
    if (update.index < slot_count_) {
      Store(update.index, update.value);
    }
  }
}

void KvAdapter::RestartClean() { slots_.clear(); }

void KvAdapter::CorruptSlot(size_t index, uint8_t xor_mask) {
  if (index < slot_count_) {
    Bytes& value = slots_[index];
    if (value.empty()) {
      value.push_back(xor_mask);
    } else {
      for (uint8_t& b : value) {
        b ^= xor_mask;
      }
    }
  }
}

}  // namespace bftbase
