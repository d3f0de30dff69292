#include "src/oodb/oodb_spec.h"

#include "src/util/codec.h"

namespace bftbase {

namespace {

constexpr size_t kMaxFields = 1 << 16;

Status Malformed(const char* what) {
  return InvalidArgument(std::string("malformed ") + what);
}

// True iff `name` sorts after every name already in `fields`. The maps are
// name-sorted on the wire, so a name out of order or repeated would give
// one object a second encoding.
template <typename Map>
bool SortsLast(const Map& fields, const std::string& name) {
  return fields.empty() || fields.rbegin()->first < name;
}

}  // namespace

bool IsReadOnlyDbProc(DbProc proc) {
  switch (proc) {
    case DbProc::kGetScalar:
    case DbProc::kGetString:
    case DbProc::kGetRefs:
    case DbProc::kTraverse:
    case DbProc::kScan:
    case DbProc::kCount:
      return true;
    default:
      return false;
  }
}

Bytes DbCall::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(proc));
  enc.PutU64(oid);
  enc.PutU64(target);
  enc.PutString(field);
  enc.PutString(klass);
  enc.PutI64(value);
  enc.PutString(text);
  enc.PutU32(depth);
  return enc.Take();
}

Result<DbCall> DbCall::Decode(BytesView bytes) {
  Decoder dec(bytes);
  DbCall call;
  uint8_t proc_raw = dec.GetU8();
  if (proc_raw < static_cast<uint8_t>(DbProc::kCreate) ||
      proc_raw > static_cast<uint8_t>(DbProc::kCount)) {
    return Malformed("db procedure");
  }
  call.proc = static_cast<DbProc>(proc_raw);
  call.oid = dec.GetU64();
  call.target = dec.GetU64();
  call.field = dec.GetString();
  call.klass = dec.GetString();
  call.value = dec.GetI64();
  call.text = dec.GetString();
  call.depth = dec.GetU32();
  if (!dec.AtEnd()) {
    return Malformed("db call");
  }
  return call;
}

Bytes DbReply::Encode() const {
  Encoder enc;
  enc.PutU32(status);
  enc.PutU64(oid);
  enc.PutI64(value);
  enc.PutU64(visited);
  enc.PutString(text);
  enc.PutU32(static_cast<uint32_t>(oids.size()));
  for (Oid o : oids) {
    enc.PutU64(o);
  }
  return enc.Take();
}

Result<DbReply> DbReply::Decode(BytesView bytes) {
  Decoder dec(bytes);
  DbReply reply;
  reply.status = dec.GetU32();
  if (reply.status > 2) {
    return Malformed("db reply status");
  }
  reply.oid = dec.GetU64();
  reply.value = dec.GetI64();
  reply.visited = dec.GetU64();
  reply.text = dec.GetString();
  const uint32_t count = dec.GetU32();
  if (count > dec.remaining() / 8) {
    return Malformed("db reply");
  }
  reply.oids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    reply.oids.push_back(dec.GetU64());
  }
  if (!dec.AtEnd()) {
    return Malformed("db reply");
  }
  return reply;
}

Bytes AbstractDbObject::Encode() const {
  Encoder enc;
  enc.PutU32(generation);
  enc.PutBool(live);
  if (!live) {
    return enc.Take();
  }
  enc.PutString(klass);
  enc.PutU32(static_cast<uint32_t>(scalars.size()));
  for (const auto& [name, value] : scalars) {
    enc.PutString(name);
    enc.PutI64(value);
  }
  enc.PutU32(static_cast<uint32_t>(strings.size()));
  for (const auto& [name, value] : strings) {
    enc.PutString(name);
    enc.PutString(value);
  }
  enc.PutU32(static_cast<uint32_t>(refs.size()));
  for (const auto& [name, targets] : refs) {
    enc.PutString(name);
    enc.PutU32(static_cast<uint32_t>(targets.size()));
    for (Oid target : targets) {
      enc.PutU64(target);
    }
  }
  return enc.Take();
}

Result<AbstractDbObject> AbstractDbObject::Decode(BytesView bytes) {
  Decoder dec(bytes);
  AbstractDbObject obj;
  obj.generation = dec.GetU32();
  obj.live = dec.GetBool();
  if (!obj.live) {
    if (!dec.AtEnd()) {
      return Malformed("dead db object");
    }
    return obj;
  }
  obj.klass = dec.GetString();
  uint32_t scalar_count = dec.GetU32();
  if (scalar_count > kMaxFields) {
    return Malformed("db object scalars");
  }
  for (uint32_t i = 0; i < scalar_count; ++i) {
    std::string name = dec.GetString();
    if (!SortsLast(obj.scalars, name)) {
      return Malformed("db object scalars");
    }
    obj.scalars.emplace_hint(obj.scalars.end(), std::move(name), dec.GetI64());
  }
  uint32_t string_count = dec.GetU32();
  if (string_count > kMaxFields) {
    return Malformed("db object strings");
  }
  for (uint32_t i = 0; i < string_count; ++i) {
    std::string name = dec.GetString();
    if (!SortsLast(obj.strings, name)) {
      return Malformed("db object strings");
    }
    obj.strings.emplace_hint(obj.strings.end(), std::move(name),
                             dec.GetString());
  }
  uint32_t ref_count = dec.GetU32();
  if (ref_count > kMaxFields) {
    return Malformed("db object refs");
  }
  for (uint32_t i = 0; i < ref_count; ++i) {
    std::string name = dec.GetString();
    if (!SortsLast(obj.refs, name)) {
      return Malformed("db object refs");
    }
    const uint32_t target_count = dec.GetU32();
    if (target_count > dec.remaining() / 8) {
      return Malformed("db object ref list");
    }
    std::vector<Oid> targets;
    targets.reserve(target_count);
    for (uint32_t t = 0; t < target_count; ++t) {
      targets.push_back(dec.GetU64());
    }
    obj.refs.emplace_hint(obj.refs.end(), std::move(name),
                          std::move(targets));
  }
  if (!dec.AtEnd()) {
    return Malformed("db object");
  }
  return obj;
}

}  // namespace bftbase
