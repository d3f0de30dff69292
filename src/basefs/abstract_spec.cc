#include "src/basefs/abstract_spec.h"

#include <algorithm>

#include "src/util/xdr.h"

namespace bftbase {

namespace {

// A directory entry on the wire: a u32 name length, the padded name and a
// u64 oid.
constexpr size_t kMinDirEntryBytes = 4 + 8;

Status Malformed(const char* what) {
  return InvalidArgument(std::string("malformed ") + what);
}

void EncodeSetAttrsTo(XdrWriter& writer, const SetAttrs& attrs) {
  writer.PutUint32(attrs.mode);
  writer.PutUint32(attrs.uid);
  writer.PutUint32(attrs.gid);
  writer.PutUint64(attrs.size);
}

SetAttrs DecodeSetAttrsFrom(XdrReader& reader) {
  SetAttrs attrs;
  attrs.mode = reader.GetUint32();
  attrs.uid = reader.GetUint32();
  attrs.gid = reader.GetUint32();
  attrs.size = reader.GetUint64();
  return attrs;
}

}  // namespace

const char* NfsProcName(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
      return "NULL";
    case NfsProc::kGetAttr:
      return "GETATTR";
    case NfsProc::kSetAttr:
      return "SETATTR";
    case NfsProc::kLookup:
      return "LOOKUP";
    case NfsProc::kReadlink:
      return "READLINK";
    case NfsProc::kRead:
      return "READ";
    case NfsProc::kWrite:
      return "WRITE";
    case NfsProc::kCreate:
      return "CREATE";
    case NfsProc::kRemove:
      return "REMOVE";
    case NfsProc::kRename:
      return "RENAME";
    case NfsProc::kSymlink:
      return "SYMLINK";
    case NfsProc::kMkdir:
      return "MKDIR";
    case NfsProc::kRmdir:
      return "RMDIR";
    case NfsProc::kReaddir:
      return "READDIR";
    case NfsProc::kStatfs:
      return "STATFS";
  }
  return "UNKNOWN";
}

bool IsReadOnlyProc(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
    case NfsProc::kGetAttr:
    case NfsProc::kLookup:
    case NfsProc::kReadlink:
    case NfsProc::kRead:
    case NfsProc::kReaddir:
    case NfsProc::kStatfs:
      return true;
    default:
      return false;
  }
}

void EncodeFattrTo(XdrWriter& writer, const Fattr& attr) {
  writer.PutUint32(static_cast<uint32_t>(attr.type));
  writer.PutUint32(attr.mode);
  writer.PutUint32(attr.nlink);
  writer.PutUint32(attr.uid);
  writer.PutUint32(attr.gid);
  writer.PutUint64(attr.size);
  writer.PutUint32(attr.blocksize);
  writer.PutUint64(attr.blocks);
  writer.PutUint64(attr.fsid);
  writer.PutUint64(attr.fileid);
  writer.PutInt64(attr.atime_us);
  writer.PutInt64(attr.mtime_us);
  writer.PutInt64(attr.ctime_us);
}

Fattr DecodeFattrFrom(XdrReader& reader) {
  Fattr attr;
  attr.type = static_cast<FileType>(reader.GetUint32());
  attr.mode = reader.GetUint32();
  attr.nlink = reader.GetUint32();
  attr.uid = reader.GetUint32();
  attr.gid = reader.GetUint32();
  attr.size = reader.GetUint64();
  attr.blocksize = reader.GetUint32();
  attr.blocks = reader.GetUint64();
  attr.fsid = reader.GetUint64();
  attr.fileid = reader.GetUint64();
  attr.atime_us = reader.GetInt64();
  attr.mtime_us = reader.GetInt64();
  attr.ctime_us = reader.GetInt64();
  return attr;
}

// ------------------------------------------------------------------- calls

Bytes NfsCall::Encode() const {
  XdrWriter w;
  w.PutUint32(static_cast<uint32_t>(proc));
  switch (proc) {
    case NfsProc::kNull:
      break;
    case NfsProc::kGetAttr:
    case NfsProc::kReadlink:
    case NfsProc::kReaddir:
      w.PutUint64(oid);
      break;
    case NfsProc::kStatfs:
      break;
    case NfsProc::kSetAttr:
      w.PutUint64(oid);
      EncodeSetAttrsTo(w, attrs);
      break;
    case NfsProc::kLookup:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
      w.PutUint64(oid);
      w.PutString(name);
      break;
    case NfsProc::kRead:
      w.PutUint64(oid);
      w.PutUint64(offset);
      w.PutUint32(count);
      break;
    case NfsProc::kWrite:
      w.PutUint64(oid);
      w.PutUint64(offset);
      w.PutOpaque(data);
      break;
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
      w.PutUint64(oid);
      w.PutString(name);
      EncodeSetAttrsTo(w, attrs);
      break;
    case NfsProc::kSymlink:
      w.PutUint64(oid);
      w.PutString(name);
      w.PutString(target);
      EncodeSetAttrsTo(w, attrs);
      break;
    case NfsProc::kRename:
      w.PutUint64(oid);
      w.PutString(name);
      w.PutUint64(oid2);
      w.PutString(name2);
      break;
  }
  return w.Take();
}

Result<NfsCall> NfsCall::Decode(BytesView bytes) {
  XdrReader r(bytes);
  NfsCall call;
  uint32_t proc_raw = r.GetUint32();
  switch (proc_raw) {
    case 0:
    case 1:
    case 2:
    case 4:
    case 5:
    case 6:
    case 8:
    case 9:
    case 10:
    case 11:
    case 13:
    case 14:
    case 15:
    case 16:
    case 17:
      call.proc = static_cast<NfsProc>(proc_raw);
      break;
    default:
      return Malformed("NFS procedure");
  }
  switch (call.proc) {
    case NfsProc::kNull:
    case NfsProc::kStatfs:
      break;
    case NfsProc::kGetAttr:
    case NfsProc::kReadlink:
    case NfsProc::kReaddir:
      call.oid = r.GetUint64();
      break;
    case NfsProc::kSetAttr:
      call.oid = r.GetUint64();
      call.attrs = DecodeSetAttrsFrom(r);
      break;
    case NfsProc::kLookup:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
      call.oid = r.GetUint64();
      call.name = r.GetString();
      break;
    case NfsProc::kRead:
      call.oid = r.GetUint64();
      call.offset = r.GetUint64();
      call.count = r.GetUint32();
      break;
    case NfsProc::kWrite:
      call.oid = r.GetUint64();
      call.offset = r.GetUint64();
      call.data = r.GetOpaque();
      break;
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
      call.oid = r.GetUint64();
      call.name = r.GetString();
      call.attrs = DecodeSetAttrsFrom(r);
      break;
    case NfsProc::kSymlink:
      call.oid = r.GetUint64();
      call.name = r.GetString();
      call.target = r.GetString();
      call.attrs = DecodeSetAttrsFrom(r);
      break;
    case NfsProc::kRename:
      call.oid = r.GetUint64();
      call.name = r.GetString();
      call.oid2 = r.GetUint64();
      call.name2 = r.GetString();
      break;
  }
  if (!r.AtEnd()) {
    return Malformed("NFS call");
  }
  return call;
}

// ------------------------------------------------------------------ replies

Bytes NfsReply::Encode(NfsProc proc) const {
  XdrWriter w;
  w.PutUint32(static_cast<uint32_t>(stat));
  if (stat != NfsStat::kOk) {
    return w.Take();
  }
  switch (proc) {
    case NfsProc::kNull:
      break;
    case NfsProc::kGetAttr:
    case NfsProc::kSetAttr:
    case NfsProc::kWrite:
      EncodeFattrTo(w, attr);
      break;
    case NfsProc::kLookup:
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
      w.PutUint64(oid);
      EncodeFattrTo(w, attr);
      break;
    case NfsProc::kRead:
      EncodeFattrTo(w, attr);
      w.PutOpaque(data);
      break;
    case NfsProc::kReadlink:
      w.PutString(target);
      break;
    case NfsProc::kRemove:
    case NfsProc::kRename:
    case NfsProc::kRmdir:
      break;
    case NfsProc::kReaddir:
      w.PutUint32(static_cast<uint32_t>(entries.size()));
      for (const auto& [name, entry_oid] : entries) {
        w.PutString(name);
        w.PutUint64(entry_oid);
      }
      break;
    case NfsProc::kStatfs:
      w.PutUint32(block_size);
      w.PutUint64(total_blocks);
      w.PutUint64(free_blocks);
      break;
  }
  return w.Take();
}

Result<NfsReply> NfsReply::Decode(NfsProc proc, BytesView bytes) {
  XdrReader r(bytes);
  NfsReply reply;
  reply.stat = static_cast<NfsStat>(r.GetUint32());
  if (!r.ok()) {
    return Malformed("NFS reply status");
  }
  if (reply.stat != NfsStat::kOk) {
    return reply;
  }
  switch (proc) {
    case NfsProc::kNull:
      break;
    case NfsProc::kGetAttr:
    case NfsProc::kSetAttr:
    case NfsProc::kWrite:
      reply.attr = DecodeFattrFrom(r);
      break;
    case NfsProc::kLookup:
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
      reply.oid = r.GetUint64();
      reply.attr = DecodeFattrFrom(r);
      break;
    case NfsProc::kRead:
      reply.attr = DecodeFattrFrom(r);
      reply.data = r.GetOpaque();
      break;
    case NfsProc::kReadlink:
      reply.target = r.GetString();
      break;
    case NfsProc::kRemove:
    case NfsProc::kRename:
    case NfsProc::kRmdir:
      break;
    case NfsProc::kReaddir: {
      uint32_t count = r.GetUint32();
      if (count > r.remaining() / kMinDirEntryBytes) {
        return Malformed("READDIR count");
      }
      reply.entries.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        std::string name = r.GetString();
        Oid entry_oid = r.GetUint64();
        reply.entries.emplace_back(std::move(name), entry_oid);
      }
      break;
    }
    case NfsProc::kStatfs:
      reply.block_size = r.GetUint32();
      reply.total_blocks = r.GetUint64();
      reply.free_blocks = r.GetUint64();
      break;
  }
  if (!r.AtEnd()) {
    return Malformed("NFS reply");
  }
  return reply;
}

// ----------------------------------------------------------- state objects

Bytes AbstractFsObject::Encode() const {
  XdrWriter w;
  w.PutUint32(generation);
  w.PutUint32(static_cast<uint32_t>(type));
  if (type == FileType::kNone) {
    return w.Take();
  }
  w.PutUint32(mode);
  w.PutUint32(uid);
  w.PutUint32(gid);
  w.PutInt64(mtime_us);
  w.PutInt64(ctime_us);
  switch (type) {
    case FileType::kRegular:
      w.PutOpaque(file_data);
      break;
    case FileType::kSymlink:
      w.PutString(symlink_target);
      break;
    case FileType::kDirectory:
      w.PutUint32(static_cast<uint32_t>(dir_entries.size()));
      for (const auto& [name, entry_oid] : dir_entries) {
        w.PutString(name);
        w.PutUint64(entry_oid);
      }
      break;
    case FileType::kNone:
      break;
  }
  return w.Take();
}

Result<AbstractFsObject> AbstractFsObject::Decode(BytesView bytes) {
  XdrReader r(bytes);
  AbstractFsObject obj;
  obj.generation = r.GetUint32();
  uint32_t type_raw = r.GetUint32();
  switch (type_raw) {
    case 0:
      obj.type = FileType::kNone;
      break;
    case 1:
      obj.type = FileType::kRegular;
      break;
    case 2:
      obj.type = FileType::kDirectory;
      break;
    case 5:
      obj.type = FileType::kSymlink;
      break;
    default:
      return Malformed("abstract object type");
  }
  if (obj.type == FileType::kNone) {
    if (!r.AtEnd()) {
      return Malformed("abstract null object");
    }
    return obj;
  }
  obj.mode = r.GetUint32();
  obj.uid = r.GetUint32();
  obj.gid = r.GetUint32();
  obj.mtime_us = r.GetInt64();
  obj.ctime_us = r.GetInt64();
  switch (obj.type) {
    case FileType::kRegular:
      obj.file_data = r.GetOpaque();
      break;
    case FileType::kSymlink:
      obj.symlink_target = r.GetString();
      break;
    case FileType::kDirectory: {
      // A count the remaining bytes cannot hold is malformed; checking it
      // before reserving keeps the entries' memory in proportion to the
      // input.
      uint32_t count = r.GetUint32();
      if (count > r.remaining() / kMinDirEntryBytes) {
        return Malformed("abstract directory");
      }
      obj.dir_entries.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        std::string name = r.GetString();
        Oid entry_oid = r.GetUint64();
        obj.dir_entries.emplace_back(std::move(name), entry_oid);
      }
      break;
    }
    case FileType::kNone:
      break;
  }
  if (!r.AtEnd()) {
    return Malformed("abstract object");
  }
  return obj;
}

Fattr AbstractFsObject::DerivedAttr(Oid oid) const {
  Fattr attr;
  attr.type = type;
  attr.mode = mode;
  attr.uid = uid;
  attr.gid = gid;
  attr.nlink = type == FileType::kDirectory ? 2 : 1;
  switch (type) {
    case FileType::kRegular:
      attr.size = file_data.size();
      break;
    case FileType::kDirectory:
      // Spec-defined deterministic directory size.
      attr.size = 64 * dir_entries.size();
      break;
    case FileType::kSymlink:
      attr.size = symlink_target.size();
      break;
    case FileType::kNone:
      break;
  }
  attr.blocksize = 512;
  attr.blocks = (attr.size + 511) / 512;
  attr.fsid = kAbstractFsid;
  attr.fileid = oid;
  // noatime: the abstract spec defines atime == mtime.
  attr.atime_us = mtime_us;
  attr.mtime_us = mtime_us;
  attr.ctime_us = ctime_us;
  return attr;
}


}  // namespace bftbase
