#include "src/basefs/conformance_wrapper.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/base/replica_service.h"
#include "src/util/log.h"

namespace bftbase {

namespace {

constexpr uint32_t kNoIndex = 0xffffffffu;

bool IsReservedName(const std::string& name) {
  return name == kStagingDirName;
}

}  // namespace

FsConformanceWrapper::FsConformanceWrapper(Simulation* sim, FsFactory factory,
                                           Options options)
    : sim_(sim), factory_(std::move(factory)), options_(options) {
  assert(options_.array_size >= 2);
  RestartClean();
}

void FsConformanceWrapper::RestartClean() {
  fs_ = factory_();
  rep_.assign(options_.array_size, RepEntry());
  fh_to_index_.clear();
  fileid_to_index_.clear();
  staging_fh_.clear();
  staging_counter_ = 0;

  // Bind the root: index 0, generation 1 (kRootOid), abstract times 0 so
  // that every replica's initial abstract state is identical.
  RepEntry& root = rep_[0];
  root.in_use = true;
  root.gen = 1;
  root.type = FileType::kDirectory;
  root.fh = fs_->Root();
  root.parent_index = 0;
  RecordHandle(0, root.fh);
  auto attr = fs_->GetAttr(root.fh);
  if (attr.stat == NfsStat::kOk) {
    root.concrete_fsid = attr.attr.fsid;
    root.concrete_fileid = attr.attr.fileid;
    fileid_to_index_[{attr.attr.fsid, attr.attr.fileid}] = 0;
  }
}

void FsConformanceWrapper::RestartWrappedDaemon() { fs_->Restart(); }

bool FsConformanceWrapper::CorruptConcreteObject(int index) {
  auto corrupt = [&](uint32_t i) {
    return rep_[i].in_use &&
           fs_->CorruptObject(rep_[i].concrete_fileid);
  };
  if (index >= 0) {
    return static_cast<size_t>(index) < rep_.size() &&
           corrupt(static_cast<uint32_t>(index));
  }
  for (uint32_t i = 1; i < rep_.size(); ++i) {
    if (rep_[i].in_use && rep_[i].type == FileType::kRegular && corrupt(i)) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- rep helpers

FsConformanceWrapper::RepEntry* FsConformanceWrapper::ResolveOid(
    Oid oid, uint32_t* out_index) {
  uint32_t index = OidIndex(oid);
  if (index >= rep_.size()) {
    return nullptr;
  }
  RepEntry& entry = rep_[index];
  if (!entry.in_use || entry.gen != OidGeneration(oid)) {
    return nullptr;
  }
  if (out_index != nullptr) {
    *out_index = index;
  }
  return &entry;
}

bool FsConformanceWrapper::AllocIndex(uint32_t* out_index) {
  // Deterministic: lowest free index (part of the common specification's
  // deterministic oid-assignment procedure, paper §3.1).
  for (uint32_t i = 0; i < rep_.size(); ++i) {
    if (!rep_[i].in_use) {
      *out_index = i;
      return true;
    }
  }
  return false;
}

void FsConformanceWrapper::RecordHandle(uint32_t index, const Bytes& fh) {
  fh_to_index_[fh] = index;
}

void FsConformanceWrapper::ForgetHandle(uint32_t index) {
  RepEntry& entry = rep_[index];
  if (!entry.fh.empty()) {
    auto it = fh_to_index_.find(entry.fh);
    if (it != fh_to_index_.end() && it->second == index) {
      fh_to_index_.erase(it);
    }
  }
  fileid_to_index_.erase({entry.concrete_fsid, entry.concrete_fileid});
}

void FsConformanceWrapper::BindEntry(uint32_t index, FileType type,
                                     const Bytes& fh, uint32_t parent_index,
                                     const std::string& name,
                                     int64_t now_us) {
  RepEntry& entry = rep_[index];
  ForgetHandle(index);
  entry.in_use = true;
  entry.gen += 1;
  entry.type = type;
  entry.fh = fh;
  entry.parent_index = parent_index;
  entry.name = name;
  entry.mtime_us = now_us;
  entry.ctime_us = now_us;
  entry.dir_entry_count = 0;
  RecordHandle(index, fh);
  auto attr = fs_->GetAttr(fh);
  if (attr.stat == NfsStat::kOk) {
    entry.concrete_fsid = attr.attr.fsid;
    entry.concrete_fileid = attr.attr.fileid;
    fileid_to_index_[{attr.attr.fsid, attr.attr.fileid}] = index;
  }
}

void FsConformanceWrapper::FreeEntry(uint32_t index) {
  RepEntry& entry = rep_[index];
  ForgetHandle(index);
  uint32_t gen = entry.gen;
  entry = RepEntry();
  entry.gen = gen;  // preserved so reuse bumps it (paper §3.1)
}

uint32_t FsConformanceWrapper::IndexOfHandle(const Bytes& fh) const {
  auto it = fh_to_index_.find(fh);
  return it == fh_to_index_.end() ? kNoIndex : it->second;
}

Fattr FsConformanceWrapper::AbstractAttrOf(uint32_t index) {
  RepEntry& entry = rep_[index];
  Fattr attr;
  attr.type = entry.type;
  attr.nlink = entry.type == FileType::kDirectory ? 2 : 1;
  auto concrete = fs_->GetAttr(entry.fh);
  if (concrete.stat == NfsStat::kOk) {
    attr.mode = concrete.attr.mode;
    attr.uid = concrete.attr.uid;
    attr.gid = concrete.attr.gid;
    if (entry.type == FileType::kRegular ||
        entry.type == FileType::kSymlink) {
      attr.size = concrete.attr.size;
    }
  }
  if (entry.type == FileType::kDirectory) {
    // Spec-defined deterministic directory size (concrete sizes differ
    // between vendors).
    attr.size = 64 * entry.dir_entry_count;
  }
  attr.blocksize = 512;
  attr.blocks = (attr.size + 511) / 512;
  attr.fsid = kAbstractFsid;
  attr.fileid = MakeOid(index, entry.gen);
  attr.atime_us = entry.mtime_us;  // noatime: atime == mtime abstractly
  attr.mtime_us = entry.mtime_us;
  attr.ctime_us = entry.ctime_us;
  return attr;
}

// ------------------------------------------------------ volatile handles

void FsConformanceWrapper::RefreshHandles() {
  ++handle_refreshes_;
  fh_to_index_.clear();
  staging_fh_.clear();

  Bytes root_fh = fs_->Root();
  rep_[0].fh = root_fh;
  RecordHandle(0, root_fh);

  std::vector<Bytes> queue{root_fh};
  while (!queue.empty()) {
    Bytes dir_fh = queue.back();
    queue.pop_back();
    auto listing = fs_->Readdir(dir_fh);
    if (listing.stat != NfsStat::kOk) {
      continue;
    }
    for (const DirEntry& e : listing.entries) {
      if (IsReservedName(e.name)) {
        staging_fh_ = e.fh;
        continue;  // staging contents are not part of the abstract state
      }
      auto attr = fs_->GetAttr(e.fh);
      if (attr.stat != NfsStat::kOk) {
        continue;
      }
      auto it = fileid_to_index_.find({attr.attr.fsid, attr.attr.fileid});
      if (it != fileid_to_index_.end()) {
        rep_[it->second].fh = e.fh;
        RecordHandle(it->second, e.fh);
      }
      if (attr.attr.type == FileType::kDirectory) {
        queue.push_back(e.fh);
      }
    }
  }
}

template <typename Fn>
auto FsConformanceWrapper::WithStaleRetry(Fn op) -> decltype(op()) {
  auto result = op();
  if (result.stat == NfsStat::kStale) {
    // The wrapped daemon restarted and invalidated its handles (§3.4):
    // rebuild the fh bindings from the persistent <fsid,fileid> map.
    RefreshHandles();
    return op();
  }
  return result;
}

template <typename Fn>
NfsStat FsConformanceWrapper::WithStaleRetryStat(Fn op) {
  NfsStat stat = op();
  if (stat == NfsStat::kStale) {
    RefreshHandles();
    return op();
  }
  return stat;
}

// ----------------------------------------------------------------- execute

Bytes FsConformanceWrapper::Execute(BytesView op, NodeId /*client*/,
                                    BytesView nondet, bool tentative) {
  if (sim_ != nullptr) {
    sim_->ChargeCpu(8);  // wrapper translation overhead
  }
  ++ops_executed_;
  auto call = NfsCall::Decode(op);
  if (!call.ok()) {
    NfsReply bad;
    bad.stat = NfsStat::kInval;
    return bad.Encode(NfsProc::kNull);
  }
  int64_t now_us = 0;
  if (auto t = ReplicaService::DecodeNondet(nondet); t.has_value()) {
    now_us = *t;
  }
  if (tentative && !IsReadOnlyProc(call->proc)) {
    NfsReply reply;
    reply.stat = NfsStat::kRoFs;
    return reply.Encode(call->proc);
  }
  NfsReply reply = Dispatch(*call, now_us, tentative);
  return reply.Encode(call->proc);
}

NfsReply FsConformanceWrapper::Dispatch(const NfsCall& call, int64_t now_us,
                                        bool /*tentative*/) {
  switch (call.proc) {
    case NfsProc::kNull: {
      NfsReply reply;
      reply.stat = NfsStat::kOk;
      return reply;
    }
    case NfsProc::kGetAttr:
      return DoGetAttr(call);
    case NfsProc::kSetAttr:
      return DoSetAttr(call, now_us);
    case NfsProc::kLookup:
      return DoLookup(call);
    case NfsProc::kReadlink:
      return DoReadlink(call);
    case NfsProc::kRead:
      return DoRead(call);
    case NfsProc::kWrite:
      return DoWrite(call, now_us);
    case NfsProc::kCreate:
      return DoCreate(call, now_us, FileType::kRegular);
    case NfsProc::kMkdir:
      return DoCreate(call, now_us, FileType::kDirectory);
    case NfsProc::kSymlink:
      return DoCreate(call, now_us, FileType::kSymlink);
    case NfsProc::kRemove:
      return DoRemove(call, now_us, /*dir_expected=*/false);
    case NfsProc::kRmdir:
      return DoRemove(call, now_us, /*dir_expected=*/true);
    case NfsProc::kRename:
      return DoRename(call, now_us);
    case NfsProc::kReaddir:
      return DoReaddir(call);
    case NfsProc::kStatfs:
      return DoStatfs();
  }
  NfsReply reply;
  reply.stat = NfsStat::kInval;
  return reply;
}

NfsReply FsConformanceWrapper::DoGetAttr(const NfsCall& call) {
  NfsReply reply;
  uint32_t index = 0;
  if (ResolveOid(call.oid, &index) == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  reply.stat = NfsStat::kOk;
  reply.attr = AbstractAttrOf(index);
  return reply;
}

NfsReply FsConformanceWrapper::DoSetAttr(const NfsCall& call,
                                         int64_t now_us) {
  NfsReply reply;
  uint32_t index = 0;
  RepEntry* entry = ResolveOid(call.oid, &index);
  if (entry == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  NotifyModify(index);
  auto result = WithStaleRetry(
      [&] { return fs_->SetAttr(rep_[index].fh, call.attrs); });
  reply.stat = result.stat;
  if (result.stat != NfsStat::kOk) {
    return reply;
  }
  if (call.attrs.size != SetAttrs::kKeep64) {
    rep_[index].mtime_us = now_us;
  }
  rep_[index].ctime_us = now_us;
  reply.attr = AbstractAttrOf(index);
  return reply;
}

NfsReply FsConformanceWrapper::DoLookup(const NfsCall& call) {
  NfsReply reply;
  uint32_t dir_index = 0;
  RepEntry* dir = ResolveOid(call.oid, &dir_index);
  if (dir == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  if (IsReservedName(call.name)) {
    reply.stat = NfsStat::kNoEnt;
    return reply;
  }
  auto result = WithStaleRetry(
      [&] { return fs_->Lookup(rep_[dir_index].fh, call.name); });
  reply.stat = result.stat;
  if (result.stat != NfsStat::kOk) {
    return reply;
  }
  uint32_t child = IndexOfHandle(result.fh);
  if (child == kNoIndex) {
    LOG_WARN << "basefs: lookup found concrete object with no oid";
    reply.stat = NfsStat::kIo;
    return reply;
  }
  reply.oid = MakeOid(child, rep_[child].gen);
  reply.attr = AbstractAttrOf(child);
  return reply;
}

NfsReply FsConformanceWrapper::DoReadlink(const NfsCall& call) {
  NfsReply reply;
  uint32_t index = 0;
  if (ResolveOid(call.oid, &index) == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  auto result =
      WithStaleRetry([&] { return fs_->Readlink(rep_[index].fh); });
  reply.stat = result.stat;
  reply.target = result.target;
  return reply;
}

NfsReply FsConformanceWrapper::DoRead(const NfsCall& call) {
  NfsReply reply;
  uint32_t index = 0;
  if (ResolveOid(call.oid, &index) == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  auto result = WithStaleRetry(
      [&] { return fs_->Read(rep_[index].fh, call.offset, call.count); });
  reply.stat = result.stat;
  if (result.stat != NfsStat::kOk) {
    return reply;
  }
  reply.data = std::move(result.data);
  reply.attr = AbstractAttrOf(index);
  return reply;
}

NfsReply FsConformanceWrapper::DoWrite(const NfsCall& call, int64_t now_us) {
  NfsReply reply;
  uint32_t index = 0;
  RepEntry* entry = ResolveOid(call.oid, &index);
  if (entry == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  NotifyModify(index);
  auto result = WithStaleRetry(
      [&] { return fs_->Write(rep_[index].fh, call.offset, call.data); });
  reply.stat = result.stat;
  if (result.stat != NfsStat::kOk) {
    return reply;
  }
  rep_[index].mtime_us = now_us;
  rep_[index].ctime_us = now_us;
  reply.attr = AbstractAttrOf(index);
  return reply;
}

NfsReply FsConformanceWrapper::DoCreate(const NfsCall& call, int64_t now_us,
                                        FileType type) {
  NfsReply reply;
  uint32_t dir_index = 0;
  RepEntry* dir = ResolveOid(call.oid, &dir_index);
  if (dir == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  if (dir->type != FileType::kDirectory) {
    reply.stat = NfsStat::kNotDir;
    return reply;
  }
  if (IsReservedName(call.name)) {
    reply.stat = NfsStat::kAcces;
    return reply;
  }
  uint32_t new_index = 0;
  if (!AllocIndex(&new_index)) {
    reply.stat = NfsStat::kNoSpc;  // the fixed abstract array is full
    return reply;
  }
  NotifyModify(dir_index);
  NotifyModify(new_index);
  auto result = WithStaleRetry([&] {
    switch (type) {
      case FileType::kDirectory:
        return fs_->Mkdir(rep_[dir_index].fh, call.name, call.attrs);
      case FileType::kSymlink:
        return fs_->Symlink(rep_[dir_index].fh, call.name, call.target,
                            call.attrs);
      default:
        return fs_->Create(rep_[dir_index].fh, call.name, call.attrs);
    }
  });
  reply.stat = result.stat;
  if (result.stat != NfsStat::kOk) {
    return reply;
  }
  BindEntry(new_index, type, result.fh, dir_index, call.name, now_us);
  rep_[dir_index].dir_entry_count += 1;
  rep_[dir_index].mtime_us = now_us;
  rep_[dir_index].ctime_us = now_us;
  reply.oid = MakeOid(new_index, rep_[new_index].gen);
  reply.attr = AbstractAttrOf(new_index);
  return reply;
}

NfsReply FsConformanceWrapper::DoRemove(const NfsCall& call, int64_t now_us,
                                        bool dir_expected) {
  NfsReply reply;
  uint32_t dir_index = 0;
  RepEntry* dir = ResolveOid(call.oid, &dir_index);
  if (dir == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  if (IsReservedName(call.name)) {
    reply.stat = NfsStat::kAcces;
    return reply;
  }
  auto looked = WithStaleRetry(
      [&] { return fs_->Lookup(rep_[dir_index].fh, call.name); });
  if (looked.stat != NfsStat::kOk) {
    reply.stat = looked.stat;
    return reply;
  }
  uint32_t child = IndexOfHandle(looked.fh);
  NotifyModify(dir_index);
  if (child != kNoIndex) {
    NotifyModify(child);
  }
  NfsStat stat =
      dir_expected
          ? WithStaleRetryStat(
                [&] { return fs_->Rmdir(rep_[dir_index].fh, call.name); })
          : WithStaleRetryStat(
                [&] { return fs_->Remove(rep_[dir_index].fh, call.name); });
  reply.stat = stat;
  if (stat != NfsStat::kOk) {
    return reply;
  }
  if (child != kNoIndex) {
    FreeEntry(child);
  }
  rep_[dir_index].dir_entry_count -= 1;
  rep_[dir_index].mtime_us = now_us;
  rep_[dir_index].ctime_us = now_us;
  return reply;
}

NfsReply FsConformanceWrapper::DoRename(const NfsCall& call, int64_t now_us) {
  NfsReply reply;
  uint32_t src_index = 0;
  uint32_t dst_index = 0;
  if (ResolveOid(call.oid, &src_index) == nullptr ||
      ResolveOid(call.oid2, &dst_index) == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  if (IsReservedName(call.name) || IsReservedName(call.name2)) {
    reply.stat = NfsStat::kAcces;
    return reply;
  }
  auto moving = WithStaleRetry(
      [&] { return fs_->Lookup(rep_[src_index].fh, call.name); });
  if (moving.stat != NfsStat::kOk) {
    reply.stat = moving.stat;
    return reply;
  }
  uint32_t moving_index = IndexOfHandle(moving.fh);
  auto overwritten = fs_->Lookup(rep_[dst_index].fh, call.name2);
  uint32_t overwritten_index = overwritten.stat == NfsStat::kOk
                                   ? IndexOfHandle(overwritten.fh)
                                   : kNoIndex;

  NotifyModify(src_index);
  NotifyModify(dst_index);
  if (moving_index != kNoIndex) {
    NotifyModify(moving_index);
  }
  if (overwritten_index != kNoIndex && overwritten_index != moving_index) {
    NotifyModify(overwritten_index);
  }

  NfsStat stat = WithStaleRetryStat([&] {
    return fs_->Rename(rep_[src_index].fh, call.name, rep_[dst_index].fh,
                       call.name2);
  });
  reply.stat = stat;
  if (stat != NfsStat::kOk) {
    return reply;
  }
  if (overwritten_index != kNoIndex && overwritten_index != moving_index) {
    FreeEntry(overwritten_index);
    rep_[dst_index].dir_entry_count -= 1;
  }
  if (moving_index != kNoIndex && moving_index != overwritten_index) {
    rep_[moving_index].parent_index = dst_index;
    rep_[moving_index].name = call.name2;
    rep_[moving_index].ctime_us = now_us;
  }
  if (!(src_index == dst_index && call.name == call.name2)) {
    rep_[src_index].dir_entry_count -= 1;
    rep_[dst_index].dir_entry_count += 1;
  }
  rep_[src_index].mtime_us = rep_[src_index].ctime_us = now_us;
  rep_[dst_index].mtime_us = rep_[dst_index].ctime_us = now_us;
  return reply;
}

NfsReply FsConformanceWrapper::DoReaddir(const NfsCall& call) {
  NfsReply reply;
  uint32_t dir_index = 0;
  RepEntry* dir = ResolveOid(call.oid, &dir_index);
  if (dir == nullptr) {
    reply.stat = NfsStat::kStale;
    return reply;
  }
  if (dir->type != FileType::kDirectory) {
    reply.stat = NfsStat::kNotDir;
    return reply;
  }
  auto listing = ListDirectory(rep_[dir_index].fh);
  reply.stat = NfsStat::kOk;
  for (const ListedEntry& e : listing) {
    if (e.index == kNoIndex) {
      continue;  // foreign object (corrupt state); hidden from clients
    }
    reply.entries.emplace_back(e.name, MakeOid(e.index, rep_[e.index].gen));
  }
  return reply;
}

NfsReply FsConformanceWrapper::DoStatfs() {
  NfsReply reply;
  reply.stat = NfsStat::kOk;
  // Abstract statfs is defined over the abstract array, hiding the wildly
  // different concrete accounting of each vendor.
  reply.block_size = 512;
  reply.total_blocks = static_cast<uint64_t>(options_.array_size) * 16;
  reply.free_blocks = static_cast<uint64_t>(free_entries()) * 16;
  return reply;
}

size_t FsConformanceWrapper::free_entries() const {
  size_t count = 0;
  for (const RepEntry& entry : rep_) {
    if (!entry.in_use) {
      ++count;
    }
  }
  return count;
}

Bytes FsConformanceWrapper::ConcreteHandleOf(Oid oid) const {
  uint32_t index = OidIndex(oid);
  if (index >= rep_.size() || !rep_[index].in_use ||
      rep_[index].gen != OidGeneration(oid)) {
    return Bytes();
  }
  return rep_[index].fh;
}

// --------------------------------------------------- directory listings

std::vector<FsConformanceWrapper::ListedEntry>
FsConformanceWrapper::ListDirectory(const Bytes& dir_fh) {
  auto listing = WithStaleRetry([&] { return fs_->Readdir(dir_fh); });
  std::vector<ListedEntry> out;
  if (listing.stat != NfsStat::kOk) {
    return out;
  }
  for (const DirEntry& e : listing.entries) {
    if (IsReservedName(e.name)) {
      continue;
    }
    out.push_back(ListedEntry{e.name, IndexOfHandle(e.fh), e.fh});
  }
  // The common specification orders directories lexicographically, hiding
  // each vendor's readdir order.
  std::sort(out.begin(), out.end(),
            [](const ListedEntry& a, const ListedEntry& b) {
              return a.name < b.name;
            });
  return out;
}

// ------------------------------------------------- abstraction function

Bytes FsConformanceWrapper::GetObj(size_t index) {
  if (index >= rep_.size()) {
    return AbstractFsObject().Encode();
  }
  RepEntry& entry = rep_[index];
  AbstractFsObject obj;
  obj.generation = entry.gen;
  if (!entry.in_use) {
    obj.type = FileType::kNone;
    return obj.Encode();
  }
  obj.type = entry.type;
  obj.mtime_us = entry.mtime_us;
  obj.ctime_us = entry.ctime_us;
  auto attr = WithStaleRetry([&] { return fs_->GetAttr(entry.fh); });
  if (attr.stat == NfsStat::kOk) {
    obj.mode = attr.attr.mode;
    obj.uid = attr.attr.uid;
    obj.gid = attr.attr.gid;
  }
  switch (entry.type) {
    case FileType::kRegular: {
      uint64_t size = attr.stat == NfsStat::kOk ? attr.attr.size : 0;
      auto read = WithStaleRetry([&] {
        return fs_->Read(entry.fh, 0, static_cast<uint32_t>(size));
      });
      if (read.stat == NfsStat::kOk) {
        obj.file_data = std::move(read.data);
      }
      break;
    }
    case FileType::kSymlink: {
      auto link = WithStaleRetry([&] { return fs_->Readlink(entry.fh); });
      if (link.stat == NfsStat::kOk) {
        obj.symlink_target = link.target;
      }
      break;
    }
    case FileType::kDirectory: {
      auto listing = ListDirectory(entry.fh);
      for (const ListedEntry& e : listing) {
        if (e.index == kNoIndex) {
          continue;  // corrupt foreign object: abstraction hides it
        }
        obj.dir_entries.emplace_back(e.name,
                                     MakeOid(e.index, rep_[e.index].gen));
      }
      break;
    }
    case FileType::kNone:
      break;
  }
  return obj.Encode();
}

size_t FsConformanceWrapper::RunLength(size_t index) {
  // A free entry's abstract value is only its generation number.
  size_t end = index + 1;
  if (index < rep_.size() && !rep_[index].in_use) {
    while (end < rep_.size() && !rep_[end].in_use &&
           rep_[end].gen == rep_[index].gen) {
      ++end;
    }
  }
  return end - index;
}

// --------------------------------------------- inverse abstraction function

void FsConformanceWrapper::EnsureStagingDir() {
  if (!staging_fh_.empty()) {
    auto attr = fs_->GetAttr(staging_fh_);
    if (attr.stat == NfsStat::kOk) {
      return;
    }
  }
  auto looked = fs_->Lookup(rep_[0].fh, kStagingDirName);
  if (looked.stat == NfsStat::kOk) {
    staging_fh_ = looked.fh;
    return;
  }
  auto made = fs_->Mkdir(rep_[0].fh, kStagingDirName, SetAttrs());
  if (made.stat == NfsStat::kOk) {
    staging_fh_ = made.fh;
  } else {
    LOG_ERROR << "basefs: cannot create staging directory: "
              << NfsStatName(made.stat);
  }
}

std::string FsConformanceWrapper::UniqueStagingName() {
  return "s" + std::to_string(staging_counter_++);
}

void FsConformanceWrapper::DeleteRecursive(const Bytes& dir_fh,
                                           const std::string& name) {
  auto looked = fs_->Lookup(dir_fh, name);
  if (looked.stat != NfsStat::kOk) {
    return;
  }
  if (looked.attr.type == FileType::kDirectory) {
    auto listing = fs_->Readdir(looked.fh);
    if (listing.stat == NfsStat::kOk) {
      for (const DirEntry& e : listing.entries) {
        DeleteRecursive(looked.fh, e.name);
      }
    }
    fs_->Rmdir(dir_fh, name);
  } else {
    fs_->Remove(dir_fh, name);
  }
}

void FsConformanceWrapper::PutObjs(const std::vector<ObjectUpdate>& objs) {
  if (objs.empty()) {
    return;
  }
  // Decode all updates first: put_objs receives a consistent cut of the
  // abstract state (library guarantee, paper §2.2).
  std::map<uint32_t, AbstractFsObject> updates;
  for (const ObjectUpdate& update : objs) {
    auto decoded = AbstractFsObject::Decode(update.value);
    if (!decoded.ok()) {
      LOG_ERROR << "basefs: malformed abstract object " << update.index;
      continue;
    }
    if (update.index < rep_.size()) {
      updates[static_cast<uint32_t>(update.index)] = std::move(*decoded);
    }
  }
  if (updates.empty()) {
    return;
  }
  EnsureStagingDir();

  struct Loc {
    Bytes dir_fh;
    std::string name;
  };
  std::map<uint32_t, Loc> loc;       // current location of each LIVE target
  std::map<uint32_t, Bytes> fh_now;  // current/new concrete fh per index
  std::map<uint32_t, Loc> old_loc;   // staged locations of replaced objects
  std::vector<Loc> foreign_staged;   // staged objects with no oid (corrupt)
  std::set<uint32_t> created;        // freshly created concrete objects

  for (uint32_t i = 0; i < rep_.size(); ++i) {
    if (rep_[i].in_use) {
      fh_now[i] = rep_[i].fh;
      if (i != 0) {
        loc[i] = Loc{rep_[rep_[i].parent_index].fh, rep_[i].name};
      }
    }
  }

  // Which entries are being replaced or deleted (old occupant must die)?
  std::set<uint32_t> replaced;
  for (const auto& [i, obj] : updates) {
    if (rep_[i].in_use &&
        (obj.type == FileType::kNone || rep_[i].gen != obj.generation)) {
      replaced.insert(i);
    }
  }

  // --- Case 3 (paper §3.3): create new objects in the unlinked directory --
  for (const auto& [i, obj] : updates) {
    if (obj.type == FileType::kNone) {
      continue;
    }
    if (rep_[i].in_use && rep_[i].gen == obj.generation) {
      continue;  // case 1: same object, updated in place below
    }
    std::string staged_name = UniqueStagingName();
    SetAttrs attrs;
    attrs.mode = obj.mode;
    attrs.uid = obj.uid;
    attrs.gid = obj.gid;
    FileSystem::HandleResult made;
    switch (obj.type) {
      case FileType::kDirectory:
        made = fs_->Mkdir(staging_fh_, staged_name, attrs);
        break;
      case FileType::kSymlink:
        made = fs_->Symlink(staging_fh_, staged_name, obj.symlink_target,
                            attrs);
        break;
      default:
        made = fs_->Create(staging_fh_, staged_name, attrs);
        break;
    }
    if (made.stat != NfsStat::kOk) {
      LOG_ERROR << "basefs: put_objs create failed: "
                << NfsStatName(made.stat);
      continue;
    }
    fh_now[i] = made.fh;
    loc[i] = Loc{staging_fh_, staged_name};
    created.insert(i);
  }

  // --- Detach: diff gen-matching directories against their target value ---
  for (const auto& [i, obj] : updates) {
    if (obj.type != FileType::kDirectory || created.count(i) > 0 ||
        !rep_[i].in_use || rep_[i].gen != obj.generation) {
      continue;
    }
    std::map<std::string, Oid> want(obj.dir_entries.begin(),
                                    obj.dir_entries.end());
    auto listing = ListDirectory(fh_now[i]);
    for (const ListedEntry& e : listing) {
      bool keep = false;
      auto want_it = want.find(e.name);
      if (want_it != want.end() && e.index != kNoIndex &&
          e.index == OidIndex(want_it->second) &&
          rep_[e.index].gen == OidGeneration(want_it->second) &&
          created.count(e.index) == 0) {
        keep = true;
      }
      if (keep) {
        continue;
      }
      std::string staged_name = UniqueStagingName();
      NfsStat moved =
          fs_->Rename(fh_now[i], e.name, staging_fh_, staged_name);
      if (moved != NfsStat::kOk) {
        LOG_ERROR << "basefs: put_objs detach failed: "
                  << NfsStatName(moved);
        continue;
      }
      if (e.index == kNoIndex) {
        foreign_staged.push_back(Loc{staging_fh_, staged_name});
      } else if (replaced.count(e.index) > 0) {
        old_loc[e.index] = Loc{staging_fh_, staged_name};
      } else {
        loc[e.index] = Loc{staging_fh_, staged_name};
      }
    }
  }

  // --- Case 1: update contents and metadata in place / on new objects -----
  for (const auto& [i, obj] : updates) {
    if (obj.type == FileType::kNone) {
      continue;
    }
    const Bytes& fh = fh_now[i];
    if (obj.type == FileType::kRegular) {
      SetAttrs truncate;
      truncate.size = obj.file_data.size();
      fs_->SetAttr(fh, truncate);
      if (!obj.file_data.empty()) {
        fs_->Write(fh, 0, obj.file_data);
      }
    }
    if (created.count(i) == 0) {
      SetAttrs meta;
      meta.mode = obj.mode;
      meta.uid = obj.uid;
      meta.gid = obj.gid;
      fs_->SetAttr(fh, meta);
    }
  }

  // --- Attach: make every updated directory contain its target entries ----
  for (const auto& [i, obj] : updates) {
    if (obj.type != FileType::kDirectory) {
      continue;
    }
    for (const auto& [name, oid] : obj.dir_entries) {
      uint32_t k = OidIndex(oid);
      auto cur = loc.find(k);
      if (cur == loc.end()) {
        LOG_ERROR << "basefs: put_objs missing object for dir entry " << name;
        continue;
      }
      if (cur->second.dir_fh == fh_now[i] && cur->second.name == name) {
        continue;  // already in place
      }
      NfsStat moved = fs_->Rename(cur->second.dir_fh, cur->second.name,
                                  fh_now[i], name);
      if (moved != NfsStat::kOk) {
        LOG_ERROR << "basefs: put_objs attach failed: " << NfsStatName(moved);
        continue;
      }
      loc[k] = Loc{fh_now[i], name};
    }
  }

  // --- Case 2 + deletions: remove dead concrete objects -------------------
  for (const auto& [i, staged] : old_loc) {
    DeleteRecursive(staged.dir_fh, staged.name);
  }
  for (const Loc& staged : foreign_staged) {
    DeleteRecursive(staged.dir_fh, staged.name);
  }

  // --- Finalize the conformance rep ---------------------------------------
  for (const auto& [i, obj] : updates) {
    if (obj.type == FileType::kNone) {
      if (rep_[i].in_use) {
        ForgetHandle(i);
      }
      RepEntry fresh;
      fresh.gen = obj.generation;
      rep_[i] = std::move(fresh);
      continue;
    }
    ForgetHandle(i);
    RepEntry& entry = rep_[i];
    entry.in_use = true;
    entry.gen = obj.generation;
    entry.type = obj.type;
    entry.fh = fh_now[i];
    entry.mtime_us = obj.mtime_us;
    entry.ctime_us = obj.ctime_us;
    entry.dir_entry_count = static_cast<uint32_t>(obj.dir_entries.size());
    RecordHandle(i, entry.fh);
    auto attr = fs_->GetAttr(entry.fh);
    if (attr.stat == NfsStat::kOk) {
      entry.concrete_fsid = attr.attr.fsid;
      entry.concrete_fileid = attr.attr.fileid;
      fileid_to_index_[{attr.attr.fsid, attr.attr.fileid}] = i;
    }
  }
  // Location bookkeeping: parents/names for every object we moved.
  for (const auto& [k, where] : loc) {
    if (!rep_[k].in_use) {
      continue;
    }
    uint32_t parent = IndexOfHandle(where.dir_fh);
    if (parent != kNoIndex) {
      rep_[k].parent_index = parent;
      rep_[k].name = where.name;
    }
  }
}

}  // namespace bftbase
