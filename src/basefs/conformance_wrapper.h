// The BASEFS conformance wrapper (paper §3.2): makes ANY black-box
// FileSystem implementation behave according to the common abstract
// specification in abstract_spec.h.
//
// The conformance rep mirrors the abstract state array without storing
// object copies: each entry holds the generation number, the concrete file
// handle the wrapped server assigned to the object, the abstract timestamps,
// and the object's current concrete location (parent entry + name, which the
// inverse abstraction function needs to move/remove concrete objects). Two
// side maps complete it: file handle -> oid for reply translation, and
// <fsid, fileid> -> oid, which survives server restarts and lets the wrapper
// re-resolve volatile file handles (paper §3.4).
//
// Non-determinism hidden here:
//   - concrete file-handle values (translated to oids both ways)
//   - readdir order (listings are re-sorted lexicographically)
//   - concrete timestamps (replaced by abstract ones derived from the
//     agreed non-deterministic input of each batch)
//   - statfs accounting (computed from the abstract array instead)
#ifndef SRC_BASEFS_CONFORMANCE_WRAPPER_H_
#define SRC_BASEFS_CONFORMANCE_WRAPPER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/adapter.h"
#include "src/basefs/abstract_spec.h"
#include "src/fs/file_system.h"
#include "src/sim/simulation.h"

namespace bftbase {

class FsConformanceWrapper : public ServiceAdapter {
 public:
  struct Options {
    // Size of the fixed abstract state array (paper §3.1).
    uint32_t array_size = 1024;
  };

  // `factory` builds a fresh instance of the wrapped implementation; it is
  // called at construction and again by RestartClean() (proactive recovery's
  // "start an NFS server on a second empty disk").
  using FsFactory = std::function<std::unique_ptr<FileSystem>()>;

  FsConformanceWrapper(Simulation* sim, FsFactory factory, Options options);
  FsConformanceWrapper(Simulation* sim, FsFactory factory)
      : FsConformanceWrapper(sim, std::move(factory), Options{}) {}

  // --- ServiceAdapter ---------------------------------------------------------
  Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                bool tentative) override;
  Bytes GetObj(size_t index) override;
  void PutObjs(const std::vector<ObjectUpdate>& objs) override;
  size_t ObjectCount() const override { return options_.array_size; }
  void RestartClean() override;

  // --- Introspection ----------------------------------------------------------
  FileSystem* wrapped_fs() { return fs_.get(); }
  size_t free_entries() const;
  // Resolves an oid to the concrete file handle (empty if dead); test hook
  // for corruption experiments.
  Bytes ConcreteHandleOf(Oid oid) const;

  // Simulates the wrapped daemon restarting underneath the wrapper (file
  // handles become volatile, §3.4). The wrapper recovers transparently.
  void RestartWrappedDaemon();

  // Fault injection: corrupts the concrete state of the object at the given
  // array index (or, with index < 0, of some in-use non-root object).
  // Returns false if nothing could be corrupted.
  bool CorruptConcreteObject(int index = -1);

 private:
  struct RepEntry {
    bool in_use = false;
    uint32_t gen = 0;
    FileType type = FileType::kNone;
    Bytes fh;  // concrete handle assigned by the wrapped server
    int64_t mtime_us = 0;
    int64_t ctime_us = 0;
    // Current concrete location (for the inverse abstraction function).
    uint32_t parent_index = 0;
    std::string name;
    uint32_t dir_entry_count = 0;  // directories: abstract entry count
    uint64_t concrete_fsid = 0;    // <fsid, fileid> recovery identity
    uint64_t concrete_fileid = 0;
  };

  // --- Execute dispatch -------------------------------------------------------
  NfsReply Dispatch(const NfsCall& call, int64_t now_us, bool tentative);
  NfsReply DoGetAttr(const NfsCall& call);
  NfsReply DoSetAttr(const NfsCall& call, int64_t now_us);
  NfsReply DoLookup(const NfsCall& call);
  NfsReply DoReadlink(const NfsCall& call);
  NfsReply DoRead(const NfsCall& call);
  NfsReply DoWrite(const NfsCall& call, int64_t now_us);
  NfsReply DoCreate(const NfsCall& call, int64_t now_us, FileType type);
  NfsReply DoRemove(const NfsCall& call, int64_t now_us, bool dir_expected);
  NfsReply DoRename(const NfsCall& call, int64_t now_us);
  NfsReply DoReaddir(const NfsCall& call);
  NfsReply DoStatfs();

  // --- Rep helpers ------------------------------------------------------------
  // Resolves an oid to an in-use entry with matching generation.
  RepEntry* ResolveOid(Oid oid, uint32_t* out_index);
  // Lowest-free-index allocation (deterministic across replicas).
  bool AllocIndex(uint32_t* out_index);
  void BindEntry(uint32_t index, FileType type, const Bytes& fh,
                 uint32_t parent_index, const std::string& name,
                 int64_t now_us);
  void FreeEntry(uint32_t index);
  void RecordHandle(uint32_t index, const Bytes& fh);
  void ForgetHandle(uint32_t index);
  // Abstract attributes of entry `index` (concrete attrs + rep overrides).
  Fattr AbstractAttrOf(uint32_t index);
  // Maps a concrete fh to an array index (UINT32_MAX if unknown).
  uint32_t IndexOfHandle(const Bytes& fh) const;

  // --- Volatile-handle recovery (§3.4) ----------------------------------------
  // Walks the concrete tree and rebinds file handles using <fsid,fileid>.
  void RefreshHandles();
  // Runs `op()`; if the wrapped server reports stale handles (it restarted),
  // refreshes handles and retries once.
  template <typename Fn>
  auto WithStaleRetry(Fn op) -> decltype(op());
  // Same, for fs calls that return a bare NfsStat.
  template <typename Fn>
  NfsStat WithStaleRetryStat(Fn op);

  // --- Inverse abstraction function helpers -----------------------------------
  void EnsureStagingDir();
  std::string UniqueStagingName();
  void DeleteRecursive(const Bytes& dir_fh, const std::string& name);
  // Current abstract listing of a concrete directory (sorted, staging
  // filtered), with concrete handles resolved to indices.
  struct ListedEntry {
    std::string name;
    uint32_t index;  // UINT32_MAX when the fh is unknown (foreign object)
    Bytes fh;
  };
  std::vector<ListedEntry> ListDirectory(const Bytes& dir_fh);

  Simulation* sim_;
  FsFactory factory_;
  Options options_;
  std::unique_ptr<FileSystem> fs_;

  std::vector<RepEntry> rep_;
  std::map<Bytes, uint32_t> fh_to_index_;
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> fileid_to_index_;
  Bytes staging_fh_;
  uint64_t staging_counter_ = 0;

  // Telemetry (code-size / behaviour experiments).
  uint64_t ops_executed_ = 0;
  uint64_t handle_refreshes_ = 0;
};

// Reserved concrete name for the wrapper's staging directory; hidden from
// the abstract view and refused in client names.
inline constexpr const char* kStagingDirName = "#base.staging#";

}  // namespace bftbase

#endif  // SRC_BASEFS_CONFORMANCE_WRAPPER_H_
