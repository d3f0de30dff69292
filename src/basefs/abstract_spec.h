// The common abstract specification S for the replicated file service
// (paper §3.1), shared by every conformance wrapper and by clients.
//
// Abstract state: a fixed-size array of <object, generation-number> pairs.
// Each object is identified by an oid = (array index << 32) | generation.
// Object 0 is the root directory. Objects are files (byte arrays),
// directories (sequences of <name, oid> pairs sorted lexicographically),
// symbolic links (short strings) or null objects (free entries). Every
// entry is encoded with XDR (RFC 1014), as in the paper.
//
// Operations are the NFSv2 procedures (RFC 1094) over oids instead of file
// handles; timestamps in results are the ABSTRACT timestamps maintained by
// the wrapper from agreed non-deterministic input, never the concrete
// server's clock. Directory listings are sorted lexicographically so every
// replica returns identical bytes. LINK (proc 12) is not supported by the
// common specification; WRITECACHE (7) and ROOT (3) are obsolete no-ops.
#ifndef SRC_BASEFS_ABSTRACT_SPEC_H_
#define SRC_BASEFS_ABSTRACT_SPEC_H_

#include <string>
#include <utility>
#include <vector>

#include "src/fs/types.h"
#include "src/util/status.h"

namespace bftbase {

// Abstract object identifier.
using Oid = uint64_t;

inline Oid MakeOid(uint32_t index, uint32_t generation) {
  return (static_cast<uint64_t>(index) << 32) | generation;
}
inline uint32_t OidIndex(Oid oid) { return static_cast<uint32_t>(oid >> 32); }
inline uint32_t OidGeneration(Oid oid) {
  return static_cast<uint32_t>(oid & 0xffffffffu);
}

// The root directory always occupies index 0 with generation 1.
constexpr Oid kRootOid = (0ull << 32) | 1ull;

// NFSv2 procedure numbers (RFC 1094).
enum class NfsProc : uint32_t {
  kNull = 0,
  kGetAttr = 1,
  kSetAttr = 2,
  kLookup = 4,
  kReadlink = 5,
  kRead = 6,
  kWrite = 8,
  kCreate = 9,
  kRemove = 10,
  kRename = 11,
  kSymlink = 13,
  kMkdir = 14,
  kRmdir = 15,
  kReaddir = 16,
  kStatfs = 17,
};

const char* NfsProcName(NfsProc proc);
// True for procedures that do not modify the abstract state (eligible for
// the read-only optimization). The common specification does not maintain
// access times (noatime), which is what makes reads read-only.
bool IsReadOnlyProc(NfsProc proc);

// A decoded NFS call. Unused fields are zero/empty for a given procedure.
struct NfsCall {
  NfsProc proc = NfsProc::kNull;
  Oid oid = 0;    // object the call operates on (dir for name ops)
  Oid oid2 = 0;   // RENAME: destination directory
  std::string name;
  std::string name2;    // RENAME: destination name
  std::string target;   // SYMLINK target
  uint64_t offset = 0;  // READ/WRITE
  uint32_t count = 0;   // READ
  Bytes data;           // WRITE
  SetAttrs attrs;       // SETATTR/CREATE/MKDIR/SYMLINK

  Bytes Encode() const;
  static Result<NfsCall> Decode(BytesView bytes);
};

// A decoded NFS reply. `stat` selects which fields are meaningful.
struct NfsReply {
  NfsStat stat = NfsStat::kIo;
  Fattr attr;                                         // attr-bearing replies
  Oid oid = 0;                                        // LOOKUP/CREATE/...
  Bytes data;                                         // READ
  std::string target;                                 // READLINK
  std::vector<std::pair<std::string, Oid>> entries;   // READDIR (sorted)
  uint32_t block_size = 0;                            // STATFS
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;

  Bytes Encode(NfsProc proc) const;
  static Result<NfsReply> Decode(NfsProc proc, BytesView bytes);
};

// One entry of the abstract state array (paper §3.1), XDR-encoded.
struct AbstractFsObject {
  uint32_t generation = 0;
  FileType type = FileType::kNone;  // kNone: free entry
  // Abstract metadata (subset of fattr that the spec defines): mode, uid,
  // gid and the abstract timestamps. Sizes, fileids etc. are derived.
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  int64_t mtime_us = 0;
  int64_t ctime_us = 0;
  Bytes file_data;                                    // files
  std::string symlink_target;                         // symlinks
  std::vector<std::pair<std::string, Oid>> dir_entries;  // dirs, sorted

  Bytes Encode() const;
  static Result<AbstractFsObject> Decode(BytesView bytes);

  // Derived abstract attributes for an object at `oid` (spec-defined sizes,
  // nlink, fsid).
  Fattr DerivedAttr(Oid oid) const;
};

// Abstract fattr helpers shared by wrapper and protocol encoding.
void EncodeFattrTo(class XdrWriter& writer, const Fattr& attr);
Fattr DecodeFattrFrom(class XdrReader& reader);

constexpr uint64_t kAbstractFsid = 0xBA5EBA5Eu;

}  // namespace bftbase

#endif  // SRC_BASEFS_ABSTRACT_SPEC_H_
