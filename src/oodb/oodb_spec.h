// Common abstract specification for the replicated object database.
//
// Abstract state: a fixed-size array of <object, generation> slots, oid =
// (index << 32) | generation, exactly like the file service. An abstract
// object is {class, scalar fields, string fields, reference fields}; maps
// are name-sorted and reference lists keep operation-history order (which
// is deterministic), so the encoding is identical at every replica even
// though the engine's internal ids and iteration orders are not.
//
// Operations: CREATE, DELETE, SETSCALAR/GETSCALAR, SETSTRING/GETSTRING,
// ADDREF/REMOVEREF/GETREFS, TRAVERSE (DFS over a reference field summing a
// scalar), SCAN (live oids, sorted — hiding the engine's hash order) and
// COUNT. GET* / TRAVERSE / SCAN / COUNT are read-only.
#ifndef SRC_OODB_OODB_SPEC_H_
#define SRC_OODB_OODB_SPEC_H_

#include <map>
#include <string>
#include <vector>

#include "src/basefs/abstract_spec.h"  // reuses Oid helpers
#include "src/util/status.h"

namespace bftbase {

enum class DbProc : uint8_t {
  kCreate = 1,
  kDelete = 2,
  kSetScalar = 3,
  kGetScalar = 4,
  kSetString = 5,
  kGetString = 6,
  kAddRef = 7,
  kRemoveRef = 8,
  kGetRefs = 9,
  kTraverse = 10,
  kScan = 11,
  kCount = 12,
};

bool IsReadOnlyDbProc(DbProc proc);

struct DbCall {
  DbProc proc = DbProc::kCount;
  Oid oid = 0;
  Oid target = 0;       // ADDREF/REMOVEREF
  std::string field;
  std::string klass;    // CREATE
  int64_t value = 0;    // SETSCALAR
  std::string text;     // SETSTRING
  uint32_t depth = 0;   // TRAVERSE

  Bytes Encode() const;
  static Result<DbCall> Decode(BytesView bytes);
};

struct DbReply {
  // 0 = OK, 1 = not found, 2 = invalid; Decode rejects any other.
  uint32_t status = 0;
  Oid oid = 0;
  int64_t value = 0;         // GETSCALAR / COUNT / TRAVERSE sum
  uint64_t visited = 0;      // TRAVERSE
  std::string text;          // GETSTRING
  std::vector<Oid> oids;     // GETREFS / SCAN

  Bytes Encode() const;
  static Result<DbReply> Decode(BytesView bytes);
};

// One abstract state-array slot.
struct AbstractDbObject {
  uint32_t generation = 0;
  bool live = false;
  std::string klass;
  std::map<std::string, int64_t> scalars;
  std::map<std::string, std::string> strings;
  std::map<std::string, std::vector<Oid>> refs;

  Bytes Encode() const;
  static Result<AbstractDbObject> Decode(BytesView bytes);
};

}  // namespace bftbase

#endif  // SRC_OODB_OODB_SPEC_H_
