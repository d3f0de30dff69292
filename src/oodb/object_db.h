// ObjectDb: an in-process object-oriented database engine (the black box
// wrapped by the OODB conformance wrapper).
//
// The engine is intentionally NON-DETERMINISTIC in ways that real OODBs are
// (the abstract of the paper: "an object-oriented database where the
// replicas ran the same, non-deterministic implementation"):
//   - internal object ids come from a salted, scrambled allocator, so two
//     instances performing identical operations hand out different ids
//   - enumeration (Scan) iterates a hash table, so its order depends on the
//     ids and the hashing, not on creation order
//   - deleted ids go to a free pool whose reuse order is id-dependent
//
// The conformance wrapper hides all of this behind deterministic abstract
// oids and sorted results.
#ifndef SRC_OODB_OBJECT_DB_H_
#define SRC_OODB_OBJECT_DB_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace bftbase {

class ObjectDb {
 public:
  using DbId = uint64_t;  // internal, non-deterministic object id

  // `instance_salt` models per-process address-space randomness: two
  // replicas construct the engine with different salts.
  ObjectDb(Simulation* sim, uint64_t instance_salt);

  struct ObjectData {
    std::string klass;
    std::map<std::string, int64_t> scalars;
    std::map<std::string, std::string> strings;
    // Reference fields: name -> ordered list of internal ids (insertion
    // order, which diverges across instances after deletions/reuse).
    std::map<std::string, std::vector<DbId>> refs;
  };

  // Creates an object of class `klass`; returns its internal id.
  DbId Create(const std::string& klass);
  Status Delete(DbId id);

  Status SetScalar(DbId id, const std::string& field, int64_t value);
  Result<int64_t> GetScalar(DbId id, const std::string& field) const;
  Status SetString(DbId id, const std::string& field, std::string value);
  Result<std::string> GetString(DbId id, const std::string& field) const;
  // Drops every field of the object, keeping its identity (used by schema
  // migrations and by the conformance wrapper's inverse abstraction
  // function when rewriting an object in place).
  Status ClearFields(DbId id);

  Status AddRef(DbId id, const std::string& field, DbId target);
  Status RemoveRef(DbId id, const std::string& field, DbId target);
  Result<std::vector<DbId>> GetRefs(DbId id, const std::string& field) const;

  const ObjectData* Get(DbId id) const;

  // Enumerates every object id — in HASH order (non-deterministic across
  // instances).
  std::vector<DbId> Scan() const;

  size_t ObjectCount() const { return objects_.size(); }

  // Wipes the database (proactive recovery's clean restart).
  void Reset();

  // Fault hook: scrambles one object's contents.
  bool Corrupt(DbId id);

  size_t MemoryFootprint() const;

 private:
  void Charge(SimTime cost) const;
  DbId AllocId();

  Simulation* sim_;
  uint64_t salt_;
  uint64_t counter_ = 0;
  std::vector<DbId> free_pool_;
  std::unordered_map<DbId, ObjectData> objects_;
};

}  // namespace bftbase

#endif  // SRC_OODB_OBJECT_DB_H_
