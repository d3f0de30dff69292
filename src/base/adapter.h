// ServiceAdapter: the contract a conformance wrapper implements.
//
// This is the paper's Figure 1 seen from the library's side:
//   execute   -> Execute()
//   get_obj   -> GetObj()      (the abstraction function, one object)
//                RunLength()   (how many objects from an index share its
//                               get_obj value, so a cold walk calls get_obj
//                               once per run)
//   put_objs  -> PutObjs()     (an inverse of the abstraction function)
//   modify    -> the ModifyFn the library installs with SetModifyFn(); the
//                wrapper MUST call it before mutating an abstract object so
//                the library can snapshot the object copy-on-write.
//
// A wrapper adapts one concrete, off-the-shelf implementation (black box) to
// the common abstract specification S. Different replicas may run different
// wrappers over different implementations; all that matters is that they
// agree on the abstract state and operation semantics.
#ifndef SRC_BASE_ADAPTER_H_
#define SRC_BASE_ADAPTER_H_

#include <functional>
#include <vector>

#include "src/bft/config.h"
#include "src/util/bytes.h"

namespace bftbase {

// One abstract object value being installed by put_objs.
struct ObjectUpdate {
  size_t index = 0;
  Bytes value;
};

class ServiceAdapter {
 public:
  virtual ~ServiceAdapter() = default;

  // Executes one operation against the wrapped implementation, translating
  // between concrete and abstract behavior (file handles <-> oids,
  // timestamps <-> agreed nondet values, ...). Must call the modify hook
  // before the first mutation of each abstract object. When `tentative` is
  // true the operation must not modify any state.
  virtual Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                        bool tentative) = 0;

  // The abstraction function for one object: returns the abstract (encoded)
  // value of object `index`, computed from the concrete state.
  virtual Bytes GetObj(size_t index) = 0;

  // A number of consecutive objects, starting at `index`, that all have the
  // abstract value GetObj(index): at least 1, and none past ObjectCount().
  // The library walks a whole state (FullResync) run by run, calling GetObj
  // once per run and merging neighbouring runs whose values are equal, so a
  // run may stop before the value changes. A wrapper whose free or empty
  // objects repeat one value should say how far they repeat; the default,
  // 1, walks object by object.
  virtual size_t RunLength(size_t /*index*/) { return 1; }

  // An inverse of the abstraction function: updates the concrete state so
  // that the abstract values of the given objects match `objs`. The library
  // guarantees the argument brings the whole abstract state to a consistent
  // checkpoint value, so updates may depend on one another (e.g. directories
  // referencing newly created objects).
  virtual void PutObjs(const std::vector<ObjectUpdate>& objs) = 0;

  // Size of the abstract-state object array. For services with a fixed-size
  // array (the NFS example) this is constant; growable services may extend
  // it (never shrink).
  virtual size_t ObjectCount() const = 0;

  // Restarts the concrete implementation from a clean initial state
  // (proactive recovery rebuilds it afterwards through PutObjs). This models
  // "start an NFS server on a second empty disk".
  virtual void RestartClean() = 0;

  // Proposes / validates non-deterministic input for a batch. The default is
  // suitable for services that need none.
  virtual Bytes ProposeNondet() { return Bytes(); }
  virtual bool CheckNondet(BytesView nondet) { return nondet.empty(); }

  // The library installs this hook; the wrapper calls it (through
  // NotifyModify) before mutating an abstract object.
  using ModifyFn = std::function<void(size_t index)>;
  void SetModifyFn(ModifyFn fn) { modify_ = std::move(fn); }

 protected:
  // Called by wrapper code before the first mutation of object `index` in
  // an operation (the paper's `modify` upcall-in-reverse).
  void NotifyModify(size_t index) {
    if (modify_) {
      modify_(index);
    }
  }

 private:
  ModifyFn modify_;
};

}  // namespace bftbase

#endif  // SRC_BASE_ADAPTER_H_
