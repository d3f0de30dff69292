#include "src/util/hotpath.h"

namespace bftbase {
namespace hotpath {

void MergeCounters(const Counters& delta) {
  Counters& c = internal::g_counters;
  for (const CounterField& field : kCounterFields) {
    c.*field.member += delta.*field.member;
  }
}

void ResetCounters() { internal::g_counters = Counters{}; }

}  // namespace hotpath
}  // namespace bftbase
