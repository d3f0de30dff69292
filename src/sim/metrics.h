// Central metrics registry for the simulation harness.
//
// Every layer (network, replicas, state transfer, benches) records counters
// and histograms here instead of keeping ad-hoc `messages_sent_`-style
// fields. Counters are keyed by (name, node, tag): `node` is usually a
// replica or client id and `tag` a message type, so benches can break
// traffic down per replica and per message kind. Iteration order is
// deterministic (std::map), which keeps bench tables and trace output
// reproducible across same-seed runs.
#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bftbase {

class MetricsRegistry {
 public:
  // Wildcard key components: a counter recorded without a node or tag, and
  // the value passed to the query helpers to mean "sum over all".
  static constexpr int kAny = -1;

  // --- Recording -----------------------------------------------------------

  void Inc(std::string_view name, int node = kAny, int tag = kAny,
           uint64_t delta = 1);

  // Pre-resolved counter handle for hot paths (the event kernel's
  // network delivery path). Resolves the string-keyed lookup once and memoizes
  // the last (node, tag) cell, so a burst of same-sender traffic — e.g. the n
  // recipients of one multicast — updates a counter with one pointer chase
  // instead of a string-map walk per message. Writes land in the same cells
  // as Inc(), so queries and CounterRows() cannot tell the difference. The
  // handle survives Reset()/ResetPrefix(): a registry generation check makes
  // it re-resolve instead of dangling. The registry must outlive the handle.
  class Counter {
   public:
    Counter() = default;

    void Inc(int node = kAny, int tag = kAny, uint64_t delta = 1) {
      if (registry_ == nullptr) {
        return;
      }
      if (generation_ != registry_->generation_) {
        Rebind();
      }
      if (cell_ != nullptr && node == node_ && tag == tag_) {
        *cell_ += delta;
        return;
      }
      cell_ = &(*cells_)[{node, tag}];
      node_ = node;
      tag_ = tag;
      *cell_ += delta;
    }

   private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry* registry, std::string name)
        : registry_(registry), name_(std::move(name)) {}
    void Rebind();

    MetricsRegistry* registry_ = nullptr;
    std::string name_;
    std::map<std::pair<int, int>, uint64_t>* cells_ = nullptr;
    uint64_t generation_ = ~uint64_t{0};
    uint64_t* cell_ = nullptr;
    int node_ = 0;
    int tag_ = 0;
  };

  Counter CounterHandle(std::string_view name) {
    return Counter(this, std::string(name));
  }

  // Overwrites a counter cell (gauge semantics). Used to mirror externally
  // maintained counters — e.g. the process-wide hot-path counters — into the
  // registry so they show up in CounterRows() and per-phase snapshots.
  void Set(std::string_view name, uint64_t value, int node = kAny,
           int tag = kAny);

  // Histogram observation: folds `value` into the cell's count, sum, min
  // and max.
  void Observe(std::string_view name, int64_t value, int node = kAny,
               int tag = kAny);

  // --- Queries -------------------------------------------------------------

  // Exact counter cell; 0 if never written.
  uint64_t Get(std::string_view name, int node = kAny, int tag = kAny) const;

  // Sum over every (node, tag) cell under `name`.
  uint64_t Total(std::string_view name) const;
  // Sum over all tags for one node / over all nodes for one tag.
  uint64_t TotalForNode(std::string_view name, int node) const;
  uint64_t TotalForTag(std::string_view name, int tag) const;

  struct HistogramSnapshot {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
  };
  // Aggregated over every (node, tag) cell under `name`.
  HistogramSnapshot Histogram(std::string_view name) const;

  struct CounterRow {
    std::string name;
    int node;
    int tag;
    uint64_t value;
  };
  // Deterministic dump of all counter cells whose name starts with `prefix`
  // (empty prefix = everything).
  std::vector<CounterRow> CounterRows(std::string_view prefix = {}) const;

  // --- Reset ---------------------------------------------------------------

  // Clears every metric.
  void Reset();
  // Clears metrics whose name starts with `prefix` (so e.g. the network can
  // reset "net." without erasing replica counters).
  void ResetPrefix(std::string_view prefix);

 private:
  struct HistogramCell {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  using Key = std::pair<int, int>;  // (node, tag)

  // Bumped whenever cells may have been erased (Reset/ResetPrefix), so
  // outstanding Counter handles re-resolve instead of touching freed nodes.
  uint64_t generation_ = 0;

  std::map<std::string, std::map<Key, uint64_t>, std::less<>> counters_;
  std::map<std::string, std::map<Key, HistogramCell>, std::less<>> histograms_;
};

// Mirrors the process-wide hot-path counters (src/util/hotpath.h) into
// `metrics` as "hot.<name>" gauges, one per hotpath::kCounterFields entry
// (hot.sha256_invocations, hot.digest_memo_hits, hot.events_requeued, ...).
// Benches call this at phase boundaries and diff the values.
// (hot.payload_copies / hot.bytes_copied are maintained directly by Network
// and need no sync.)
void SyncHotPathCounters(MetricsRegistry& metrics);

}  // namespace bftbase

#endif  // SRC_SIM_METRICS_H_
