#include "src/sim/metrics.h"

#include <algorithm>

#include "src/util/hotpath.h"

namespace bftbase {

void MetricsRegistry::Inc(std::string_view name, int node, int tag,
                          uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::map<Key, uint64_t>())
             .first;
  }
  it->second[{node, tag}] += delta;
}

void MetricsRegistry::Set(std::string_view name, uint64_t value, int node,
                          int tag) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::map<Key, uint64_t>())
             .first;
  }
  it->second[{node, tag}] = value;
}

void SyncHotPathCounters(MetricsRegistry& metrics) {
  const hotpath::Counters& c = hotpath::counters();
  for (const hotpath::CounterField& field : hotpath::kCounterFields) {
    metrics.Set(std::string("hot.") + field.name, c.*field.member);
  }
}

void MetricsRegistry::Counter::Rebind() {
  auto it = registry_->counters_.find(name_);
  if (it == registry_->counters_.end()) {
    it = registry_->counters_
             .emplace(name_, std::map<Key, uint64_t>())
             .first;
  }
  cells_ = &it->second;
  cell_ = nullptr;
  generation_ = registry_->generation_;
}

void MetricsRegistry::Observe(std::string_view name, int64_t value, int node,
                              int tag) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::map<Key, HistogramCell>())
             .first;
  }
  HistogramCell& cell = it->second[{node, tag}];
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  ++cell.count;
  cell.sum += value;
}

uint64_t MetricsRegistry::Get(std::string_view name, int node, int tag) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  auto cell = it->second.find({node, tag});
  return cell == it->second.end() ? 0 : cell->second;
}

uint64_t MetricsRegistry::Total(std::string_view name) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    total += value;
  }
  return total;
}

uint64_t MetricsRegistry::TotalForNode(std::string_view name, int node) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    if (key.first == node) {
      total += value;
    }
  }
  return total;
}

uint64_t MetricsRegistry::TotalForTag(std::string_view name, int tag) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, value] : it->second) {
    if (key.second == tag) {
      total += value;
    }
  }
  return total;
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::Histogram(
    std::string_view name) const {
  HistogramSnapshot snap;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return snap;
  }
  for (const auto& [key, cell] : it->second) {
    if (snap.count == 0) {
      snap.min = cell.min;
      snap.max = cell.max;
    } else {
      snap.min = std::min(snap.min, cell.min);
      snap.max = std::max(snap.max, cell.max);
    }
    snap.count += cell.count;
    snap.sum += cell.sum;
  }
  return snap;
}

std::vector<MetricsRegistry::CounterRow> MetricsRegistry::CounterRows(
    std::string_view prefix) const {
  std::vector<CounterRow> rows;
  for (const auto& [name, cells] : counters_) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    for (const auto& [key, value] : cells) {
      rows.push_back(CounterRow{name, key.first, key.second, value});
    }
  }
  return rows;
}

void MetricsRegistry::Reset() {
  ++generation_;
  counters_.clear();
  histograms_.clear();
}

void MetricsRegistry::ResetPrefix(std::string_view prefix) {
  ++generation_;
  auto erase_prefixed = [&](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        it = table.erase(it);
      } else {
        ++it;
      }
    }
  };
  erase_prefixed(counters_);
  erase_prefixed(histograms_);
}

}  // namespace bftbase
