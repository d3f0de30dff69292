// Shared helpers for the benchmark binaries: standard configurations and
// plain-text table printing, so every bench emits the same style of output
// EXPERIMENTS.md quotes.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/service_group.h"
#include "src/crypto/sha256_multi.h"

// --- JSON emission ----------------------------------------------------------
// Minimal writer for the BENCH_*.json artifacts (machine-readable companions
// to the printed tables; see bench_wallclock). Supports what those files
// need: nested objects/arrays, string keys, numbers, strings, booleans.

namespace bftbase {

inline ServiceGroup::Params StandardParams(uint64_t seed) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 128;  // the paper's k = 128
  params.config.log_window = 256;
  params.seed = seed;
  return params;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::string rule;
    for (size_t c = 0; c < columns_.size(); ++c) {
      rule += std::string(widths[c], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string FormatMs(SimTime us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(us) / 1000.0);
  return buf;
}

inline std::string FormatUs(SimTime us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(us));
  return buf;
}

inline std::string FormatRatio(double r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

inline std::string FormatPercent(double r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%", r * 100.0);
  return buf;
}

inline std::string FormatCount(uint64_t n) { return std::to_string(n); }

inline std::string FormatMb(uint64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1 << 20));
  return buf;
}

class JsonWriter {
 public:
  JsonWriter() { stack_.push_back(State::kTop); }

  JsonWriter& BeginObject() { return Open('{', State::kObject); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', State::kArray); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view k) {
    Separate();
    Quote(k);
    out_ += ": ";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& Value(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(int v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(buf);
  }
  JsonWriter& Value(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Value(std::string_view s) {
    Separate();
    Quote(s);
    return *this;
  }
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }

  // Convenience: Key + Value in one call.
  template <typename T>
  JsonWriter& Field(std::string_view k, T v) {
    Key(k);
    return Value(v);
  }

  const std::string& str() const { return out_; }

  // Writes the document (plus trailing newline) to `path`; false on error.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
              std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  enum class State { kTop, kObject, kArray };

  // Emits the separating comma/newline/indent owed before a new element.
  void Separate() {
    if (pending_key_) {
      return;  // value directly after its key: no separator
    }
    if (needs_comma_.size() >= stack_.size() &&
        needs_comma_[stack_.size() - 1]) {
      out_ += ",";
    }
    if (stack_.back() != State::kTop) {
      out_ += "\n";
      out_.append(2 * (stack_.size() - 1), ' ');
    }
    if (needs_comma_.size() < stack_.size()) {
      needs_comma_.resize(stack_.size(), false);
    }
    needs_comma_[stack_.size() - 1] = true;
  }

  JsonWriter& Open(char c, State state) {
    Separate();
    pending_key_ = false;
    out_ += c;
    stack_.push_back(state);
    if (needs_comma_.size() < stack_.size()) {
      needs_comma_.resize(stack_.size(), false);
    }
    needs_comma_[stack_.size() - 1] = false;
    return *this;
  }

  JsonWriter& Close(char c) {
    bool had_elements = needs_comma_[stack_.size() - 1];
    stack_.pop_back();
    if (had_elements) {
      out_ += "\n";
      out_.append(2 * (stack_.size() - 1), ' ');
    }
    out_ += c;
    return *this;
  }

  JsonWriter& Raw(const std::string& s) {
    Separate();
    pending_key_ = false;
    out_ += s;
    return *this;
  }

  void Quote(std::string_view s) {
    pending_key_ = false;
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<State> stack_;
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

// Every BENCH_*.json carries a "metadata" block identifying the machine
// conditions the numbers were taken under: host core count and whether the
// SHA-NI kernel was available. Benches that run an active adversary
// additionally record which strategy set was driven (`adversary`: a strategy
// name, "mixed", or "none"); benches that stand up sharded deployments
// record the largest shard count swept (`shards`).
inline void EmitBenchMetadata(JsonWriter& json,
                              const char* adversary = nullptr,
                              int shards = 0) {
  json.Key("metadata");
  json.BeginObject();
  json.Field("hardware_concurrency",
             static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.Field("sha_ni", sha256_multi::HasShaNi());
  if (adversary != nullptr) {
    json.Field("adversary", adversary);
  }
  if (shards > 0) {
    json.Field("shards", shards);
  }
  json.EndObject();
}

// --- Checkpoint figures -----------------------------------------------------
// What a run's checkpoints cost, in virtual time: the primary's
// high-watermark stalls ("replica.watermark_stall_us": stretches in which it
// held proposable requests with its next sequence number past stable +
// log_window), the checkpoint digest CPU the replicas ran on their idle
// lanes and the share of it paced into foreground handlers
// ("sim.idle_lane_cpu_us", "sim.idle_lane_forced_us"; DESIGN.md §10, §12),
// and the slowest take-to-vote lag ("replica.checkpoint_vote_lag_us").
struct CheckpointFigures {
  uint64_t watermark_stalls = 0;
  SimTime watermark_stall_us = 0;
  uint64_t lane_idle_us = 0;
  uint64_t lane_forced_us = 0;
  SimTime max_vote_lag_us = 0;

  static CheckpointFigures Read(const MetricsRegistry& metrics) {
    CheckpointFigures figures;
    const auto stalls = metrics.Histogram("replica.watermark_stall_us");
    figures.watermark_stalls = stalls.count;
    figures.watermark_stall_us = stalls.sum;
    figures.lane_idle_us = metrics.Total("sim.idle_lane_cpu_us");
    figures.lane_forced_us = metrics.Total("sim.idle_lane_forced_us");
    figures.max_vote_lag_us =
        metrics.Histogram("replica.checkpoint_vote_lag_us").max;
    return figures;
  }
  double LaneUsPerOp(uint64_t ops) const {
    return ops > 0 ? static_cast<double>(lane_idle_us + lane_forced_us) / ops
                   : 0;
  }
  double ForcedShare() const {
    const uint64_t lane = lane_idle_us + lane_forced_us;
    return lane > 0 ? static_cast<double>(lane_forced_us) / lane : 0;
  }

  static std::vector<std::string> Columns() {
    return {"hw stalls", "stall ms", "lane us/op", "forced", "max lag ms"};
  }
  // Appends one cell per Columns() entry.
  void AppendCells(std::vector<std::string>* row, uint64_t ops) const {
    char lane[64];
    std::snprintf(lane, sizeof(lane), "%.1f", LaneUsPerOp(ops));
    row->insert(row->end(),
                {FormatCount(watermark_stalls), FormatMs(watermark_stall_us),
                 lane, FormatPercent(ForcedShare()),
                 FormatMs(max_vote_lag_us)});
  }
  void EmitJsonFields(JsonWriter& json, uint64_t ops) const {
    json.Field("watermark_stalls", watermark_stalls);
    json.Field("watermark_stall_us", static_cast<int64_t>(watermark_stall_us));
    json.Field("lane_cpu_us_per_op", LaneUsPerOp(ops));
    json.Field("lane_forced_share", ForcedShare());
    json.Field("max_checkpoint_vote_lag_us",
               static_cast<int64_t>(max_vote_lag_us));
  }
};

}  // namespace bftbase

#endif  // BENCH_BENCH_COMMON_H_
