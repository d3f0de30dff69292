// Harness-side tracing for the traced perfbench run.
//
// Spans are recorded at the boundaries of the library's public API, from the
// benchmark's own code only:
//   - one span per simulation event, cut by the Simulation step observer;
//   - adapter spans from a timing ServiceAdapter decorator that the
//     AdapterFactory wraps around each replica's KvAdapter / BASEFS
//     conformance wrapper (children of the step that ran them);
//   - client operations, group construction, crash and restart calls;
//   - per-batch protocol phase stamps from a ProtocolObserver on each replica.
// Spans are kept in memory (up to a cap per span kind, so rare kinds such as
// crashes are never crowded out by steps; aggregates keep counting past it)
// and written out as tab-separated text when the run ends.
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/adapter.h"
#include "src/bft/observer.h"
#include "src/sim/simulation.h"

namespace perfbench {

using bftbase::NodeId;
using bftbase::SimTime;

enum class SpanKind : uint8_t {
  kGroupSetup = 0,
  kStep,
  kAdapterExecute,
  kAdapterGetObj,
  kAdapterPutObjs,
  kClientOp,
  kPhasePrePrepareToPrepared,
  kPhasePreparedToCommitted,
  kPhaseCommittedToExecuted,
  kCrash,
  kRestart,
  kCount,
};
const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kStep;
  NodeId node = -1;         // replica or client id, -1 when not applicable
  // Number of the step span this span ran inside; a step span carries its
  // own number, so it is the parent of every span with the same step. -1 for
  // spans that enclose many steps (client operations, group construction).
  int64_t step = -1;
  uint64_t request = 0;     // harness request id (0 = none)
  int64_t start_ns = 0;     // wall clock (steady_clock)
  int64_t end_ns = 0;
  SimTime vstart_us = 0;    // virtual clock
  SimTime vend_us = 0;
};

class Tracer {
 public:
  static constexpr size_t kDefaultSpanCap = size_t{1} << 16;  // per kind

  explicit Tracer(size_t span_cap = kDefaultSpanCap) : span_cap_(span_cap) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records a finished span (kept only while its kind is under the cap).
  void Add(const Span& span);

  // --- Step spans -----------------------------------------------------------
  // Installs the step observer on `sim`; each event becomes a step span from
  // the previous cut to the observer call. Harness code that runs between
  // simulation calls should call CutStep() first so its time is not charged
  // to the next event.
  void AttachSimulation(bftbase::Simulation* sim);
  void CutStep();
  // Number of the step span the currently running event will get.
  int64_t current_step() const { return step_index_; }

  // Per-kind aggregates (they keep counting after the span cap is reached).
  uint64_t count(SpanKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  // Virtual-time durations of the protocol phase spans (microseconds).
  const std::vector<int64_t>& phase_samples(SpanKind kind) const;

  // Aggregates at one instant; two of them bracket a measured window.
  struct Totals {
    std::array<uint64_t, static_cast<size_t>(SpanKind::kCount)> counts{};
    std::array<int64_t, static_cast<size_t>(SpanKind::kCount)> ns{};
    std::array<size_t, 3> phase_samples{};
  };
  Totals totals() const;

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t spans_dropped() const { return dropped_; }
  // Writes every kept span, one per line, as tab-separated text.
  bool WriteTsv(const std::string& path) const;

 private:
  size_t span_cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::array<uint64_t, static_cast<size_t>(SpanKind::kCount)> counts_{};
  std::array<int64_t, static_cast<size_t>(SpanKind::kCount)> total_ns_{};
  std::array<std::vector<int64_t>, 3> phase_us_;
  bftbase::Simulation* sim_ = nullptr;
  int64_t step_start_ns_ = 0;
  int64_t step_index_ = 0;
};

// Timing decorator: forwards every ServiceAdapter call to the wrapped
// adapter and records a span around Execute, GetObj and PutObjs. The wrapped
// adapter's modify upcalls are forwarded to the hook the library installs on
// the decorator, so copy-on-write checkpoints see every mutation.
class TimedAdapter : public bftbase::ServiceAdapter {
 public:
  // `request_of(client)` maps a client node to the harness request it has
  // outstanding (0 when unknown).
  using RequestOfFn = std::function<uint64_t(NodeId client)>;

  TimedAdapter(std::unique_ptr<bftbase::ServiceAdapter> inner, Tracer* tracer,
               NodeId replica, RequestOfFn request_of);

  bftbase::Bytes Execute(bftbase::BytesView op, NodeId client,
                         bftbase::BytesView nondet, bool tentative) override;
  bftbase::Bytes GetObj(size_t index) override;
  void PutObjs(const std::vector<bftbase::ObjectUpdate>& objs) override;
  size_t ObjectCount() const override { return inner_->ObjectCount(); }
  void RestartClean() override { inner_->RestartClean(); }
  bftbase::Bytes ProposeNondet() override { return inner_->ProposeNondet(); }
  bool CheckNondet(bftbase::BytesView nondet) override {
    return inner_->CheckNondet(nondet);
  }

 private:
  void Record(SpanKind kind, int64_t start_ns, uint64_t request);

  std::unique_ptr<bftbase::ServiceAdapter> inner_;
  Tracer* tracer_;
  NodeId replica_;
  RequestOfFn request_of_;
};

// Per-replica protocol observer: stamps each batch's phase transitions in
// virtual time and turns them into phase spans; also counts checkpoints.
class PhaseObserver : public bftbase::ProtocolObserver {
 public:
  PhaseObserver(bftbase::Simulation* sim, Tracer* tracer)
      : sim_(sim), tracer_(tracer) {}

  void OnPrePrepareAccepted(NodeId replica, bftbase::ViewNum view,
                            bftbase::SeqNum seq,
                            const bftbase::Digest& digest) override;
  void OnPrepared(NodeId replica, bftbase::ViewNum view, bftbase::SeqNum seq,
                  const bftbase::Digest& digest) override;
  void OnCommitted(NodeId replica, bftbase::ViewNum view, bftbase::SeqNum seq,
                   const bftbase::Digest& digest) override;
  void OnExecuted(NodeId replica, bftbase::SeqNum seq,
                  const bftbase::Digest& digest) override;
  void OnCheckpointTaken(NodeId replica, bftbase::SeqNum seq,
                         const bftbase::Digest& state_digest,
                         const bftbase::Digest& reply_cache_digest) override;

  uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  struct Stamps {
    SimTime pre_prepared = -1;
    SimTime prepared = -1;
    SimTime committed = -1;
  };
  void AddPhase(SpanKind kind, NodeId replica, SimTime from, SimTime to);

  bftbase::Simulation* sim_;
  Tracer* tracer_;
  std::map<std::pair<NodeId, bftbase::SeqNum>, Stamps> open_;
  uint64_t checkpoints_taken_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
