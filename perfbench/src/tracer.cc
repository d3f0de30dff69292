#include "perfbench/src/tracer.h"

#include <cstdio>

#include "perfbench/src/harness.h"

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGroupSetup:
      return "group.setup";
    case SpanKind::kStep:
      return "sim.step";
    case SpanKind::kAdapterExecute:
      return "adapter.execute";
    case SpanKind::kAdapterGetObj:
      return "adapter.get_obj";
    case SpanKind::kAdapterPutObjs:
      return "adapter.put_objs";
    case SpanKind::kClientOp:
      return "client.op";
    case SpanKind::kPhasePrePrepareToPrepared:
      return "phase.preprepare_to_prepared";
    case SpanKind::kPhasePreparedToCommitted:
      return "phase.prepared_to_committed";
    case SpanKind::kPhaseCommittedToExecuted:
      return "phase.committed_to_executed";
    case SpanKind::kCrash:
      return "replica.crash";
    case SpanKind::kRestart:
      return "replica.restart";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

namespace {

size_t PhaseSlot(SpanKind kind) {
  return static_cast<size_t>(kind) -
         static_cast<size_t>(SpanKind::kPhasePrePrepareToPrepared);
}

bool IsPhase(SpanKind kind) {
  return kind == SpanKind::kPhasePrePrepareToPrepared ||
         kind == SpanKind::kPhasePreparedToCommitted ||
         kind == SpanKind::kPhaseCommittedToExecuted;
}

}  // namespace

void Tracer::Add(const Span& span) {
  const size_t k = static_cast<size_t>(span.kind);
  ++counts_[k];
  total_ns_[k] += span.end_ns - span.start_ns;
  if (IsPhase(span.kind)) {
    phase_us_[PhaseSlot(span.kind)].push_back(span.vend_us - span.vstart_us);
  }
  if (counts_[k] <= span_cap_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

void Tracer::AttachSimulation(bftbase::Simulation* sim) {
  sim_ = sim;
  step_start_ns_ = WallNs();
  sim->SetStepObserver([this] {
    const int64_t now = WallNs();
    Span span;
    span.kind = SpanKind::kStep;
    span.step = step_index_++;
    span.start_ns = step_start_ns_;
    span.end_ns = now;
    span.vstart_us = span.vend_us = sim_->Now();
    Add(span);
    step_start_ns_ = now;
  });
}

void Tracer::CutStep() { step_start_ns_ = WallNs(); }

const std::vector<int64_t>& Tracer::phase_samples(SpanKind kind) const {
  return phase_us_[PhaseSlot(kind)];
}

Tracer::Totals Tracer::totals() const {
  Totals t;
  t.counts = counts_;
  t.ns = total_ns_;
  for (size_t i = 0; i < phase_us_.size(); ++i) {
    t.phase_samples[i] = phase_us_[i].size();
  }
  return t;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "kind\tnode\tstep\trequest\tstart_ns\tend_ns\tvstart_us\t"
               "vend_us\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%d\t%lld\t%llu\t%lld\t%lld\t%lld\t%lld\n",
                 SpanKindName(s.kind), s.node,
                 static_cast<long long>(s.step),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.vstart_us),
                 static_cast<long long>(s.vend_us));
  }
  return std::fclose(f) == 0;
}

TimedAdapter::TimedAdapter(std::unique_ptr<bftbase::ServiceAdapter> inner,
                           Tracer* tracer, NodeId replica,
                           RequestOfFn request_of)
    : inner_(std::move(inner)),
      tracer_(tracer),
      replica_(replica),
      request_of_(std::move(request_of)) {
  // The library installs its modify hook on this decorator; route the
  // wrapped adapter's upcalls to it.
  inner_->SetModifyFn([this](size_t index) { NotifyModify(index); });
}

void TimedAdapter::Record(SpanKind kind, int64_t start_ns, uint64_t request) {
  Span span;
  span.kind = kind;
  span.node = replica_;
  span.step = tracer_->current_step();
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = WallNs();
  tracer_->Add(span);
}

bftbase::Bytes TimedAdapter::Execute(bftbase::BytesView op, NodeId client,
                                     bftbase::BytesView nondet,
                                     bool tentative) {
  const int64_t start = WallNs();
  bftbase::Bytes result = inner_->Execute(op, client, nondet, tentative);
  Record(SpanKind::kAdapterExecute, start,
         request_of_ ? request_of_(client) : 0);
  return result;
}

bftbase::Bytes TimedAdapter::GetObj(size_t index) {
  const int64_t start = WallNs();
  bftbase::Bytes value = inner_->GetObj(index);
  Record(SpanKind::kAdapterGetObj, start, 0);
  return value;
}

void TimedAdapter::PutObjs(const std::vector<bftbase::ObjectUpdate>& objs) {
  const int64_t start = WallNs();
  inner_->PutObjs(objs);
  Record(SpanKind::kAdapterPutObjs, start, 0);
}

void PhaseObserver::AddPhase(SpanKind kind, NodeId replica, SimTime from,
                             SimTime to) {
  if (from < 0 || to < from) {
    return;
  }
  Span span;
  span.kind = kind;
  span.node = replica;
  span.step = tracer_->current_step();
  span.start_ns = span.end_ns = WallNs();
  span.vstart_us = from;
  span.vend_us = to;
  tracer_->Add(span);
}

void PhaseObserver::OnPrePrepareAccepted(NodeId replica, bftbase::ViewNum,
                                         bftbase::SeqNum seq,
                                         const bftbase::Digest&) {
  // A re-proposal after a view change restarts the batch's stamps.
  open_[{replica, seq}] = Stamps{sim_->Now(), -1, -1};
}

void PhaseObserver::OnPrepared(NodeId replica, bftbase::ViewNum,
                               bftbase::SeqNum seq, const bftbase::Digest&) {
  auto it = open_.find({replica, seq});
  if (it != open_.end() && it->second.prepared < 0) {
    it->second.prepared = sim_->Now();
  }
}

void PhaseObserver::OnCommitted(NodeId replica, bftbase::ViewNum,
                                bftbase::SeqNum seq, const bftbase::Digest&) {
  auto it = open_.find({replica, seq});
  if (it != open_.end() && it->second.committed < 0) {
    it->second.committed = sim_->Now();
  }
}

void PhaseObserver::OnExecuted(NodeId replica, bftbase::SeqNum seq,
                               const bftbase::Digest&) {
  auto it = open_.find({replica, seq});
  if (it == open_.end()) {
    return;  // executed from a WAL replay or state transfer
  }
  const Stamps s = it->second;
  open_.erase(it);
  if (s.prepared < 0 || s.committed < 0) {
    return;
  }
  AddPhase(SpanKind::kPhasePrePrepareToPrepared, replica, s.pre_prepared,
           s.prepared);
  AddPhase(SpanKind::kPhasePreparedToCommitted, replica, s.prepared,
           s.committed);
  AddPhase(SpanKind::kPhaseCommittedToExecuted, replica, s.committed,
           sim_->Now());
}

void PhaseObserver::OnCheckpointTaken(NodeId, bftbase::SeqNum,
                                      const bftbase::Digest&,
                                      const bftbase::Digest&) {
  ++checkpoints_taken_;
}

}  // namespace perfbench
