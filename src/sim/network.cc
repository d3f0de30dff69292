#include "src/sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/bufpool.h"
#include "src/util/log.h"

namespace bftbase {

namespace {

constexpr const char kMsgsOffered[] = "net.messages_offered";
constexpr const char kMsgsDelivered[] = "net.messages_delivered";
constexpr const char kMsgsDropped[] = "net.messages_dropped";
constexpr const char kMsgsDuplicated[] = "net.messages_duplicated";
constexpr const char kBytesOffered[] = "net.bytes_offered";
constexpr const char kBytesDelivered[] = "net.bytes_delivered";
constexpr const char kBytesDropped[] = "net.bytes_dropped";
// Hot-path accounting: real payload copies the fabric performed.
constexpr const char kPayloadCopies[] = "hot.payload_copies";
constexpr const char kBytesCopied[] = "hot.bytes_copied";

// The wire envelope's first byte is the MsgType (see Channel::Seal), so the
// network can label traffic per message kind without parsing. Payloads that
// don't look like an envelope (unit tests, garbage injection) get tag 0.
int MessageTag(const Bytes& payload) {
  if (payload.empty() || payload[0] < 1 || payload[0] > 15) {
    return 0;
  }
  return payload[0];
}

}  // namespace

Network::Network(Simulation* sim) : sim_(sim) {
  MetricsRegistry& metrics = sim_->metrics();
  c_msgs_offered_ = metrics.CounterHandle(kMsgsOffered);
  c_msgs_delivered_ = metrics.CounterHandle(kMsgsDelivered);
  c_msgs_dropped_ = metrics.CounterHandle(kMsgsDropped);
  c_msgs_duplicated_ = metrics.CounterHandle(kMsgsDuplicated);
  c_bytes_offered_ = metrics.CounterHandle(kBytesOffered);
  c_bytes_delivered_ = metrics.CounterHandle(kBytesDelivered);
  c_bytes_dropped_ = metrics.CounterHandle(kBytesDropped);
  c_payload_copies_ = metrics.CounterHandle(kPayloadCopies);
  c_bytes_copied_ = metrics.CounterHandle(kBytesCopied);
}

void Network::CountDrop(NodeId from, NodeId to, int tag, size_t size) {
  c_msgs_dropped_.Inc(from, tag);
  c_bytes_dropped_.Inc(from, tag, size);
  sim_->trace().Record(TraceEvent::kMsgDrop, sim_->Now(), from, to, size,
                       static_cast<uint64_t>(tag));
}

void Network::CountOffered(NodeId from, NodeId to, int tag,
                           const Bytes& payload) {
  // Accounting: every Send() is "offered"; only traffic that survives the
  // fault checks counts as "delivered". Counting sent traffic before the
  // checks (as earlier revisions did) inflates reported bandwidth under
  // fault injection by exactly the dropped volume.
  c_msgs_offered_.Inc(from, tag);
  c_bytes_offered_.Inc(from, tag, payload.size());
  sim_->trace().Record(TraceEvent::kMsgSend, sim_->Now(), from, to,
                       payload.size(), static_cast<uint64_t>(tag), payload);
}

void Network::CountCopy(NodeId from, int tag, size_t size) {
  c_payload_copies_.Inc(from, tag);
  c_bytes_copied_.Inc(from, tag, size);
}

bool Network::PassesFaultChecks(NodeId from, NodeId to) {
  // Fast path: with no fault lever armed the answer is always "yes" and no
  // RNG draw would happen, so skipping the per-message set walks is
  // observationally identical.
  if (no_faults_armed_) {
    return true;
  }
  if (isolated_.count(from) > 0 || isolated_.count(to) > 0 ||
      LinkBlocked(from, to)) {
    return false;
  }
  if (drop_probability_ > 0.0 && sim_->rng().NextBool(drop_probability_)) {
    return false;
  }
  if (!pair_drop_.empty()) {
    auto it = pair_drop_.find({from, to});
    if (it != pair_drop_.end() && sim_->rng().NextBool(it->second)) {
      return false;
    }
  }
  return true;
}

SimTime Network::SampleJitter(const JitterSpec& spec) {
  Rng& rng = sim_->rng();
  double draw = 0.0;
  switch (spec.kind) {
    case JitterSpec::Kind::kNone:
      return 0;
    case JitterSpec::Kind::kUniform:
      return spec.a <= 0.0
                 ? 0
                 : static_cast<SimTime>(rng.NextBelow(
                       static_cast<uint64_t>(spec.a) + 1));
    case JitterSpec::Kind::kLogNormal: {
      // Box-Muller from two uniform draws; u1 nudged away from 0 so the log
      // is finite. Deterministic given the seed.
      double u1 = rng.NextDouble();
      double u2 = rng.NextDouble();
      if (u1 < 1e-12) {
        u1 = 1e-12;
      }
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
      draw = std::exp(spec.a + spec.b * z);
      break;
    }
    case JitterSpec::Kind::kPareto: {
      // Inverse-CDF: scale / (1 - u)^(1/alpha), shifted so the minimum draw
      // is 0 (the deterministic base latency already covers the floor).
      double u = rng.NextDouble();
      if (u > 1.0 - 1e-12) {
        u = 1.0 - 1e-12;
      }
      const double alpha = spec.b > 0.0 ? spec.b : 1.0;
      draw = spec.a * (std::pow(1.0 - u, -1.0 / alpha) - 1.0);
      break;
    }
  }
  if (draw < 0.0) {
    draw = 0.0;
  }
  if (spec.cap_us > 0 && draw > static_cast<double>(spec.cap_us)) {
    draw = static_cast<double>(spec.cap_us);
  }
  return static_cast<SimTime>(draw);
}

SimTime Network::DeliveryLatency(NodeId from, NodeId to, size_t size) {
  SimTime latency = sim_->cost().MessageLatency(size);
  const JitterSpec* jitter = &default_jitter_;
  if (!links_.empty()) {
    auto it = links_.find({from, to});
    if (it != links_.end()) {
      latency += it->second.delay_us;
      if (it->second.jitter.kind != JitterSpec::Kind::kNone) {
        jitter = &it->second.jitter;
      }
    }
  }
  return latency + SampleJitter(*jitter);
}

void Network::Deliver(NodeId from, NodeId to, int tag,
                      std::shared_ptr<const Payload> payload) {
  const size_t size = payload->bytes.size();
  c_msgs_delivered_.Inc(from, tag);
  c_bytes_delivered_.Inc(from, tag, size);

  SimTime latency;
  if (from == to) {
    latency = sim_->cost().message_handling_us;  // loopback
  } else {
    latency = DeliveryLatency(from, to, size);
  }
  // Messages leave the sender once its handler's accumulated CPU work is
  // done; this is what makes MAC/digest computation show up in end-to-end
  // latency.
  SimTime depart = sim_->CurrentHandlerFinishTime();
  sim_->ScheduleDelivery(depart + latency, to, from, payload, tag);

  // Bounded duplication: extra deliveries alias the same shared buffer (no
  // copy) and draw independent latencies so duplicates can overtake the
  // original and interleave with later traffic.
  if (duplicate_probability_ > 0.0 && duplicate_max_ > 0 && from != to &&
      sim_->rng().NextBool(duplicate_probability_)) {
    const int copies =
        1 + static_cast<int>(sim_->rng().NextBelow(
                static_cast<uint64_t>(duplicate_max_)));
    const SimTime base = sim_->cost().MessageLatency(size);
    for (int i = 0; i < copies; ++i) {
      c_msgs_duplicated_.Inc(from, tag);
      c_msgs_delivered_.Inc(from, tag);
      c_bytes_delivered_.Inc(from, tag, size);
      SimTime dup_latency =
          DeliveryLatency(from, to, size) +
          static_cast<SimTime>(
              sim_->rng().NextBelow(static_cast<uint64_t>(2 * base) + 1));
      sim_->ScheduleDelivery(depart + dup_latency, to, from, payload, tag);
    }
  }
}

void Network::Send(NodeId from, NodeId to, Bytes payload) {
  const int tag = MessageTag(payload);
  CountOffered(from, to, tag, payload);
  if (!PassesFaultChecks(from, to)) {
    CountDrop(from, to, tag, payload.size());
    return;
  }
  if (interceptor_ && !interceptor_(from, to, payload)) {
    CountDrop(from, to, tag, payload.size());
    return;
  }
  // The buffer is moved into the Payload (no copy); its storage recycles
  // through the BufferPool when the last delivery releases it.
  Deliver(from, to, tag, std::make_shared<const Payload>(std::move(payload)));
}

void Network::Multicast(NodeId from, NodeId first, NodeId last,
                        const Bytes& payload, NodeId skip) {
  const int tag = MessageTag(payload);
  // One shared Payload for every recipient, materialized only when the first
  // recipient actually survives the fault checks.
  std::shared_ptr<const Payload> shared;
  for (NodeId to = first; to < last; ++to) {
    if (to == skip) {
      continue;
    }
    CountOffered(from, to, tag, payload);
    if (!PassesFaultChecks(from, to)) {
      CountDrop(from, to, tag, payload.size());
      continue;
    }
    if (interceptor_) {
      // Copy-on-write at the fault-injection boundary: the interceptor gets a
      // private copy, so a mutation for this recipient can never alias into
      // the buffer other recipients (or the caller) see.
      Bytes copy = payload;
      CountCopy(from, tag, copy.size());
      if (!interceptor_(from, to, copy)) {
        CountDrop(from, to, tag, copy.size());
        continue;
      }
      if (copy == payload) {
        // Untouched: fold back onto the shared Payload so the untouched
        // recipients still share one digest memo. The private copy doubles
        // as the shared Payload if none exists yet.
        if (shared == nullptr) {
          shared = std::make_shared<const Payload>(std::move(copy));
        }
        Deliver(from, to, tag, shared);
      } else {
        Deliver(from, to, tag,
                std::make_shared<const Payload>(std::move(copy)));
      }
    } else {
      if (shared == nullptr) {
        CountCopy(from, tag, payload.size());
        Bytes copy = BufferPool::Acquire();
        copy.assign(payload.begin(), payload.end());
        shared = std::make_shared<const Payload>(std::move(copy));
      }
      Deliver(from, to, tag, shared);
    }
  }
}

void Network::BlockLink(NodeId a, NodeId b) {
  blocked_links_.insert(LinkKey(a, b));
  RefreshFaultFlag();
}

void Network::UnblockLink(NodeId a, NodeId b) {
  blocked_links_.erase(LinkKey(a, b));
  RefreshFaultFlag();
}

void Network::Isolate(NodeId node) {
  isolated_.insert(node);
  RefreshFaultFlag();
}

void Network::Heal(NodeId node) {
  isolated_.erase(node);
  RefreshFaultFlag();
}

void Network::AddDelay(NodeId from, NodeId to, SimTime delta_us) {
  auto it = links_.try_emplace({from, to}).first;
  it->second.delay_us += delta_us;
  assert(it->second.delay_us >= 0);
  PruneLink(it);
}

SimTime Network::Delay(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? 0 : it->second.delay_us;
}

void Network::SetLinkJitter(NodeId a, NodeId b, JitterSpec spec) {
  for (const Link& key : {Link{a, b}, Link{b, a}}) {
    auto it = links_.try_emplace(key).first;
    it->second.jitter = spec;
    PruneLink(it);
  }
}

void Network::PruneLink(std::map<Link, LinkSpec>::iterator it) {
  if (it->second.delay_us == 0 &&
      it->second.jitter.kind == JitterSpec::Kind::kNone) {
    links_.erase(it);
  }
}

void Network::SetPairDropProbability(NodeId from, NodeId to, double p) {
  if (p <= 0.0) {
    pair_drop_.erase({from, to});
  } else {
    pair_drop_[{from, to}] = p;
  }
  RefreshFaultFlag();
}

void Network::SetDuplication(double p, int max_copies) {
  duplicate_probability_ = p;
  duplicate_max_ = max_copies;
}

bool Network::LinkBlocked(NodeId a, NodeId b) const {
  return blocked_links_.count(LinkKey(a, b)) > 0;
}

uint64_t Network::messages_offered() const {
  return sim_->metrics().Total(kMsgsOffered);
}

uint64_t Network::messages_delivered() const {
  return sim_->metrics().Total(kMsgsDelivered);
}

uint64_t Network::messages_dropped() const {
  return sim_->metrics().Total(kMsgsDropped);
}

uint64_t Network::messages_duplicated() const {
  return sim_->metrics().Total(kMsgsDuplicated);
}

uint64_t Network::bytes_offered() const {
  return sim_->metrics().Total(kBytesOffered);
}

uint64_t Network::bytes_delivered() const {
  return sim_->metrics().Total(kBytesDelivered);
}

uint64_t Network::payload_copies() const {
  return sim_->metrics().Total(kPayloadCopies);
}

uint64_t Network::bytes_copied() const {
  return sim_->metrics().Total(kBytesCopied);
}

void Network::ResetStats() { sim_->metrics().ResetPrefix("net."); }

}  // namespace bftbase
