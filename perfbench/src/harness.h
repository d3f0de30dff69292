// Measurement helpers shared by the perfbench workloads: the percentile
// reporting rule, failure accounting, the open-loop arrival generator, and
// small wall-clock/statistics utilities.
//
// Everything here is harness-side: it observes the library through its
// public API and never changes what the simulated system does.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/status.h"

namespace perfbench {

using bftbase::SimTime;

// --- Percentile rule ---------------------------------------------------------
// A percentile is reported only when at least kMinBeyond samples lie beyond
// its nearest rank, so a tail figure is never one or two unlucky samples.
constexpr uint64_t kMinBeyond = 10;

// Samples strictly beyond the nearest-rank position ceil(q * n) (q in (0,1)).
uint64_t SamplesBeyond(uint64_t n, double q);
bool PercentileReportable(uint64_t n, double q);

struct TailReport {
  double q = 0;         // 0 when no candidate percentile is reportable
  int64_t value = 0;    // nearest-rank sample at q
  uint64_t samples = 0;
};
// The highest of p50, p90, p99, p999 and p9999 that is reportable for the
// sample set, with its value and the sample count.
TailReport HighestReportable(std::vector<int64_t> samples);
// Label for a percentile: 0.99 -> "p99", 0.999 -> "p999".
std::string PercentileLabel(double q);

// --- Failure accounting ------------------------------------------------------
// Every attempted client operation ends in exactly one outcome. A failed
// operation (timed out, rejected, or answered with a wrong result) has no
// latency sample and counts as missing every latency limit.
enum class Outcome { kOk, kTimedOut, kRejected, kWrongResult };

class OpLedger {
 public:
  // `latency_us` is kept only for kOk.
  void Record(Outcome outcome, int64_t latency_us = 0);

  uint64_t attempted() const { return attempted_; }
  uint64_t ok() const { return latencies_.size(); }
  uint64_t timed_out() const { return timed_out_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t failed() const { return timed_out_ + rejected_ + wrong_; }
  double failed_frac() const;
  // Attempted operations that missed `limit_us`: slower successes plus every
  // failure.
  uint64_t MissedLimit(int64_t limit_us) const;
  const std::vector<int64_t>& latencies() const { return latencies_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t rejected_ = 0;
  uint64_t wrong_ = 0;
  std::vector<int64_t> latencies_;  // successes only, in completion order
};

// --- Open-loop arrivals ------------------------------------------------------
// Poisson arrival times (exponential gaps at `rate_per_s`), starting after
// `start`. A pure function of `seed`.
std::vector<SimTime> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     size_t count, SimTime start);

// Drives requests that fall due on a fixed schedule through a fixed set of
// single-outstanding-operation clients. A request that falls due while every
// client is busy waits in a FIFO; its latency is measured from its due time,
// so a stall also charges the requests queued behind it.
class OpenLoopGenerator {
 public:
  // Sends request `index` on client `client`; the callee must call `done`
  // exactly once (inside the simulation) when the request completes.
  using DoneFn = std::function<void(Outcome)>;
  using SendFn = std::function<void(size_t index, int client, DoneFn done)>;

  OpenLoopGenerator(bftbase::Simulation* sim, std::vector<SimTime> due,
                 int clients, SendFn send);
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  // Arms the arrival timer for the first request.
  void Start();
  bool finished() const { return completed_ == due_.size(); }
  // Every request still queued or in flight is recorded as timed out.
  void ExpireOutstanding();

  const OpLedger& ledger() const { return ledger_; }
  // Virtual time each request waited between falling due and being sent.
  const std::vector<SimTime>& queue_waits() const { return queue_waits_; }

 private:
  void OnArrival();
  void Dispatch();

  bftbase::Simulation* sim_;
  std::vector<SimTime> due_;
  SendFn send_;
  std::vector<int> free_clients_;
  std::deque<size_t> waiting_;
  std::vector<char> in_flight_;
  size_t next_arrival_ = 0;
  size_t completed_ = 0;
  OpLedger ledger_;
  std::vector<SimTime> queue_waits_;
};

// --- Small utilities ---------------------------------------------------------
inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) * 1e-9;
}

double Median(std::vector<double> values);
// Nearest-rank percentile of arbitrary samples (0 when empty).
int64_t PercentileOf(std::vector<int64_t> samples, double q);
// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
