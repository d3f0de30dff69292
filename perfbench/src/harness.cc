#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/percentile.h"
#include "src/util/rng.h"

namespace perfbench {

uint64_t SamplesBeyond(uint64_t n, double q) {
  if (n == 0 || q <= 0.0 || q >= 1.0) {
    return 0;
  }
  // Same nearest-rank position as bftbase::PercentileOfSorted.
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  rank = std::max(rank, 1.0);
  const uint64_t r = static_cast<uint64_t>(rank);
  return r >= n ? 0 : n - r;
}

bool PercentileReportable(uint64_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

TailReport HighestReportable(std::vector<int64_t> samples) {
  TailReport report;
  report.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (PercentileReportable(samples.size(), q)) {
      report.q = q;
      report.value = bftbase::PercentileOfSorted(samples, q);
    }
  }
  return report;
}

std::string PercentileLabel(double q) {
  // 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999".
  std::string digits = std::to_string(q).substr(2);
  while (!digits.empty() && digits.back() == '0') {
    digits.pop_back();
  }
  if (digits.size() == 1) {
    digits += "0";
  }
  return "p" + digits;
}

void OpLedger::Record(Outcome outcome, int64_t latency_us) {
  ++attempted_;
  switch (outcome) {
    case Outcome::kOk:
      latencies_.push_back(latency_us);
      break;
    case Outcome::kTimedOut:
      ++timed_out_;
      break;
    case Outcome::kRejected:
      ++rejected_;
      break;
    case Outcome::kWrongResult:
      ++wrong_;
      break;
  }
}

double OpLedger::failed_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

uint64_t OpLedger::MissedLimit(int64_t limit_us) const {
  uint64_t missed = failed();
  for (int64_t latency : latencies_) {
    if (latency > limit_us) {
      ++missed;
    }
  }
  return missed;
}

std::vector<SimTime> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     size_t count, SimTime start) {
  bftbase::Rng rng(seed ^ 0x6f70656e6c6f6f70ULL);
  std::vector<SimTime> due;
  due.reserve(count);
  const double mean_gap_us = static_cast<double>(bftbase::kSecond) / rate_per_s;
  double t = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) * mean_gap_us;
    due.push_back(static_cast<SimTime>(t));
  }
  return due;
}

OpenLoopGenerator::OpenLoopGenerator(bftbase::Simulation* sim,
                               std::vector<SimTime> due, int clients,
                               SendFn send)
    : sim_(sim),
      due_(std::move(due)),
      send_(std::move(send)),
      in_flight_(due_.size(), 0),
      queue_waits_(due_.size(), 0) {
  // Highest id at the bottom of the stack: client 0 is handed out first.
  for (int c = clients - 1; c >= 0; --c) {
    free_clients_.push_back(c);
  }
}

void OpenLoopGenerator::Start() {
  if (next_arrival_ < due_.size()) {
    SimTime delay = std::max<SimTime>(0, due_[next_arrival_] - sim_->Now());
    sim_->After(bftbase::Simulation::kNoOwner, delay, [this] { OnArrival(); });
  }
}

void OpenLoopGenerator::OnArrival() {
  // Every request due by now joins the queue (several may share an instant).
  while (next_arrival_ < due_.size() && due_[next_arrival_] <= sim_->Now()) {
    waiting_.push_back(next_arrival_++);
  }
  Dispatch();
  Start();
}

void OpenLoopGenerator::Dispatch() {
  while (!waiting_.empty() && !free_clients_.empty()) {
    const size_t index = waiting_.front();
    waiting_.pop_front();
    const int client = free_clients_.back();
    free_clients_.pop_back();
    queue_waits_[index] = sim_->Now() - due_[index];
    in_flight_[index] = 1;
    send_(index, client, [this, index, client](Outcome outcome) {
      if (!in_flight_[index]) {
        return;  // expired by ExpireOutstanding
      }
      in_flight_[index] = 0;
      ++completed_;
      ledger_.Record(outcome, sim_->Now() - due_[index]);
      free_clients_.push_back(client);
      Dispatch();
    });
  }
}

void OpenLoopGenerator::ExpireOutstanding() {
  for (char& flying : in_flight_) {
    if (flying) {
      flying = 0;
      ledger_.Record(Outcome::kTimedOut);
      ++completed_;
    }
  }
  // Requests never sent (still queued or not yet due) time out too.
  const size_t unsent = waiting_.size() + (due_.size() - next_arrival_);
  for (size_t i = 0; i < unsent; ++i) {
    ledger_.Record(Outcome::kTimedOut);
    ++completed_;
  }
  waiting_.clear();
  next_arrival_ = due_.size();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

int64_t PercentileOf(std::vector<int64_t> samples, double q) {
  return bftbase::Percentile(std::move(samples), q);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
