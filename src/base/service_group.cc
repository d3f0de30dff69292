#include "src/base/service_group.h"

#include <cassert>

namespace bftbase {

ServiceGroup::ServiceGroup(Params params, AdapterFactory factory)
    : params_(params) {
  sim_ = std::make_unique<Simulation>(params_.seed, params_.cost);
  keys_ = std::make_unique<KeyTable>(0x42ULL ^ params_.seed,
                                     params_.config.node_count());
  const int n = params_.config.n();
  adapters_.reserve(n);
  services_.reserve(n);
  replicas_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    adapters_.push_back(factory(sim_.get(), id));
    ReplicaService::Options opts = params_.service;
    if (params_.durable_storage) {
      storage_.push_back(std::make_unique<StorageDevice>(sim_.get(), id));
      opts.storage = storage_.back().get();
    }
    services_.push_back(std::make_unique<ReplicaService>(
        sim_.get(), params_.config, id, adapters_.back().get(), opts));
    replicas_.push_back(std::make_unique<Replica>(
        sim_.get(), keys_.get(), params_.config, id, services_.back().get()));
  }
  clients_.resize(params_.config.max_clients);
  // Each replica's cold FullResync charged one digest per leaf with no
  // handler running; that work is done before the run starts and must not
  // hold back the messages sent before the first event.
  sim_->DiscardCpuOutsideEvents();
}

ServiceGroup::~ServiceGroup() = default;

Client& ServiceGroup::client(int i) {
  assert(i >= 0 && i < static_cast<int>(clients_.size()));
  if (!clients_[i]) {
    clients_[i] = std::make_unique<Client>(sim_.get(), keys_.get(),
                                           params_.config,
                                           params_.config.ClientId(i));
  }
  return *clients_[i];
}

Result<Bytes> ServiceGroup::Invoke(Bytes op, bool read_only, SimTime timeout) {
  return client(0).InvokeSync(std::move(op), read_only, timeout);
}

InvariantAuditor& ServiceGroup::EnableAudit() {
  if (!auditor_) {
    auditor_ = std::make_unique<InvariantAuditor>();
    for (auto& replica : replicas_) {
      auditor_->Attach(replica.get());
    }
    sim_->SetStepObserver([auditor = auditor_.get()] { auditor->CheckNow(); });
  }
  return *auditor_;
}

void ServiceGroup::EnableProactiveRecovery(SimTime period) {
  const int n = params_.config.n();
  for (int i = 0; i < n; ++i) {
    SimTime initial = period * (i + 1) / n;
    replicas_[i]->EnableProactiveRecovery(period, initial);
  }
}

}  // namespace bftbase
