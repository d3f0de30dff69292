// Component micro-benchmarks (google-benchmark, wall-clock): the raw
// throughput of the primitives whose modeled costs the simulation charges —
// SHA-256, HMAC, authenticators, the partition tree, the codecs, and the
// conformance wrapper's abstraction function.
#include <benchmark/benchmark.h>

#include "src/base/partition_tree.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/conformance_wrapper.h"
#include "src/bft/message.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/util/codec.h"
#include "src/util/xdr.h"

namespace bftbase {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(4096);

void BM_AuthenticatorCompute(benchmark::State& state) {
  KeyTable keys(0x42, 8);
  Bytes message(32, 0x7f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Authenticator::Compute(keys, 0, static_cast<int>(state.range(0)),
                               message));
  }
}
BENCHMARK(BM_AuthenticatorCompute)->Arg(4)->Arg(7)->Arg(13);

void BM_PartitionTreeUpdate(benchmark::State& state) {
  PartitionTree tree(16);
  tree.Resize(state.range(0));
  for (size_t i = 0; i < tree.leaf_count(); ++i) {
    tree.SetLeaf(i, Digest::Of(ToBytes(std::to_string(i))));
  }
  tree.Root();
  Digest d = Digest::Of(ToBytes("update"));
  size_t leaf = 0;
  for (auto _ : state) {
    tree.SetLeaf(leaf % tree.leaf_count(), d);
    benchmark::DoNotOptimize(tree.Root());
    ++leaf;
  }
}
BENCHMARK(BM_PartitionTreeUpdate)->Arg(1024)->Arg(65536);

// One request body of the given size plus the 8-digest PRE-PREPARE that
// orders it and seven like it.
void BM_MessageCodecRoundTrip(benchmark::State& state) {
  RequestMsg request;
  request.client = 4;
  request.timestamp = 7;
  request.op = Bytes(state.range(0), 0x22);
  PrePrepareMsg msg;
  msg.view = 3;
  msg.seq = 1000;
  msg.nondet = Bytes(8, 0x01);
  msg.request_digests.assign(8, request.ComputeDigest());
  for (auto _ : state) {
    auto decoded_request = RequestMsg::Decode(request.Encode());
    auto decoded = PrePrepareMsg::Decode(msg.Encode());
    benchmark::DoNotOptimize(decoded_request);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageCodecRoundTrip)->Arg(128)->Arg(4096);

void BM_XdrFattrRoundTrip(benchmark::State& state) {
  XdrWriter warm;
  for (auto _ : state) {
    XdrWriter w;
    for (int i = 0; i < 16; ++i) {
      w.PutUint64(i);
      w.PutString("name");
      w.PutOpaque(Bytes(32, 0x01));
    }
    XdrReader r(w.data());
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(r.GetUint64());
      benchmark::DoNotOptimize(r.GetString());
      benchmark::DoNotOptimize(r.GetOpaque());
    }
  }
}
BENCHMARK(BM_XdrFattrRoundTrip);

void BM_AbstractionFunction(benchmark::State& state) {
  // GetObj over a directory with state.range(0) entries: readdir + sort +
  // oid translation + XDR encode — the per-object cost of checkpoints and
  // state transfer.
  Simulation sim(1);
  FsConformanceWrapper::Options options;
  options.array_size = static_cast<uint32_t>(state.range(0) + 8);
  FsConformanceWrapper wrapper(
      &sim, [&] { return MakeFileSystem(FsVendor::kLinear, &sim, 0); },
      options);
  NfsCall mk;
  mk.proc = NfsProc::kCreate;
  mk.oid = kRootOid;
  for (int i = 0; i < state.range(0); ++i) {
    mk.name = "f" + std::to_string(i);
    wrapper.Execute(mk.Encode(), 100, Bytes(), false);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrapper.GetObj(0));  // the root directory
  }
}
BENCHMARK(BM_AbstractionFunction)->Arg(16)->Arg(256);

}  // namespace
}  // namespace bftbase

BENCHMARK_MAIN();
