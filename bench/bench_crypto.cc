// Crypto hot-path microbenchmark (BENCH_crypto.json).
//
// The profile in DESIGN.md §11 attributes ~85% of bench_wallclock's CPU to
// SHA-256. This bench measures the crypto kernel's primitives in isolation,
// each shape taken from the protocol hot path:
//
//   envelope_digest    48-byte envelope digest (one-shot single compression)
//   hmac_digest32      HMAC over a 32-byte digest (midstate finalize x2)
//   authenticator_n4   full PBFT authenticator, n=4  (f=1 lane batch)
//   authenticator_n13  full PBFT authenticator, n=13 (f=4, two lane passes)
//   payload_digest_1k  1 KiB request payload digest (bulk compression)
//   checkpoint_batch   64 dirty checkpoint leaves (DigestMany lanes)
//   tree_checkpoint_rehash  4,096-leaf partition tree, 16 rounds of 256
//                      leaf writes, each followed by a root digest
//
// Every section folds its outputs into a checksum and reports wall time per
// op. The checksum must equal the value the scalar reference path produced
// for the same inputs, pinned at commit fb72bea (the last commit that ran
// both paths; the tree section's pin comes from a dense scalar reference,
// see below). The tree section additionally compares real node rehashes
// with the cost model's node visits: a new tree is cold, so real hashing
// skips its unwritten subtrees.
//
// Usage: bench_crypto [--smoke] [--json PATH]
//   --smoke    shrink iteration counts (ctest's bench_crypto_smoke, which
//              also runs under the asan-ubsan preset)
//   --json     artifact path (default: BENCH_crypto.json)
//
// Exits nonzero if any section's checksum moves off its pin or real tree
// hashing reaches the cost model's node visits.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/partition_tree.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"

using namespace bftbase;

namespace {

struct SectionResult {
  std::string name;
  uint64_t iters = 0;
  double sec = 0;
  uint64_t checksum = 0;
  uint64_t pinned_checksum = 0;
  // Real-work attribution deltas.
  uint64_t oneshot = 0;
  uint64_t ni_blocks = 0;
  uint64_t multi_blocks = 0;
  uint64_t lane_batches = 0;
  uint64_t nodes_rehashed = 0;

  bool ChecksumMatches() const { return checksum == pinned_checksum; }
  double NsPerOp() const {
    return iters > 0 ? sec * 1e9 / static_cast<double>(iters) : 0;
  }
};

// Folds a digest into the running checksum so the work cannot be elided and
// the outputs can be compared with the pinned reference.
uint64_t Fold(uint64_t sum, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    sum = sum * 1099511628211ULL + data[i];
  }
  return sum;
}

// Scalar-reference checksums of each section, for the smoke and full
// iteration counts.
struct Pin {
  uint64_t smoke;
  uint64_t full;
};

template <typename Body>
SectionResult RunSection(const std::string& name, uint64_t iters, bool smoke,
                         Pin pin, Body body) {
  SectionResult r;
  r.name = name;
  r.iters = iters;
  r.pinned_checksum = smoke ? pin.smoke : pin.full;
  const hotpath::Counters before = hotpath::counters();
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    r.checksum = body(r.checksum, i);
  }
  auto stop = std::chrono::steady_clock::now();
  r.sec = std::chrono::duration<double>(stop - start).count();
  const hotpath::Counters& after = hotpath::counters();
  r.oneshot = after.sha256_oneshot - before.sha256_oneshot;
  r.ni_blocks = after.sha256_ni_blocks - before.sha256_ni_blocks;
  r.multi_blocks = after.sha256_multi_blocks - before.sha256_multi_blocks;
  r.lane_batches = after.hmac_lane_batches - before.hmac_lane_batches;
  r.nodes_rehashed = after.tree_nodes_rehashed - before.tree_nodes_rehashed;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_crypto.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  PrintHeader(smoke ? "Crypto kernel (smoke config)"
                    : "Crypto kernel: multi-lane SHA-256 hot paths");
  std::printf("SHA-NI: %s\n", sha256_multi::HasShaNi() ? "yes" : "no");

  std::vector<SectionResult> sections;

  // 48-byte envelope digest: the per-message digest every Seal/Open pays.
  {
    uint8_t buf[48];
    for (size_t i = 0; i < sizeof(buf); ++i) {
      buf[i] = static_cast<uint8_t>(i * 11 + 3);
    }
    sections.push_back(RunSection(
        "envelope_digest", smoke ? 3000 : 300000, smoke,
        {0xcf269e7f4a070eedULL, 0xe5333793bda1951dULL},
        [&](uint64_t sum, uint64_t i) {
          buf[0] = static_cast<uint8_t>(i);
          auto d = Sha256::Hash(BytesView(buf, sizeof(buf)));
          return Fold(sum, d.data(), d.size());
        }));
  }

  // HMAC over a 32-byte digest: one MAC of an authenticator / reply seal.
  {
    HmacKey key(ToBytes("bench-crypto-hmac-key"));
    uint8_t msg[32] = {};
    sections.push_back(RunSection(
        "hmac_digest32", smoke ? 2000 : 200000, smoke,
        {0x4096e67f4732c323ULL, 0x3a7d090993c97bedULL},
        [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          auto mac = key.Hmac(BytesView(msg, sizeof(msg)));
          return Fold(sum, mac.data(), mac.size());
        }));
  }

  // Full authenticators: the SealAuthenticated hot loop, one MAC per replica.
  for (int n : {4, 13}) {
    KeyTable keys(0xbadc0ffee, n + 2);
    uint8_t msg[32] = {};
    std::vector<Mac> macs(n);
    const Pin pin = n == 4 ? Pin{0x44825aadc949e60bULL, 0x01e8592452650858ULL}
                           : Pin{0x55b09a30a91e830fULL, 0x3aa9b71f10fcb170ULL};
    sections.push_back(RunSection(
        "authenticator_n" + std::to_string(n), smoke ? 1000 : 50000, smoke,
        pin, [&](uint64_t sum, uint64_t i) {
          msg[0] = static_cast<uint8_t>(i);
          keys.PairMacs(n, n, BytesView(msg, sizeof(msg)), macs.data());
          for (const Mac& mac : macs) {
            sum = Fold(sum, mac.data(), mac.size());
          }
          return sum;
        }));
  }

  // 1 KiB payload digest: request bodies and checkpoint values.
  {
    Bytes payload(1024);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 7);
    }
    sections.push_back(RunSection(
        "payload_digest_1k", smoke ? 1000 : 100000, smoke,
        {0x2ab96ba5aedd6774ULL, 0xddcbdcf9785eda95ULL},
        [&](uint64_t sum, uint64_t i) {
          payload[0] = static_cast<uint8_t>(i);
          auto d = Sha256::Hash(payload);
          return Fold(sum, d.data(), d.size());
        }));
  }

  // Checkpoint leaf batch: 64 dirty values digested per checkpoint.
  {
    constexpr size_t kLeaves = 64;
    std::vector<Bytes> values(kLeaves, Bytes(64));
    std::vector<BytesView> views;
    for (size_t l = 0; l < kLeaves; ++l) {
      for (size_t j = 0; j < values[l].size(); ++j) {
        values[l][j] = static_cast<uint8_t>(l * 31 + j);
      }
    }
    for (const Bytes& v : values) {
      views.emplace_back(v.data(), v.size());
    }
    uint8_t outs[kLeaves][Sha256::kDigestSize];
    sections.push_back(RunSection(
        "checkpoint_batch", smoke ? 100 : 5000, smoke,
        {0xcb94cd355527f242ULL, 0x5754c90b823268ddULL},
        [&](uint64_t sum, uint64_t i) {
          values[0][0] = static_cast<uint8_t>(i);
          sha256_multi::DigestMany(views.data(), outs, kLeaves);
          for (size_t l = 0; l < kLeaves; ++l) {
            sum = Fold(sum, outs[l], Sha256::kDigestSize);
          }
          return sum;
        }));
  }

  // Partition tree at checkpoint cadence: a 4,096-leaf tree at branching
  // 16 (three interior levels) takes 16 rounds of 256 leaf writes scattered
  // over its leaves, each round followed by a root digest. The tree is built
  // cold, so the first root hashes the written paths and one cold digest
  // per height while the cost model visits every node; later roots
  // re-digest the dirty paths.
  //
  // Pin: taken from a dense reference tree that hashes every node with a
  // plain SHA-256 over sha256_internal::Compress, H(height, children) per
  // interior node (DESIGN.md §11). The same reference reproduces the pins
  // of the section this one replaced, which grew a tree 256 -> 4,096 leaves
  // (0xecdea3afdd785c18 / 0x2e88328ea84b5d91).
  uint64_t tree_model_visits = 0;
  {
    constexpr size_t kLeaves = 4096;
    const int repeats = smoke ? 2 : 40;
    sections.push_back(RunSection(
        "tree_checkpoint_rehash", repeats, smoke,
        {0x954ea17fdfc0ace9ULL, 0x87f419fa1699a46eULL},
        [&](uint64_t sum, uint64_t rep) {
          PartitionTree tree(kLeaves, 16);
          for (size_t round = 0; round < 16; ++round) {
            for (size_t j = 0; j < 256; ++j) {
              // An odd multiplier permutes the leaves: each round writes
              // 256 distinct ones, and the 16 rounds every leaf once.
              const size_t leaf = (round * 256 + j) * 2654435761u % kLeaves;
              tree.SetLeaf(leaf, Digest::Of(ToBytes(
                                     "leaf" + std::to_string(leaf + rep))));
            }
            Digest root = tree.Root();
            sum = Fold(sum, root.array().data(), Digest::kSize);
          }
          tree_model_visits += tree.TakeRecomputedNodes();
          return sum;
        }));
  }

  Table table({"section", "iters", "ns/op", "one-shot", "lane batches",
               "checksum"});
  bool outputs_ok = true;
  for (const SectionResult& s : sections) {
    char ns[64];
    std::snprintf(ns, sizeof(ns), "%.0f", s.NsPerOp());
    table.AddRow({s.name, FormatCount(s.iters), ns, FormatCount(s.oneshot),
                  FormatCount(s.lane_batches),
                  s.ChecksumMatches() ? "pinned" : "MOVED"});
    outputs_ok = outputs_ok && s.ChecksumMatches();
  }
  table.Print();

  const SectionResult& tree = sections.back();
  std::printf(
      "\n%s node digests: %llu real, %llu cost-model visits\n",
      tree.name.c_str(), static_cast<unsigned long long>(tree.nodes_rehashed),
      static_cast<unsigned long long>(tree_model_visits));

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_crypto");
  json.Field("smoke", smoke);
  json.Field("sha_ni", sha256_multi::HasShaNi());
  json.Key("sections");
  json.BeginArray();
  for (const SectionResult& s : sections) {
    json.BeginObject();
    json.Field("name", s.name);
    json.Field("iters", s.iters);
    json.Field("sec", s.sec);
    json.Field("ns_per_op", s.NsPerOp());
    json.Field("checksum_matches_pin", s.ChecksumMatches());
    json.Field("oneshot", s.oneshot);
    json.Field("ni_blocks", s.ni_blocks);
    json.Field("multi_blocks", s.multi_blocks);
    json.Field("lane_batches", s.lane_batches);
    if (&s == &tree) {
      json.Field("nodes_rehashed", s.nodes_rehashed);
      json.Field("cost_model_node_visits", tree_model_visits);
    }
    json.EndObject();
  }
  json.EndArray();
  EmitBenchMetadata(json);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!outputs_ok) {
    std::printf("FAILED: outputs diverge from the pinned reference\n");
    return 1;
  }
  // Deterministic: real node digests must stay strictly below the cost
  // model's node visits, which charge a new tree's first root as a full
  // rebuild.
  if (tree.nodes_rehashed >= tree_model_visits) {
    std::printf("FAILED: cold subtrees did not cut real tree hashing\n");
    return 1;
  }
  return 0;
}
