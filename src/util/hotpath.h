// Process-wide hot-path instrumentation.
//
// The zero-copy fabric and the crypto caches optimize *real* CPU work (SHA-256
// compressions, allocations, payload memcpy) without touching the simulated
// cost model, so the counters here measure what actually got cheaper. They
// live below the sim layer because crypto and the codec cannot see a
// MetricsRegistry; SyncHotPathCounters (src/sim/metrics.h) copies them into a
// registry so benches can snapshot/diff them per phase.
#ifndef SRC_UTIL_HOTPATH_H_
#define SRC_UTIL_HOTPATH_H_

#include <cstdint>
#include <iterator>

namespace bftbase {
namespace hotpath {

struct Counters {
  // Crypto (src/crypto/sha256.cc).
  uint64_t sha256_invocations = 0;  // Final() calls == completed hashes
  uint64_t sha256_blocks = 0;       // 64-byte compression rounds
  uint64_t bytes_hashed = 0;        // bytes fed through Update()
  // Crypto kernel (src/crypto/sha256_multi.cc). These are per-path splits of
  // sha256_blocks/invocations above, which count the same logical work
  // whichever unit compresses the blocks.
  uint64_t sha256_oneshot = 0;      // single-compression fast-path hashes
  uint64_t sha256_ni_blocks = 0;    // blocks compressed by the SHA-NI unit
  uint64_t sha256_multi_blocks = 0; // blocks compressed in interleaved lanes
  uint64_t hmac_lane_batches = 0;   // multi-lane HMAC passes (authenticators)
  // Partition tree (src/base/partition_tree.cc): interior nodes really
  // hashed. The cost model counts every dirty node as recomputed.
  uint64_t tree_nodes_rehashed = 0;
  // Encode buffers (src/util/codec.h): one per Encoder.
  uint64_t encode_allocs = 0;
  // Delivered-envelope digest memo (Payload::Memo, read and filled by
  // Channel::Open in src/bft/channel.cc): one bump per open of a delivered
  // buffer.
  uint64_t digest_memo_hits = 0;
  uint64_t digest_memo_misses = 0;
  // Bytes an open copies out of the envelope: the payload and auth bytes
  // (Channel::Open) and an authenticator's MACs (Authenticator::Decode).
  uint64_t open_bytes_copied = 0;
  // Event kernel (src/sim/simulation.cc).
  uint64_t event_pool_allocs = 0;   // pool misses: a fresh slot was created
  uint64_t event_pool_reuses = 0;   // pool hits: a slot came off the free list
  uint64_t events_pruned = 0;       // cancelled timers discarded before firing
  uint64_t events_requeued = 0;     // deliveries/timers deferred behind a busy
                                    // node's CPU (moved, never copied)
  // Always 0: nothing bumps these. Their one reader is perfbench
  // (tree.nodes_preserved_per_ckpt, bufpool.alloc_frac, pool.jobs_per_op,
  // channel.verify_memo_hit_frac); they go when the benchmark drops those
  // metrics.
  uint64_t tree_nodes_preserved = 0;
  uint64_t encode_reuses = 0;
  uint64_t pool_jobs = 0;
  uint64_t verify_memo_hits = 0;
  uint64_t verify_memo_misses = 0;
};

// The one list of counters, in declaration order. SyncHotPathCounters walks
// it to publish each as the "hot.<name>" gauge; the static_assert below
// fails when a field is added to Counters without an entry here.
struct CounterField {
  const char* name;
  uint64_t Counters::*member;
};
inline constexpr CounterField kCounterFields[] = {
    {"sha256_invocations", &Counters::sha256_invocations},
    {"sha256_blocks", &Counters::sha256_blocks},
    {"bytes_hashed", &Counters::bytes_hashed},
    {"sha256_oneshot", &Counters::sha256_oneshot},
    {"sha256_ni_blocks", &Counters::sha256_ni_blocks},
    {"sha256_multi_blocks", &Counters::sha256_multi_blocks},
    {"hmac_lane_batches", &Counters::hmac_lane_batches},
    {"tree_nodes_rehashed", &Counters::tree_nodes_rehashed},
    {"encode_allocs", &Counters::encode_allocs},
    {"digest_memo_hits", &Counters::digest_memo_hits},
    {"digest_memo_misses", &Counters::digest_memo_misses},
    {"open_bytes_copied", &Counters::open_bytes_copied},
    {"event_pool_allocs", &Counters::event_pool_allocs},
    {"event_pool_reuses", &Counters::event_pool_reuses},
    {"events_pruned", &Counters::events_pruned},
    {"events_requeued", &Counters::events_requeued},
    {"tree_nodes_preserved", &Counters::tree_nodes_preserved},
    {"encode_reuses", &Counters::encode_reuses},
    {"pool_jobs", &Counters::pool_jobs},
    {"verify_memo_hits", &Counters::verify_memo_hits},
    {"verify_memo_misses", &Counters::verify_memo_misses},
};
static_assert(std::size(kCounterFields) * sizeof(uint64_t) == sizeof(Counters),
              "every hotpath::Counters field needs a kCounterFields entry");

// Process-wide counters: the simulation runs on one thread and nothing in
// the repo starts another. Inline so per-event bumps on the kernel fast path
// compile to a direct increment instead of a function call.
namespace internal {
inline Counters g_counters;
}  // namespace internal
inline Counters& counters() { return internal::g_counters; }
inline void ResetCounters() { internal::g_counters = Counters{}; }

}  // namespace hotpath
}  // namespace bftbase

#endif  // SRC_UTIL_HOTPATH_H_
