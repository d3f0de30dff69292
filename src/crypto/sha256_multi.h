// Multi-buffer SHA-256 kernel (DESIGN.md §11).
//
// The BFT protocol's hot path is dominated by SHA-256 (EXPERIMENTS.md E13:
// ~85% of KV-protocol wall time): every message carries an authenticator of
// per-replica HMACs, every request/reply/checkpoint is digested, and the
// state-partition tree hashes interior nodes at each checkpoint. This layer
// attacks that cost on three fronts without changing a single output byte:
//
//   1. Lane-parallel compression. `CompressLanes` advances up to kMaxLanes
//      *independent* SHA-256 states by one block each. The per-replica HMACs
//      of one authenticator differ only in their precomputed ipad/opad
//      midstates, so the whole MAC vector is two lane passes over the
//      message instead of 2n sequential hashes.
//   2. One-shot fixed-length digests. Inputs that fit a single padded block
//      (<= kOneShotMax bytes: envelope digests, digest-of-digest replies,
//      HMAC finalizations) skip the Update/Final buffering state machine and
//      cost exactly one compression from the IV or a saved midstate.
//   3. Hardware dispatch. On x86-64 with the SHA extensions, block
//      compression (bulk, lanes and one-shot alike) runs on the SHA-NI unit;
//      otherwise lanes use an interleaved portable implementation the
//      compiler vectorizes and bulk falls back to the scalar reference.
//
// Every output is byte-identical to the FIPS 180-4 streaming definition;
// tests/crypto_test.cc checks each primitive against a reference hasher built
// on sha256_internal::Compress. Counter discipline: these primitives bump
// only their per-path counters (sha256_ni_blocks, sha256_multi_blocks,
// sha256_oneshot); callers keep bumping the generic
// sha256_blocks/invocations/bytes_hashed so the logical work counters count
// what a block-at-a-time streaming hasher would.
#ifndef SRC_CRYPTO_SHA256_MULTI_H_
#define SRC_CRYPTO_SHA256_MULTI_H_

#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"

namespace bftbase {
namespace sha256_multi {

// Widest lane batch the portable interleaved path is instantiated for.
constexpr size_t kMaxLanes = 8;

// Longest input that still fits one padded compression block (64 - 1 byte
// 0x80 - 8 byte length).
constexpr size_t kOneShotMax = 55;

// True when the CPU (and build target) can run the SHA-NI path; resolved
// once at first use.
bool HasShaNi();

// Advances `state` over `nblocks` consecutive 64-byte blocks at `data`.
// SHA-NI when available, scalar reference otherwise. Bumps sha256_ni_blocks
// only; the caller owns sha256_blocks.
void CompressBlocks(uint32_t state[8], const uint8_t* data, size_t nblocks);

// Advances n <= kMaxLanes independent states by one block each. Lane i reads
// blocks[i] (blocks may alias each other: authenticator lanes share the
// message block). Bumps sha256_ni_blocks or sha256_multi_blocks.
void CompressLanes(uint32_t* const states[], const uint8_t* const blocks[],
                   size_t n);

// Forced-portable variant of CompressLanes, exposed so equivalence tests can
// exercise the interleaved implementation even on SHA-NI hardware.
void CompressLanesPortable(uint32_t* const states[],
                           const uint8_t* const blocks[], size_t n);

// Digest of `data` (len <= kOneShotMax) in a single compression from the IV.
// Output is byte-identical to the streaming hasher. Bumps sha256_oneshot and
// the ni/multi split; the caller owns invocations/blocks/bytes_hashed.
void OneShot(const uint8_t* data, size_t len, uint8_t out[32]);

// Finishes a hash whose first 64 bytes were already absorbed into `midstate`
// and whose remaining message is `msg[0..len)` with len <= kOneShotMax: one
// compression of msg + padding + the 64-bit length (64 + len bytes total).
// This is exactly the shape of both HMAC passes once ipad/opad midstates are
// precomputed. `midstate` is not modified.
void FinalizeBlockMidstate(const uint32_t midstate[8], const uint8_t* msg,
                           size_t len, uint8_t out[32]);

// Lane-parallel FinalizeBlockMidstate: n <= kMaxLanes independent midstates,
// each finished over the same `msg` (the authenticator inner pass) written
// to outs[i]. Bumps sha256_oneshot per lane.
void FinalizeBlockMidstateLanes(const uint32_t* const midstates[],
                                const uint8_t* msg, size_t len,
                                uint8_t (*outs)[32], size_t n);

// As above but with a distinct 32-byte message per lane (the authenticator
// outer pass over per-lane inner digests).
void FinalizeBlockMidstateLanes32(const uint32_t* const midstates[],
                                  const uint8_t (*msgs)[32],
                                  uint8_t (*outs)[32], size_t n);

// Digests n independent buffers into outs[i], advancing up to kMaxLanes
// streams block-by-block in interleaved lanes (checkpoint leaf batches:
// many same-length values). Byte-identical to per-buffer Sha256::Hash.
// Unlike the primitives above this is a drop-in for n complete hashes, so
// it owns the full counter parity: invocations/blocks/bytes_hashed advance
// exactly as n streaming hashes would.
void DigestMany(const BytesView* inputs, uint8_t (*outs)[32], size_t n);

}  // namespace sha256_multi
}  // namespace bftbase

#endif  // SRC_CRYPTO_SHA256_MULTI_H_
