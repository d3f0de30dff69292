// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The BFT protocol hashes requests, replies, checkpoints and every node of
// the state-partition tree, so digest throughput shows up directly in the
// replication overhead the paper measures. The streaming hasher compresses
// blocks through src/crypto/sha256_multi (SHA-NI when the CPU has it) and
// hashes inputs that fit one padded block in a single compression.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace bftbase {

namespace sha256_internal {
// Scalar reference compression of one 64-byte block (no counter side
// effects). src/crypto/sha256_multi.cc's portable fallback on hosts without
// SHA-NI, and the tests' oracle.
void Compress(uint32_t state[8], const uint8_t block[64]);
}  // namespace sha256_internal

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256() { Reset(); }

  void Reset();
  void Update(BytesView data);
  // Finalizes and writes 32 bytes into `out`. The hasher must be Reset()
  // before reuse.
  void Final(uint8_t out[kDigestSize]);

  // One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(BytesView data);

  // Copies the raw compression state into `out`. Only meaningful when an
  // exact multiple of 64 bytes has been absorbed (internal buffer empty) —
  // HMAC uses it to cache ipad/opad midstates for the single-compression
  // finalize path in sha256_multi.
  void ExportState(uint32_t out[8]) const;

 private:
  // Compresses `nblocks` whole 64-byte blocks, buffered or straight from the
  // caller's data, through sha256_multi (SHA-NI when the CPU has it).
  void CompressBlocks(const uint8_t* data, size_t nblocks);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace bftbase

#endif  // SRC_CRYPTO_SHA256_H_
