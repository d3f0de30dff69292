#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"

namespace bftbase {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(BytesView data) {
  hotpath::counters().bytes_hashed += data.size();
  bit_count_ += static_cast<uint64_t>(data.size()) * 8;
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), size_t{64} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      CompressBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  size_t nblocks = (data.size() - offset) / 64;
  if (nblocks > 0) {
    CompressBlocks(data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Final(uint8_t out[kDigestSize]) {
  ++hotpath::counters().sha256_invocations;
  // Append 0x80, pad with zeros, then the 64-bit big-endian length.
  uint64_t bits = bit_count_;
  uint8_t pad[72];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  size_t rem = (buffer_len_ + 1) % 64;
  size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bits >> (8 * i));
  }
  Update(BytesView(pad, pad_len));
  // bytes_hashed tracks message bytes only, not the Merkle–Damgård padding
  // the line above just pushed through Update().
  hotpath::counters().bytes_hashed -= pad_len;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
}

void Sha256::CompressBlocks(const uint8_t* data, size_t nblocks) {
  // Same logical work on either unit, so sha256_blocks counts it once here.
  hotpath::counters().sha256_blocks += nblocks;
  sha256_multi::CompressBlocks(state_, data, nblocks);
}

void sha256_internal::Compress(uint32_t state_[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(BytesView data) {
  std::array<uint8_t, kDigestSize> out;
  if (data.size() <= sha256_multi::kOneShotMax) {
    // Single padded compression; counters match the streaming path exactly
    // (one block, one finalize, message bytes only).
    auto& c = hotpath::counters();
    c.bytes_hashed += data.size();
    ++c.sha256_invocations;
    ++c.sha256_blocks;
    sha256_multi::OneShot(data.data(), data.size(), out.data());
    return out;
  }
  Sha256 hasher;
  hasher.Update(data);
  hasher.Final(out.data());
  return out;
}

void Sha256::ExportState(uint32_t out[8]) const {
  std::memcpy(out, state_, sizeof(state_));
}

}  // namespace bftbase
