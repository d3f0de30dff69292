// Compact binary codec for BFT protocol messages.
//
// Fixed-width little-endian integers plus length-prefixed byte strings. The
// decoder never trusts its input: every read is bounds-checked and failure is
// sticky, so protocol code can decode a whole message and check ok() once.
// This matters because Byzantine replicas hand us arbitrary byte strings.
#ifndef SRC_UTIL_CODEC_H_
#define SRC_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/hotpath.h"

namespace bftbase {

class Encoder {
 public:
  Encoder() {
    buf_.reserve(kInitialCapacity);
    ++hotpath::counters().encode_allocs;
  }

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  // Length-prefixed (u32) byte string.
  void PutBytes(BytesView b) {
    PutU32(static_cast<uint32_t>(b.size()));
    Append(buf_, b);
  }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Raw bytes with no length prefix (caller knows the size, e.g. digests).
  void PutFixed(BytesView b) { Append(buf_, b); }

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  // One allocation sized for a typical message: about 90% of encoded
  // buffers are at most 256 bytes (DESIGN.md §8). Without it the
  // byte-at-a-time puts below grow the buffer from zero through 1, 2, 4 ...
  // bytes, one reallocation each.
  static constexpr size_t kInitialCapacity = 256;

  void PutLittleEndian(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

class Decoder {
 public:
  explicit Decoder(BytesView data) : data_(data) {}

  uint8_t GetU8() {
    if (!Require(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLittleEndian(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLittleEndian(4)); }
  uint64_t GetU64() { return GetLittleEndian(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  // PutBool writes only 0 and 1; any other byte fails the decode, so a bool
  // has one encoding and a decoded message re-encodes to the same bytes.
  bool GetBool() {
    const uint8_t v = GetU8();
    if (v > 1) {
      ok_ = false;
    }
    return v == 1;
  }

  Bytes GetBytes() {
    uint32_t n = GetU32();
    if (!Require(n)) {
      return {};
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  std::string GetString() {
    Bytes b = GetBytes();
    return std::string(b.begin(), b.end());
  }

  // Reads exactly n raw bytes (no length prefix).
  Bytes GetFixed(size_t n) {
    if (!Require(n)) {
      return {};
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  // True iff no read has run past the end of the buffer.
  bool ok() const { return ok_; }
  // True iff all bytes were consumed and no error occurred. Protocol code
  // should require this to reject messages with trailing garbage.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t GetLittleEndian(int n) {
    if (!Require(static_cast<size_t>(n))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  BytesView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bftbase

#endif  // SRC_UTIL_CODEC_H_
