// XDR codec (RFC 1014 subset).
//
// The paper encodes every entry of the abstract file-service state with XDR,
// and the NFS wire protocol is XDR-based (RFC 1094 over RFC 1014). This is a
// faithful subset: big-endian 32/64-bit integers, booleans, opaque data and
// strings padded to 4-byte boundaries, and fixed-size opaque arrays.
//
// Like Decoder in codec.h, XdrReader is hardened against malformed input:
// failures are sticky and reads past the end return zero values.
#ifndef SRC_UTIL_XDR_H_
#define SRC_UTIL_XDR_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace bftbase {

class XdrWriter {
 public:
  XdrWriter() = default;

  void PutUint32(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 24));
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutInt32(int32_t v) { PutUint32(static_cast<uint32_t>(v)); }
  void PutUint64(uint64_t v) {
    PutUint32(static_cast<uint32_t>(v >> 32));
    PutUint32(static_cast<uint32_t>(v));
  }
  void PutInt64(int64_t v) { PutUint64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutUint32(v ? 1 : 0); }

  // Variable-length opaque<> : u32 length + data + zero padding to 4 bytes.
  void PutOpaque(BytesView data) {
    PutUint32(static_cast<uint32_t>(data.size()));
    Append(buf_, data);
    Pad(data.size());
  }
  void PutString(std::string_view s) {
    PutUint32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
    Pad(s.size());
  }

  // Fixed-length opaque[n]: data + padding, no length prefix.
  void PutFixedOpaque(BytesView data) {
    Append(buf_, data);
    Pad(data.size());
  }

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void Pad(size_t n) {
    while (n % 4 != 0) {
      buf_.push_back(0);
      ++n;
    }
  }

  Bytes buf_;
};

class XdrReader {
 public:
  explicit XdrReader(BytesView data) : data_(data) {}

  uint32_t GetUint32() {
    if (!Require(4)) {
      return 0;
    }
    uint32_t v = (static_cast<uint32_t>(data_[pos_]) << 24) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 8) |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  int32_t GetInt32() { return static_cast<int32_t>(GetUint32()); }
  uint64_t GetUint64() {
    uint64_t hi = GetUint32();
    uint64_t lo = GetUint32();
    return (hi << 32) | lo;
  }
  int64_t GetInt64() { return static_cast<int64_t>(GetUint64()); }
  // XDR's bool is the enum {FALSE = 0, TRUE = 1}; any other value fails.
  bool GetBool() {
    const uint32_t v = GetUint32();
    if (v > 1) {
      ok_ = false;
    }
    return v == 1;
  }

  Bytes GetOpaque() {
    uint32_t n = GetUint32();
    return GetFixedOpaque(n);
  }
  std::string GetString() {
    Bytes b = GetOpaque();
    return std::string(b.begin(), b.end());
  }

  // The padding must be zero bytes, as XdrWriter writes it: a reader that
  // skipped any padding would give each value more than one encoding.
  Bytes GetFixedOpaque(size_t n) {
    if (!Require(Padded(n))) {
      return {};
    }
    for (size_t i = pos_ + n; i < pos_ + Padded(n); ++i) {
      if (data_[i] != 0) {
        ok_ = false;
        return {};
      }
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += Padded(n);
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  static size_t Padded(size_t n) { return (n + 3) & ~size_t{3}; }

  bool Require(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bftbase

#endif  // SRC_UTIL_XDR_H_
