#include "src/bft/channel.h"

#include <cstring>
#include <memory>
#include <utility>

#include "src/util/bufpool.h"
#include "src/util/codec.h"
#include "src/util/hotpath.h"
#include "src/util/log.h"

namespace bftbase {

namespace {

// What gets authenticated: the envelope header bound to the payload digest.
// The hashed stream is two little-endian u64s followed by the 32-byte payload
// digest — flattened into one 48-byte buffer (byte-identical to the former
// Builder chain) so the hash takes the single-compression one-shot path.
Digest EnvelopeDigest(MsgType type, NodeId sender, BytesView payload) {
  uint8_t buf[48];
  uint64_t type_u64 = static_cast<uint64_t>(type);
  uint64_t sender_u64 = static_cast<uint64_t>(sender);
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<uint8_t>(type_u64 >> (8 * i));
    buf[8 + i] = static_cast<uint8_t>(sender_u64 >> (8 * i));
  }
  Digest payload_digest = Digest::Of(payload);
  std::memcpy(buf + 16, payload_digest.view().data(), Digest::kSize);
  return Digest::Of(BytesView(buf, sizeof(buf)));
}

}  // namespace

Channel::Channel(Simulation* sim, KeyTable* keys, const Config& config,
                 NodeId self)
    : sim_(sim), keys_(keys), config_(config), self_(self) {}

Bytes Channel::Seal(MsgType type, BytesView payload, AuthKind kind,
                    NodeId to) {
  // Cost: one digest over the payload plus MAC work per authenticated entry.
  sim_->ChargeCpu(sim_->cost().DigestCost(payload.size()));
  Digest digest = EnvelopeDigest(type, self_, payload);

  Bytes auth;
  switch (kind) {
    case AuthKind::kAuthenticator: {
      sim_->ChargeCpu(static_cast<SimTime>(config_.n()) *
                      sim_->cost().MacCost(Digest::kSize));
      Authenticator a =
          Authenticator::Compute(*keys_, self_, config_.n(), digest.view());
      if (corrupt_outgoing_) {
        for (int i = 0; i < config_.n(); ++i) {
          a.CorruptEntry(i);
        }
      }
      auth = a.Encode();
      break;
    }
    case AuthKind::kSingleMac: {
      sim_->ChargeCpu(sim_->cost().MacCost(Digest::kSize));
      Mac mac = keys_->PairMac(self_, to, digest.view());
      auth.assign(mac.begin(), mac.end());
      if (corrupt_outgoing_ && !auth.empty()) {
        auth[0] ^= 0xff;
      }
      break;
    }
    case AuthKind::kSigned: {
      sim_->ChargeCpu(sim_->cost().MacCost(Digest::kSize));
      auto sig = keys_->Sign(self_, digest.view());
      auth.assign(sig.begin(), sig.end());
      if (corrupt_outgoing_ && !auth.empty()) {
        auth[0] ^= 0xff;
      }
      break;
    }
  }

  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU32(static_cast<uint32_t>(self_));
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutBytes(payload);
  enc.PutBytes(auth);
  return enc.Take();
}

Bytes Channel::SealAuthenticated(MsgType type, BytesView payload) {
  return Seal(type, payload, AuthKind::kAuthenticator, /*to=*/0);
}

Bytes Channel::SealMac(MsgType type, BytesView payload, NodeId to) {
  return Seal(type, payload, AuthKind::kSingleMac, to);
}

Bytes Channel::SealSigned(MsgType type, BytesView payload) {
  return Seal(type, payload, AuthKind::kSigned, /*to=*/0);
}

Bytes Channel::SealAuthenticated(MsgType type, Bytes&& payload) {
  Bytes wire = Seal(type, payload, AuthKind::kAuthenticator, /*to=*/0);
  BufferPool::Release(std::move(payload));
  return wire;
}

Bytes Channel::SealMac(MsgType type, Bytes&& payload, NodeId to) {
  Bytes wire = Seal(type, payload, AuthKind::kSingleMac, to);
  BufferPool::Release(std::move(payload));
  return wire;
}

Bytes Channel::SealSigned(MsgType type, Bytes&& payload) {
  Bytes wire = Seal(type, payload, AuthKind::kSigned, /*to=*/0);
  BufferPool::Release(std::move(payload));
  return wire;
}

void Channel::Send(NodeId to, Bytes wire) {
  sim_->network().Send(self_, to, std::move(wire));
}

void Channel::MulticastReplicas(const Bytes& wire, bool include_self) {
  // One shared buffer for all replicas (see Network::Multicast) instead of a
  // copy per recipient.
  sim_->network().Multicast(self_, 0, config_.n(), wire,
                            include_self ? Network::kNoSkip : self_);
}

Result<WireMessage> Channel::ParseUnverified(BytesView wire) {
  Decoder dec(wire);
  WireMessage msg;
  uint8_t type_raw = dec.GetU8();
  msg.sender = static_cast<NodeId>(dec.GetU32());
  uint8_t kind_raw = dec.GetU8();
  msg.payload = dec.GetBytes();
  dec.GetBytes();  // auth, ignored
  if (!dec.AtEnd()) {
    return InvalidArgument("malformed envelope");
  }
  if (!IsMsgType(type_raw) ||
      kind_raw < static_cast<uint8_t>(AuthKind::kAuthenticator) ||
      kind_raw > static_cast<uint8_t>(AuthKind::kSigned)) {
    return InvalidArgument("malformed envelope header");
  }
  msg.type = static_cast<MsgType>(type_raw);
  msg.auth = static_cast<AuthKind>(kind_raw);
  return msg;
}

Result<WireMessage> Channel::Open(BytesView wire) {
  Decoder dec(wire);
  WireMessage msg;
  uint8_t type_raw = dec.GetU8();
  msg.sender = static_cast<NodeId>(dec.GetU32());
  uint8_t kind_raw = dec.GetU8();
  msg.payload = dec.GetBytes();
  Bytes auth = dec.GetBytes();
  if (!dec.AtEnd()) {
    return InvalidArgument("malformed envelope");
  }
  if (!IsMsgType(type_raw)) {
    return InvalidArgument("unknown message type");
  }
  msg.type = static_cast<MsgType>(type_raw);
  if (kind_raw < static_cast<uint8_t>(AuthKind::kAuthenticator) ||
      kind_raw > static_cast<uint8_t>(AuthKind::kSigned)) {
    return InvalidArgument("unknown auth kind");
  }
  msg.auth = static_cast<AuthKind>(kind_raw);
  if (msg.sender < 0 || msg.sender >= config_.node_count()) {
    return PermissionDenied("unknown sender");
  }

  // Simulated digest cost is charged unconditionally (the protocol's cost
  // model is unchanged); the delivered Payload's memo only skips *real*
  // SHA-256 work when an earlier receiver of the same buffer already opened
  // it. Only a wire that *is* the delivered buffer uses the memo, so any
  // envelope whose bytes live elsewhere (fault hooks, re-encodes, stashed
  // copies) recomputes.
  sim_->ChargeCpu(sim_->cost().DigestCost(msg.payload.size()));
  const std::shared_ptr<const Payload>& delivery = sim_->current_delivery();
  Payload::Memo* memo = nullptr;
  if (delivery != nullptr && delivery->bytes.data() == wire.data() &&
      delivery->bytes.size() == wire.size()) {
    memo = &delivery->memo;
  }
  Digest digest;
  if (memo != nullptr && memo->digest.has_value()) {
    ++hotpath::counters().digest_memo_hits;
    digest = *memo->digest;
  } else {
    digest = EnvelopeDigest(msg.type, msg.sender, msg.payload);
    if (memo != nullptr) {
      ++hotpath::counters().digest_memo_misses;
      memo->digest = digest;
    }
  }

  bool valid = false;
  switch (msg.auth) {
    case AuthKind::kAuthenticator: {
      sim_->ChargeCpu(sim_->cost().MacCost(Digest::kSize));
      Authenticator a = Authenticator::Decode(auth);
      valid = a.Verify(*keys_, msg.sender, self_, digest.view());
      break;
    }
    case AuthKind::kSingleMac: {
      sim_->ChargeCpu(sim_->cost().MacCost(Digest::kSize));
      if (auth.size() != kMacSize) {
        return PermissionDenied("bad MAC size");
      }
      Mac expected = keys_->PairMac(msg.sender, self_, digest.view());
      valid = ConstantTimeEqual(BytesView(expected.data(), kMacSize), auth);
      break;
    }
    case AuthKind::kSigned: {
      sim_->ChargeCpu(sim_->cost().MacCost(Digest::kSize));
      // Signing keys never rotate, so a signature verifies (or fails) alike
      // at every receiver: the first receiver of a buffer checks it and the
      // memo hands its verdict to the rest.
      if (memo != nullptr && memo->signature_valid.has_value()) {
        valid = *memo->signature_valid;
        break;
      }
      auto expected = keys_->Sign(msg.sender, digest.view());
      valid = ConstantTimeEqual(BytesView(expected.data(), expected.size()),
                                auth);
      if (memo != nullptr) {
        memo->signature_valid = valid;
      }
      break;
    }
  }
  if (!valid) {
    return PermissionDenied("authentication failed");
  }
  return msg;
}

}  // namespace bftbase
