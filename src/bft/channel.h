// Authenticated message channel.
//
// Wraps the simulated network with the PBFT authentication schemes and
// charges the cost model for every cryptographic operation, so protocol
// crypto shows up in measured latencies exactly as it does in the paper's
// testbed numbers.
//
// Three authentication modes:
//   kAuthenticator — a vector of per-receiver MACs (PBFT's normal case).
//   kSingleMac     — one MAC with the pairwise session key (replies, state).
//   kSigned        — a transferable signature, needed for messages that end
//                    up inside proofs (pre-prepare, prepare, checkpoint,
//                    view-change, new-view).
//
// SIMULATION NOTE: kSigned is a stand-in for a public-key signature. It is
// implemented as an HMAC with a per-sender signing key derived from the
// KeyTable master secret, which every node in the simulation can recompute
// for verification. Inside this trust model that is equivalent to a
// signature because Byzantine behaviour is injected only through the
// documented fault hooks, never by forging other nodes' signing keys. The
// cost model charges it like a MAC, matching the MAC-based BFT library whose
// performance the paper reports.
#ifndef SRC_BFT_CHANNEL_H_
#define SRC_BFT_CHANNEL_H_

#include <functional>

#include "src/bft/config.h"
#include "src/bft/message.h"
#include "src/crypto/hmac.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/util/status.h"

namespace bftbase {

enum class AuthKind : uint8_t {
  kAuthenticator = 1,
  kSingleMac = 2,
  kSigned = 3,
};

struct WireMessage {
  MsgType type = MsgType::kRequest;
  NodeId sender = 0;
  AuthKind auth = AuthKind::kSingleMac;
  Bytes payload;
};

class Channel {
 public:
  Channel(Simulation* sim, KeyTable* keys, const Config& config, NodeId self);

  // --- Sending -------------------------------------------------------------
  // Each Seal* builds an authenticated envelope; Send* also transmits it.

  // Envelope carrying a per-replica MAC vector; deliverable to any replica.
  Bytes SealAuthenticated(MsgType type, BytesView payload);
  // Envelope carrying one MAC for `to`.
  Bytes SealMac(MsgType type, BytesView payload, NodeId to);
  // Envelope carrying a transferable signature.
  Bytes SealSigned(MsgType type, BytesView payload);

  void Send(NodeId to, Bytes wire);
  void MulticastReplicas(const Bytes& wire, bool include_self);

  // --- Receiving -----------------------------------------------------------

  // Parses and authenticates an envelope. Charges verification cost.
  // Rejects unknown senders, bad MACs, bad signatures. A MAC must be
  // addressed to this node; a signature verifies anywhere, so the signed
  // proofs a VIEW-CHANGE or NEW-VIEW carries open here too (the caller
  // checks that they are kSigned).
  Result<WireMessage> Open(BytesView wire);

  // Parses an envelope WITHOUT authenticating it. Only for envelopes that
  // were already verified on receipt (e.g. re-reading a batched client
  // request at execution time).
  static Result<WireMessage> ParseUnverified(BytesView wire);

  NodeId self() const { return self_; }
  const Config& config() const { return config_; }

  // Test hook: when set, the channel flips a byte in every outgoing MAC /
  // signature (models a replica whose authentication is broken).
  void CorruptOutgoingAuth(bool enabled) { corrupt_outgoing_ = enabled; }

 private:
  Bytes Seal(MsgType type, BytesView payload, AuthKind kind, NodeId to);

  Simulation* sim_;
  KeyTable* keys_;
  Config config_;
  NodeId self_;
  bool corrupt_outgoing_ = false;
};

}  // namespace bftbase

#endif  // SRC_BFT_CHANNEL_H_
