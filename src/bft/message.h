// BFT protocol message types and their wire encodings.
//
// Every message is carried inside an authenticated envelope (see channel.h).
// Decoding never trusts input: all Decode functions validate sizes and
// return an error Status on malformed bytes, since Byzantine nodes may send
// arbitrary garbage.
//
// Message set (PBFT, Castro-Liskov OSDI'99, plus the BASE state-transfer
// messages which are opaque to this layer):
//   REQUEST      client -> replicas     operation to execute (multicast)
//   PRE-PREPARE  primary -> backups     assigns a sequence number to a batch
//                                       of request digests
//   PREPARE      backup -> replicas     agreement round 1
//   COMMIT       replica -> replicas    agreement round 2
//   REPLY        replica -> client      operation result
//   CHECKPOINT   replica -> replicas    state digest at a checkpoint seq
//   VIEW-CHANGE  replica -> replicas    primary suspected faulty
//   NEW-VIEW     new primary -> backups installs the next view
//   STATE        replica <-> replica    abstract state transfer (base layer)
//   FETCH        replica -> replicas    request bodies a PRE-PREPARE listed
//                                       that the sender does not hold
//   FETCH-REPLY  replica -> replica     the clients' envelopes for them
#ifndef SRC_BFT_MESSAGE_H_
#define SRC_BFT_MESSAGE_H_

#include <optional>
#include <vector>

#include "src/bft/config.h"
#include "src/crypto/digest.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace bftbase {

enum class MsgType : uint8_t {
  kRequest = 1,
  kPrePrepare = 2,
  kPrepare = 3,
  kCommit = 4,
  kReply = 5,
  kCheckpoint = 6,
  kViewChange = 7,
  kNewView = 8,
  kState = 9,
  kFetch = 10,
  kFetchReply = 11,
};

const char* MsgTypeName(MsgType type);
// Whether `raw` names a MsgType (the envelope parsers' range check).
inline bool IsMsgType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(MsgType::kRequest) &&
         raw <= static_cast<uint8_t>(MsgType::kFetchReply);
}

// Cap on the requests one PRE-PREPARE lists and on the bodies one FETCH or
// FETCH-REPLY carries, so hostile counts cannot drive allocation.
inline constexpr size_t kMaxBatch = 4096;

struct RequestMsg {
  NodeId client = 0;
  uint64_t timestamp = 0;  // per-client monotonically increasing request id
  bool read_only = false;
  Bytes op;

  Bytes Encode() const;
  static Result<RequestMsg> Decode(BytesView data);
  // Identity of the request: covers client, timestamp and operation.
  Digest ComputeDigest() const;
};

struct PrePrepareMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  // Agreed non-deterministic input for the batch (e.g. the operation
  // timestamp for the NFS wrapper), proposed by the primary.
  Bytes nondet;
  // RequestMsg digests of the batch, in execution order. The bodies travel
  // separately: clients multicast them, and a replica that lacks one FETCHes
  // it (separate request transmission, DESIGN.md §6).
  std::vector<Digest> request_digests;

  Bytes Encode() const;
  static Result<PrePrepareMsg> Decode(BytesView data);
  // The batch digest d in (v, n, d): covers nondet and the request digests
  // (not the view/seq, which identify the slot, not the content).
  Digest ComputeDigest() const;
};

// Asks a peer for the client envelopes of request bodies the sender lacks.
struct FetchMsg {
  std::vector<Digest> request_digests;

  Bytes Encode() const;
  static Result<FetchMsg> Decode(BytesView data);
};

// The answer to a FETCH: the clients' original authenticated REQUEST
// envelopes the answering replica holds.
struct FetchReplyMsg {
  std::vector<Bytes> request_wires;

  Bytes Encode() const;
  static Result<FetchReplyMsg> Decode(BytesView data);
};

struct PrepareMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<PrepareMsg> Decode(BytesView data);
};

struct CommitMsg {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<CommitMsg> Decode(BytesView data);
};

struct ReplyMsg {
  ViewNum view = 0;
  uint64_t timestamp = 0;
  NodeId client = 0;
  NodeId replica = 0;
  // Tentative replies come from the read-only optimization; the client needs
  // a larger quorum (2f+1) for them.
  bool tentative = false;
  // With the digest-reply optimization only the designated replier sends a
  // result longer than a digest in full; the others send its digest.
  bool result_is_digest = false;
  Bytes result;

  Bytes Encode() const;
  static Result<ReplyMsg> Decode(BytesView data);
  // Digest of the actual result, used by clients to match replies.
  Digest ResultDigest() const {
    return result_is_digest ? Digest::FromBytes(result) : Digest::Of(result);
  }
};

struct CheckpointMsg {
  SeqNum seq = 0;
  Digest state_digest;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<CheckpointMsg> Decode(BytesView data);
};

// A transferable proof that a request prepared at some replica: the signed
// pre-prepare plus 2f signed prepares with matching (view, seq, digest).
// Stored as raw wire envelopes so any replica can re-verify the signatures.
struct PreparedProof {
  Bytes pre_prepare_wire;
  std::vector<Bytes> prepare_wires;

  void EncodeTo(class Encoder& enc) const;
  static Result<PreparedProof> DecodeFrom(class Decoder& dec);
};

struct ViewChangeMsg {
  ViewNum new_view = 0;
  // Last stable checkpoint known to the sender and its proof: 2f+1 signed
  // CHECKPOINT envelopes with matching (seq, digest).
  SeqNum stable_seq = 0;
  Digest stable_digest;
  std::vector<Bytes> checkpoint_proof;
  // Prepared certificates for requests above stable_seq.
  std::vector<PreparedProof> prepared;
  NodeId replica = 0;

  Bytes Encode() const;
  static Result<ViewChangeMsg> Decode(BytesView data);
};

struct NewViewMsg {
  ViewNum view = 0;
  // 2f+1 signed VIEW-CHANGE envelopes justifying the new view.
  std::vector<Bytes> view_changes;
  // Signed PRE-PREPARE envelopes for the new view, recomputed by backups.
  std::vector<Bytes> pre_prepares;

  Bytes Encode() const;
  static Result<NewViewMsg> Decode(BytesView data);
};

}  // namespace bftbase

#endif  // SRC_BFT_MESSAGE_H_
