#include "src/bft/message.h"

#include "src/util/codec.h"

namespace bftbase {

namespace {

// Cap that bounds memory consumption when parsing hostile proofs.
constexpr size_t kMaxProofMessages = 1 << 14;

Status Truncated(const char* what) {
  return InvalidArgument(std::string("truncated ") + what);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kRequest:
      return "REQUEST";
    case MsgType::kPrePrepare:
      return "PRE-PREPARE";
    case MsgType::kPrepare:
      return "PREPARE";
    case MsgType::kCommit:
      return "COMMIT";
    case MsgType::kReply:
      return "REPLY";
    case MsgType::kCheckpoint:
      return "CHECKPOINT";
    case MsgType::kViewChange:
      return "VIEW-CHANGE";
    case MsgType::kNewView:
      return "NEW-VIEW";
    case MsgType::kState:
      return "STATE";
    case MsgType::kFetch:
      return "FETCH";
    case MsgType::kFetchReply:
      return "FETCH-REPLY";
  }
  return "UNKNOWN";
}

// ---------------------------------------------------------------- Request

Bytes RequestMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(client));
  enc.PutU64(timestamp);
  enc.PutBool(read_only);
  enc.PutBytes(op);
  return enc.Take();
}

Result<RequestMsg> RequestMsg::Decode(BytesView data) {
  Decoder dec(data);
  RequestMsg msg;
  msg.client = static_cast<NodeId>(dec.GetU32());
  msg.timestamp = dec.GetU64();
  msg.read_only = dec.GetBool();
  msg.op = dec.GetBytes();
  if (!dec.AtEnd()) {
    return Truncated("REQUEST");
  }
  return msg;
}

Digest RequestMsg::ComputeDigest() const {
  return Digest::Builder()
      .Add(static_cast<uint64_t>(client))
      .Add(timestamp)
      .Add(static_cast<uint64_t>(read_only ? 1 : 0))
      .Add(BytesView(op))
      .Build();
}

// ------------------------------------------------------------- PrePrepare

namespace {

void PutDigests(Encoder& enc, const std::vector<Digest>& digests) {
  enc.PutU32(static_cast<uint32_t>(digests.size()));
  for (const Digest& d : digests) {
    enc.PutFixed(d.view());
  }
}

// Reads a count-prefixed digest list; false when the count exceeds
// kMaxBatch or the bytes run out.
bool GetDigests(Decoder& dec, std::vector<Digest>* digests) {
  uint32_t count = dec.GetU32();
  if (count > kMaxBatch) {
    return false;
  }
  digests->reserve(count);
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    digests->push_back(Digest::FromBytes(dec.GetFixed(Digest::kSize)));
  }
  return dec.ok();
}

}  // namespace

Bytes PrePrepareMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutBytes(nondet);
  PutDigests(enc, request_digests);
  return enc.Take();
}

Result<PrePrepareMsg> PrePrepareMsg::Decode(BytesView data) {
  Decoder dec(data);
  PrePrepareMsg msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.nondet = dec.GetBytes();
  if (!GetDigests(dec, &msg.request_digests) || !dec.AtEnd()) {
    return Truncated("PRE-PREPARE");
  }
  return msg;
}

Digest PrePrepareMsg::ComputeDigest() const {
  Digest::Builder builder;
  builder.Add(BytesView(nondet));
  builder.Add(static_cast<uint64_t>(request_digests.size()));
  for (const Digest& d : request_digests) {
    builder.Add(d);
  }
  return builder.Build();
}

// ------------------------------------------------------------------ Fetch

Bytes FetchMsg::Encode() const {
  Encoder enc;
  PutDigests(enc, request_digests);
  return enc.Take();
}

Result<FetchMsg> FetchMsg::Decode(BytesView data) {
  Decoder dec(data);
  FetchMsg msg;
  if (!GetDigests(dec, &msg.request_digests) || !dec.AtEnd()) {
    return Truncated("FETCH");
  }
  return msg;
}

Bytes FetchReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(request_wires.size()));
  for (const Bytes& w : request_wires) {
    enc.PutBytes(w);
  }
  return enc.Take();
}

Result<FetchReplyMsg> FetchReplyMsg::Decode(BytesView data) {
  Decoder dec(data);
  FetchReplyMsg msg;
  uint32_t count = dec.GetU32();
  if (count > kMaxBatch) {
    return Truncated("FETCH-REPLY");
  }
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    msg.request_wires.push_back(dec.GetBytes());
  }
  if (!dec.AtEnd()) {
    return Truncated("FETCH-REPLY");
  }
  return msg;
}

// ---------------------------------------------------------------- Prepare

namespace {

Bytes EncodeAgreement(ViewNum view, SeqNum seq, const Digest& digest,
                      NodeId replica) {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutFixed(digest.view());
  enc.PutU32(static_cast<uint32_t>(replica));
  return enc.Take();
}

template <typename T>
Result<T> DecodeAgreement(BytesView data, const char* name) {
  Decoder dec(data);
  T msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::FromBytes(dec.GetFixed(Digest::kSize));
  msg.replica = static_cast<NodeId>(dec.GetU32());
  if (!dec.AtEnd()) {
    return Truncated(name);
  }
  return msg;
}

}  // namespace

Bytes PrepareMsg::Encode() const {
  return EncodeAgreement(view, seq, digest, replica);
}

Result<PrepareMsg> PrepareMsg::Decode(BytesView data) {
  return DecodeAgreement<PrepareMsg>(data, "PREPARE");
}

Bytes CommitMsg::Encode() const {
  return EncodeAgreement(view, seq, digest, replica);
}

Result<CommitMsg> CommitMsg::Decode(BytesView data) {
  return DecodeAgreement<CommitMsg>(data, "COMMIT");
}

// ------------------------------------------------------------------ Reply

Bytes ReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU64(timestamp);
  enc.PutU32(static_cast<uint32_t>(client));
  enc.PutU32(static_cast<uint32_t>(replica));
  enc.PutBool(tentative);
  enc.PutBool(result_is_digest);
  enc.PutBytes(result);
  return enc.Take();
}

Result<ReplyMsg> ReplyMsg::Decode(BytesView data) {
  Decoder dec(data);
  ReplyMsg msg;
  msg.view = dec.GetU64();
  msg.timestamp = dec.GetU64();
  msg.client = static_cast<NodeId>(dec.GetU32());
  msg.replica = static_cast<NodeId>(dec.GetU32());
  msg.tentative = dec.GetBool();
  msg.result_is_digest = dec.GetBool();
  msg.result = dec.GetBytes();
  if (!dec.AtEnd()) {
    return Truncated("REPLY");
  }
  // Digest::FromBytes maps any other length to the zero digest, which the
  // client would tally as a vote.
  if (msg.result_is_digest && msg.result.size() != Digest::kSize) {
    return InvalidArgument("REPLY digest of wrong size");
  }
  return msg;
}

// ------------------------------------------------------------- Checkpoint

Bytes CheckpointMsg::Encode() const {
  Encoder enc;
  enc.PutU64(seq);
  enc.PutFixed(state_digest.view());
  enc.PutU32(static_cast<uint32_t>(replica));
  return enc.Take();
}

Result<CheckpointMsg> CheckpointMsg::Decode(BytesView data) {
  Decoder dec(data);
  CheckpointMsg msg;
  msg.seq = dec.GetU64();
  msg.state_digest = Digest::FromBytes(dec.GetFixed(Digest::kSize));
  msg.replica = static_cast<NodeId>(dec.GetU32());
  if (!dec.AtEnd()) {
    return Truncated("CHECKPOINT");
  }
  return msg;
}

// ---------------------------------------------------------- PreparedProof

void PreparedProof::EncodeTo(Encoder& enc) const {
  enc.PutBytes(pre_prepare_wire);
  enc.PutU32(static_cast<uint32_t>(prepare_wires.size()));
  for (const Bytes& w : prepare_wires) {
    enc.PutBytes(w);
  }
}

Result<PreparedProof> PreparedProof::DecodeFrom(Decoder& dec) {
  PreparedProof proof;
  proof.pre_prepare_wire = dec.GetBytes();
  uint32_t count = dec.GetU32();
  if (count > kMaxProofMessages) {
    return InvalidArgument("prepared proof too large");
  }
  proof.prepare_wires.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    proof.prepare_wires.push_back(dec.GetBytes());
  }
  if (!dec.ok()) {
    return Truncated("prepared proof");
  }
  return proof;
}

// ------------------------------------------------------------- ViewChange

Bytes ViewChangeMsg::Encode() const {
  Encoder enc;
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  enc.PutFixed(stable_digest.view());
  enc.PutU32(static_cast<uint32_t>(checkpoint_proof.size()));
  for (const Bytes& w : checkpoint_proof) {
    enc.PutBytes(w);
  }
  enc.PutU32(static_cast<uint32_t>(prepared.size()));
  for (const PreparedProof& p : prepared) {
    p.EncodeTo(enc);
  }
  enc.PutU32(static_cast<uint32_t>(replica));
  return enc.Take();
}

Result<ViewChangeMsg> ViewChangeMsg::Decode(BytesView data) {
  Decoder dec(data);
  ViewChangeMsg msg;
  msg.new_view = dec.GetU64();
  msg.stable_seq = dec.GetU64();
  msg.stable_digest = Digest::FromBytes(dec.GetFixed(Digest::kSize));
  uint32_t cp_count = dec.GetU32();
  if (cp_count > kMaxProofMessages) {
    return InvalidArgument("VIEW-CHANGE checkpoint proof too large");
  }
  for (uint32_t i = 0; i < cp_count; ++i) {
    msg.checkpoint_proof.push_back(dec.GetBytes());
  }
  uint32_t p_count = dec.GetU32();
  if (p_count > kMaxProofMessages) {
    return InvalidArgument("VIEW-CHANGE prepared set too large");
  }
  for (uint32_t i = 0; i < p_count; ++i) {
    auto proof = PreparedProof::DecodeFrom(dec);
    if (!proof.ok()) {
      return proof.status();
    }
    msg.prepared.push_back(std::move(proof).value());
  }
  msg.replica = static_cast<NodeId>(dec.GetU32());
  if (!dec.AtEnd()) {
    return Truncated("VIEW-CHANGE");
  }
  return msg;
}

// ---------------------------------------------------------------- NewView

Bytes NewViewMsg::Encode() const {
  Encoder enc;
  enc.PutU64(view);
  enc.PutU32(static_cast<uint32_t>(view_changes.size()));
  for (const Bytes& w : view_changes) {
    enc.PutBytes(w);
  }
  enc.PutU32(static_cast<uint32_t>(pre_prepares.size()));
  for (const Bytes& w : pre_prepares) {
    enc.PutBytes(w);
  }
  return enc.Take();
}

Result<NewViewMsg> NewViewMsg::Decode(BytesView data) {
  Decoder dec(data);
  NewViewMsg msg;
  msg.view = dec.GetU64();
  uint32_t vc_count = dec.GetU32();
  if (vc_count > kMaxProofMessages) {
    return InvalidArgument("NEW-VIEW proof too large");
  }
  for (uint32_t i = 0; i < vc_count; ++i) {
    msg.view_changes.push_back(dec.GetBytes());
  }
  uint32_t pp_count = dec.GetU32();
  if (pp_count > kMaxProofMessages) {
    return InvalidArgument("NEW-VIEW pre-prepare set too large");
  }
  for (uint32_t i = 0; i < pp_count; ++i) {
    msg.pre_prepares.push_back(dec.GetBytes());
  }
  if (!dec.AtEnd()) {
    return Truncated("NEW-VIEW");
  }
  return msg;
}

}  // namespace bftbase
