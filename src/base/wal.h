// Deterministic append-only write-ahead log for the abstract-object store.
//
// Follows the classic recovery-log discipline (append records, explicit
// fsync points, truncate at the stable checkpoint): the replica appends one
// record per executed batch plus view marks, syncs at batch granularity, and
// rewrites the log down to the post-checkpoint suffix whenever a checkpoint
// is made durable. A crashed replica recovers by loading its last durable
// checkpoint (the page store) and replaying the WAL tail through the
// adapter, which rebuilds byte-identical abstract state — verified against
// the partition-tree root digest.
//
// Record framing (little-endian):
//   u32 body_len | u64 checksum | body
//   body := u8 type | u64 seq | payload
//
// The checksum is the first 8 bytes of SHA-256 over (previous record's
// checksum || body), so records are chained: a record is only accepted if
// every record before it decoded cleanly, which pins both content and
// position. Decoding stops at the first short or checksum-failing record
// (the torn tail a crash mid-append leaves behind); everything before it is
// trusted, everything after is discarded.
#ifndef SRC_BASE_WAL_H_
#define SRC_BASE_WAL_H_

#include <cstdint>
#include <vector>

#include "src/bft/config.h"
#include "src/sim/storage.h"
#include "src/util/bytes.h"

namespace bftbase {

class WriteAheadLog {
 public:
  enum RecordType : uint8_t {
    kBatch = 1,        // seq = batch sequence number; payload = encoded batch
    kViewMark = 2,     // seq = installed view; empty payload
    // A prepared certificate (signed pre-prepare + 2f signed prepares + the
    // batch's client envelopes, since the pre-prepare lists only their
    // digests), persisted BEFORE the replica's COMMIT announces the promise,
    // so a restart needs no peer for a body it promised. Without
    // it a crash forgets the promise, and two overlapping crashes can erase
    // a committed batch's certificate from every view-change quorum — the
    // next NEW-VIEW then re-proposes a different batch at the same sequence
    // number (a real safety violation found by the chaos harness).
    kPrepared = 3,     // seq = batch sequence number; payload = certificate
    // The 2f+1 signed CHECKPOINT messages proving the stable checkpoint, so
    // a restarted replica can include prepared entries above it in its
    // VIEW-CHANGE message (entries beyond the provable window are dropped).
    kStableProof = 4,  // seq = stable checkpoint seq; payload = proof wires
  };

  struct Record {
    uint8_t type = 0;
    uint64_t seq = 0;
    Bytes payload;
  };

  struct ScanResult {
    std::vector<Record> records;
    bool torn_tail = false;     // trailing bytes failed to decode
    size_t valid_bytes = 0;     // log prefix covered by decoded records
    size_t dropped_bytes = 0;   // torn/corrupt suffix length
    uint64_t tail_checksum = 0; // chain state after the last valid record
  };

  explicit WriteAheadLog(StorageDevice* storage) : storage_(storage) {}

  // Appends one record (buffered until Sync()).
  void Append(uint8_t type, uint64_t seq, BytesView payload);
  // Explicit fsync point: everything appended so far is durable after this.
  void Sync();

  // Truncate-at-checkpoint: rewrites the log to only the records still
  // needed after a durable checkpoint at `checkpoint_seq` — batch records
  // with seq > checkpoint_seq, prepared-certificate records with seq above
  // the latest durable stable proof (a local checkpoint is not yet provably
  // stable, so the certificates it covers must outlive it until a
  // kStableProof at >= their seq is on disk), plus the latest view mark and
  // that latest stable-checkpoint proof. Durable on return; this implies a
  // sync of any still-buffered appends, which are carried into the rewritten
  // image.
  void TruncateThrough(SeqNum checkpoint_seq);

  // Reads the device log back (post-restart), decodes it, and repairs the
  // file: a torn/corrupt suffix is cut off so later appends extend a clean
  // log, and the checksum chain resumes from the last valid record.
  ScanResult Recover();

  // Pure decode of a log image (unit tests, tooling).
  static ScanResult Decode(BytesView log_bytes);

  uint64_t records_appended() const { return records_appended_; }

 private:
  static Bytes EncodeRecord(uint64_t prev_checksum, uint8_t type, uint64_t seq,
                            BytesView payload, uint64_t* checksum_out);

  StorageDevice* storage_;
  uint64_t chain_ = 0;  // checksum of the last appended record
  uint64_t records_appended_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BASE_WAL_H_
