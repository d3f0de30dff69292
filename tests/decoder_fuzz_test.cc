// Seeded mutation harness for the receive path's decoders: Channel::Open,
// Channel::ParseUnverified, RequestMsg::Decode and ReplyMsg::Decode, the
// BASEFS wrapper's NfsCall::Decode (an authenticated client's op reaches it
// at every replica), AbstractFsObject::Decode (state transfer's PutObjs
// decodes each fetched object) and NfsReply::Decode (a client decodes the
// result its replicas vouched for), and the OODB wrapper's DbCall::Decode,
// AbstractDbObject::Decode and DbReply::Decode, which sit at the same three
// places. A Byzantine peer holds valid keys, so any bytes it sends reach
// them. The harness mutates valid encodings
// (truncations, bit flips, inflated u32 length fields, splices of two valid
// encodings) and checks, on every mutated input:
//   - no crash and no undefined behaviour (the asan-ubsan preset runs this
//     binary), and no allocation past the input: during one decode no single
//     allocation is larger than the input plus a fixed allowance for error
//     messages, and all of them together are at most twice the input plus
//     that allowance (a decoder whose records grow in memory, such as a
//     directory's entries, gets its records' growth factor on top);
//   - Open accepts a wire only if its type, sender and payload are those of
//     a wire that was sealed, and ParseUnverified agrees with it;
//   - a wire delivered through the network, where the delivered Payload's
//     digest memo is in play, gets the verdict a direct Open of the same
//     bytes gives at that receiver;
//   - canonical bodies: a body that decodes re-encodes to the same bytes,
//     so no two wires carry one message (or one abstract object) under two
//     digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <new>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/basefs/abstract_spec.h"
#include "src/bft/channel.h"
#include "src/bft/message.h"
#include "src/oodb/oodb_spec.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"

// --- Allocation probe --------------------------------------------------------
// This binary replaces the global operator new and delete. While the probe
// is armed, every operator new records its size. (GCC cannot see that the
// replaced operator new allocates with malloc, so it warns about the frees.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
bool g_probe_armed = false;
size_t g_probe_largest = 0;
size_t g_probe_total = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_probe_armed) {
    g_probe_largest = std::max(g_probe_largest, size);
    g_probe_total += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace bftbase {
namespace {

// Mutated inputs per mutation kind, per input family.
constexpr int kRounds = 10000;

// Error messages are short literals copied into a Status.
constexpr size_t kErrorAllowance = 64;

// A directory entry takes at least 12 bytes on the wire (a u32 name length
// and a u64 oid) and one std::pair<std::string, Oid> in memory.
constexpr double kDirEntryGrowth =
    static_cast<double>(sizeof(std::pair<std::string, Oid>)) / 12;

// An OODB object's field takes at least 8 bytes on the wire (a string
// field's name and value, each an empty string behind its u32 length) and
// one map node in memory: a red-black node's colour and three links, then
// the field's name and value.
constexpr double kDbFieldGrowth =
    static_cast<double>(4 * sizeof(void*) +
                        sizeof(std::pair<const std::string, std::string>)) /
    8;

// Runs `decode` with the probe armed, checks what it allocated against the
// size of `input`, and returns its result. `growth` is how many bytes of
// memory the decoder's records may take per input byte.
template <typename F>
auto DecodeProbed(const char* what, const Bytes& input, F decode,
                  double growth = 1) {
  std::optional<decltype(decode())> out;
  g_probe_largest = 0;
  g_probe_total = 0;
  g_probe_armed = true;
  out.emplace(decode());
  g_probe_armed = false;
  const double size = static_cast<double>(input.size());
  EXPECT_LE(static_cast<double>(g_probe_largest),
            growth * size + kErrorAllowance)
      << what << " on " << HexEncode(input);
  EXPECT_LE(static_cast<double>(g_probe_total),
            (growth + 1) * size + kErrorAllowance)
      << what << " on " << HexEncode(input);
  return std::move(*out);
}

// A u32 length (or count) prefix: its offset in a sample, and its byte
// order (the protocol codec writes little-endian, XDR big-endian).
struct LengthField {
  size_t at = 0;
  bool big_endian = false;
};

// A valid encoding and its length prefixes; an NFS reply also names the
// procedure it answers, which its decoder takes.
struct Sample {
  Bytes bytes;
  std::vector<LengthField> length_fields;
  NfsProc proc = NfsProc::kNull;
};

// Envelope layout (Channel::Seal): u8 type, u32 sender, u8 auth kind, then
// the payload and the auth bytes, each behind a u32 length.
constexpr size_t kPayloadLengthAt = 1 + 4 + 1;
constexpr size_t kPayloadAt = kPayloadLengthAt + 4;

// Both bodies end in their one byte string (RequestMsg's op, ReplyMsg's
// result), right behind its length prefix.
Sample BodySample(Bytes body, size_t tail_size) {
  const size_t length_at = body.size() - tail_size - 4;
  return Sample{std::move(body), {{length_at}}};
}

// An XDR body with length prefixes at `offsets`.
Sample XdrSample(Bytes body, std::vector<size_t> offsets) {
  Sample sample{std::move(body), {}};
  for (size_t at : offsets) {
    sample.length_fields.push_back({at, /*big_endian=*/true});
  }
  return sample;
}

// Walks an OODB spec encoding (the protocol codec: little-endian) to find
// its u32 length and count prefixes: Skip passes fixed-size fields, Prefix
// a length or count, String a length and the bytes behind it.
class DbLayout {
 public:
  DbLayout& Skip(size_t n) {
    at_ += n;
    return *this;
  }
  DbLayout& Prefix() {
    fields_.push_back({at_});
    return Skip(4);
  }
  DbLayout& String(const std::string& s) { return Prefix().Skip(s.size()); }
  Sample Take(Bytes bytes) {
    EXPECT_EQ(at_, bytes.size()) << "layout of " << HexEncode(bytes);
    return Sample{std::move(bytes), std::move(fields_)};
  }

 private:
  size_t at_ = 0;
  std::vector<LengthField> fields_;
};

Sample DbCallSample(const DbCall& call) {
  return DbLayout()
      .Skip(1 + 8 + 8)  // procedure, oid, target
      .String(call.field)
      .String(call.klass)
      .Skip(8)  // value
      .String(call.text)
      .Skip(4)  // depth
      .Take(call.Encode());
}

Sample DbReplySample(const DbReply& reply) {
  return DbLayout()
      .Skip(4 + 8 + 8 + 8)  // status, oid, value, visited
      .String(reply.text)
      .Prefix()
      .Skip(8 * reply.oids.size())
      .Take(reply.Encode());
}

Sample DbObjectSample(const AbstractDbObject& object) {
  DbLayout layout;
  layout.Skip(4 + 1);  // generation, live
  if (object.live) {
    layout.String(object.klass).Prefix();
    for (const auto& [name, value] : object.scalars) {
      layout.String(name).Skip(8);
    }
    layout.Prefix();
    for (const auto& [name, value] : object.strings) {
      layout.String(name).String(value);
    }
    layout.Prefix();
    for (const auto& [name, targets] : object.refs) {
      layout.String(name).Prefix().Skip(8 * targets.size());
    }
  }
  return layout.Take(object.Encode());
}

// The envelope's payload and auth lengths, and the body's own prefixes.
Sample EnvelopeSample(Bytes wire, const Sample& body) {
  Sample sample{std::move(wire),
                {{kPayloadLengthAt}, {kPayloadAt + body.bytes.size()}}};
  for (LengthField field : body.length_fields) {
    field.at += kPayloadAt;
    sample.length_fields.push_back(field);
  }
  return sample;
}

size_t ByteShift(LengthField field, size_t i) {
  return 8 * (field.big_endian ? 3 - i : i);
}

uint32_t ReadU32(const Bytes& b, LengthField field) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(b[field.at + i]) << ByteShift(field, i);
  }
  return v;
}

void WriteU32(Bytes& b, LengthField field, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    b[field.at + i] = static_cast<uint8_t>(v >> ByteShift(field, i));
  }
}

enum class Mutation { kTruncate, kFlipBits, kInflateLength, kSplice };
constexpr Mutation kMutations[] = {Mutation::kTruncate, Mutation::kFlipBits,
                                   Mutation::kInflateLength,
                                   Mutation::kSplice};

// Mutates a sample drawn from `corpus`; `picked`, if given, gets the
// sample drawn.
Bytes Mutate(Mutation m, const std::vector<Sample>& corpus, Rng& rng,
             const Sample** picked = nullptr) {
  const Sample* pick = &corpus[rng.NextBelow(corpus.size())];
  // An inflated length needs a sample that has one (a GETATTR call and a
  // free abstract object are fixed-size).
  while (m == Mutation::kInflateLength && pick->length_fields.empty()) {
    pick = &corpus[rng.NextBelow(corpus.size())];
  }
  if (picked != nullptr) {
    *picked = pick;
  }
  const Sample& s = *pick;
  Bytes out = s.bytes;
  switch (m) {
    case Mutation::kTruncate:
      out.resize(rng.NextBelow(out.size()));
      break;
    case Mutation::kFlipBits: {
      const uint64_t flips = 1 + rng.NextBelow(4);
      for (uint64_t i = 0; i < flips; ++i) {
        out[rng.NextBelow(out.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      break;
    }
    case Mutation::kInflateLength: {
      const LengthField field =
          s.length_fields[rng.NextBelow(s.length_fields.size())];
      const uint32_t now = ReadU32(out, field);
      const uint32_t to_end = static_cast<uint32_t>(out.size() - field.at);
      const uint32_t choices[] = {0xffffffffu, 0x80000000u, 0x7fffffffu,
                                  now + 1,     to_end,      now + to_end,
                                  static_cast<uint32_t>(rng.Next())};
      WriteU32(out, field, choices[rng.NextBelow(std::size(choices))]);
      break;
    }
    case Mutation::kSplice: {
      // A prefix of one valid encoding and a suffix of another, cut at the
      // same offset half of the time so that their layouts line up.
      const Bytes& other = corpus[rng.NextBelow(corpus.size())].bytes;
      const size_t cut = rng.NextBelow(out.size() + 1);
      const size_t from = rng.NextBool(0.5)
                              ? std::min(cut, other.size())
                              : rng.NextBelow(other.size() + 1);
      out.resize(cut);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      break;
    }
  }
  return out;
}

// What Open vouches for.
using Opened = std::tuple<MsgType, NodeId, Bytes>;
Opened Key(const WireMessage& m) { return {m.type, m.sender, m.payload}; }

// A replica on the network path: opens each wire inside its delivery, so
// the delivered Payload's memo is in play, and records what it got.
class Receiver : public SimNode {
 public:
  explicit Receiver(Channel* channel) : channel_(channel) {}
  void OnMessage(NodeId, const Bytes& wire) override {
    auto opened = channel_->Open(wire);
    got.emplace_back(wire, opened.ok() ? std::optional<Opened>(Key(*opened))
                                       : std::nullopt);
  }
  std::vector<std::pair<Bytes, std::optional<Opened>>> got;

 private:
  Channel* channel_;
};

class DecoderFuzz : public ::testing::Test {
 protected:
  static constexpr int kReceivers = 3;  // replicas 1..3; replica 0 sends

  DecoderFuzz() : keys_(0x5eed, config_.node_count()) {
    // Nodes and channels are registered by address: reserve, never grow.
    direct_.reserve(kReceivers);
    networked_.reserve(kReceivers);
    nodes_.reserve(kReceivers);
    for (NodeId id = 1; id <= kReceivers; ++id) {
      direct_.emplace_back(&direct_sim_, &keys_, config_, id);
      networked_.emplace_back(&net_sim_, &keys_, config_, id);
    }
    for (Channel& channel : networked_) {
      nodes_.emplace_back(&channel);
    }
    for (int i = 0; i < kReceivers; ++i) {
      net_sim_.AddNode(i + 1, &nodes_[i]);
    }
    BuildCorpus();
    WarmKeyCaches();
  }

  void BuildCorpus() {
    for (const char* op : {"", "put k v", "an operation of 32 bytes ......"}) {
      RequestMsg r;
      r.client = config_.ClientId(0);
      r.timestamp = 7 + bodies_.size();
      r.read_only = bodies_.size() == 1;
      r.op = ToBytes(op);
      bodies_.push_back(BodySample(r.Encode(), r.op.size()));
    }
    for (int i = 0; i < 3; ++i) {
      ReplyMsg r;
      r.view = static_cast<ViewNum>(i);
      r.timestamp = 9;
      r.client = config_.ClientId(0);
      r.replica = i;
      r.tentative = i == 1;
      r.result_is_digest = i == 2;
      r.result = i == 2 ? Bytes(Digest::kSize, 0xab) : ToBytes("OK");
      bodies_.push_back(BodySample(r.Encode(), r.result.size()));
    }
    // Every body in every Seal* kind, from the senders that use each kind.
    Channel client(&direct_sim_, &keys_, config_, config_.ClientId(0));
    Channel primary(&direct_sim_, &keys_, config_, 0);
    Channel backup(&direct_sim_, &keys_, config_, 2);
    for (const Sample& body : bodies_) {
      const Bytes& b = body.bytes;
      Seal(client.SealAuthenticated(MsgType::kRequest, b), body);
      Seal(primary.SealMac(MsgType::kReply, b, /*to=*/1), body);
      Seal(backup.SealSigned(MsgType::kPrepare, b), body);
    }
    direct_sim_.DiscardCpuOutsideEvents();
    AddNfsCalls();
    AddAbstractFsObjects();
    AddNfsReplies();
    AddDbBodies();
  }

  // NFS calls with every kind of variable-length field. An encoding starts
  // with a u32 procedure and a u64 oid, so a first name's length is at 12;
  // an XDR string takes 4 + its length padded to 4 bytes.
  void AddNfsCalls() {
    NfsCall getattr;
    getattr.proc = NfsProc::kGetAttr;
    getattr.oid = MakeOid(5, 2);
    fs_bodies_.push_back(XdrSample(getattr.Encode(), {}));

    NfsCall lookup;
    lookup.proc = NfsProc::kLookup;
    lookup.oid = kRootOid;
    lookup.name = "x";
    fs_bodies_.push_back(XdrSample(lookup.Encode(), {12}));

    NfsCall create;
    create.proc = NfsProc::kCreate;
    create.oid = kRootOid;
    create.name = "file";
    create.attrs.mode = 0644;
    create.attrs.size = 3;
    fs_bodies_.push_back(XdrSample(create.Encode(), {12}));

    NfsCall write;
    write.proc = NfsProc::kWrite;
    write.oid = MakeOid(3, 1);
    write.offset = 100;
    write.data = ToBytes("hello");
    fs_bodies_.push_back(XdrSample(write.Encode(), {4 + 8 + 8}));

    NfsCall symlink;
    symlink.proc = NfsProc::kSymlink;
    symlink.oid = kRootOid;
    symlink.name = "ln";
    symlink.target = "a/b/c";
    fs_bodies_.push_back(XdrSample(symlink.Encode(), {12, 12 + 4 + 4}));

    NfsCall rename;
    rename.proc = NfsProc::kRename;
    rename.oid = kRootOid;
    rename.name = "old";
    rename.oid2 = MakeOid(2, 1);
    rename.name2 = "a longer new name";
    fs_bodies_.push_back(XdrSample(rename.Encode(), {12, 12 + 4 + 4 + 8}));
  }

  // Abstract objects of every type. After the generation and type, a live
  // object has mode, uid, gid and two timestamps, so its data starts at 36.
  void AddAbstractFsObjects() {
    AbstractFsObject free_entry;
    free_entry.generation = 3;
    fs_bodies_.push_back(XdrSample(free_entry.Encode(), {}));

    AbstractFsObject file;
    file.generation = 1;
    file.type = FileType::kRegular;
    file.mode = 0600;
    file.mtime_us = 1'000'000;
    file.ctime_us = 1'000'500;
    file.file_data = ToBytes("content");
    fs_bodies_.push_back(XdrSample(file.Encode(), {36}));

    AbstractFsObject link;
    link.generation = 2;
    link.type = FileType::kSymlink;
    link.symlink_target = "../target";
    fs_bodies_.push_back(XdrSample(link.Encode(), {36}));

    AbstractFsObject dir;
    dir.generation = 1;
    dir.type = FileType::kDirectory;
    dir.mode = 0755;
    dir.dir_entries = {{"a", MakeOid(1, 1)}, {"bb", MakeOid(2, 4)}};
    // The entry count, then each entry's name length.
    fs_bodies_.push_back(XdrSample(dir.Encode(), {36, 40, 40 + 4 + 4 + 8}));
  }

  // A success and an error reply to every procedure. A reply starts with
  // its u32 status; READ's data follows an 80-byte fattr, and a READDIR
  // listing is an entry count and then each entry's name and oid.
  void AddNfsReplies() {
    constexpr NfsProc kProcs[] = {
        NfsProc::kNull,   NfsProc::kGetAttr, NfsProc::kSetAttr,
        NfsProc::kLookup, NfsProc::kReadlink, NfsProc::kRead,
        NfsProc::kWrite,  NfsProc::kCreate,  NfsProc::kRemove,
        NfsProc::kRename, NfsProc::kSymlink, NfsProc::kMkdir,
        NfsProc::kRmdir,  NfsProc::kReaddir, NfsProc::kStatfs};
    constexpr NfsStat kErrors[] = {NfsStat::kNoEnt, NfsStat::kStale,
                                   NfsStat::kAcces, NfsStat::kNotEmpty};
    NfsReply ok;
    ok.stat = NfsStat::kOk;
    ok.attr.type = FileType::kRegular;
    ok.attr.mode = 0644;
    ok.attr.nlink = 1;
    ok.attr.size = 5;
    ok.attr.fileid = 3;
    ok.attr.mtime_us = 1'000'000;
    ok.oid = MakeOid(3, 1);
    ok.data = ToBytes("hello");
    ok.target = "a/b";
    ok.entries = {{"a", MakeOid(1, 1)}, {"bb", MakeOid(2, 4)}};
    ok.block_size = 4096;
    ok.total_blocks = 1000;
    ok.free_blocks = 10;
    for (size_t i = 0; i < std::size(kProcs); ++i) {
      const NfsProc proc = kProcs[i];
      std::vector<size_t> lengths;
      if (proc == NfsProc::kRead) {
        lengths = {4 + 80};
      } else if (proc == NfsProc::kReadlink) {
        lengths = {4};
      } else if (proc == NfsProc::kReaddir) {
        lengths = {4, 8, 8 + 4 + 4 + 8};
      }
      Sample success = XdrSample(ok.Encode(proc), lengths);
      success.proc = proc;
      fs_replies_.push_back(std::move(success));
      NfsReply error;
      error.stat = kErrors[i % std::size(kErrors)];
      Sample failure = XdrSample(error.Encode(proc), {});
      failure.proc = proc;
      fs_replies_.push_back(std::move(failure));
    }
  }

  // A call to every OODB procedure, replies with every status the wrapper
  // sends, and objects dead and live, with scalar, string and ref fields.
  void AddDbBodies() {
    for (int p = static_cast<int>(DbProc::kCreate);
         p <= static_cast<int>(DbProc::kCount); ++p) {
      DbCall call;
      call.proc = static_cast<DbProc>(p);
      call.oid = MakeOid(4, 2);
      switch (call.proc) {
        case DbProc::kCreate:
          call.oid = 0;
          call.klass = "Part";
          break;
        case DbProc::kSetScalar:
          call.value = -42;
          [[fallthrough]];
        case DbProc::kGetScalar:
          call.field = "value";
          break;
        case DbProc::kSetString:
          call.text = "a part name";
          [[fallthrough]];
        case DbProc::kGetString:
          call.field = "name";
          break;
        case DbProc::kAddRef:
        case DbProc::kRemoveRef:
          call.target = MakeOid(7, 3);
          [[fallthrough]];
        case DbProc::kGetRefs:
          call.field = "children";
          break;
        case DbProc::kTraverse:
          call.field = "children";
          call.depth = 5;
          break;
        case DbProc::kScan:
        case DbProc::kCount:
          call.oid = 0;
          break;
        case DbProc::kDelete:
          break;
      }
      db_bodies_.push_back(DbCallSample(call));
    }

    DbReply created;
    created.oid = MakeOid(4, 2);
    DbReply text;
    text.text = "a part name";
    DbReply refs;
    refs.oids = {MakeOid(1, 1), MakeOid(7, 3), MakeOid(9, 2)};
    DbReply traversed;
    traversed.value = 17;
    traversed.visited = 4;
    DbReply not_found;
    not_found.status = 1;
    DbReply invalid;
    invalid.status = 2;
    for (const DbReply* reply :
         {&created, &text, &refs, &traversed, &not_found, &invalid}) {
      db_bodies_.push_back(DbReplySample(*reply));
    }

    AbstractDbObject dead;
    dead.generation = 3;
    AbstractDbObject scalars;
    scalars.generation = 1;
    scalars.live = true;
    scalars.klass = "Part";
    scalars.scalars = {{"size", 9}, {"value", -1}};
    AbstractDbObject strings;
    strings.generation = 2;
    strings.live = true;
    strings.klass = "Doc";
    strings.strings = {{"name", "x"}, {"title", "a title"}};
    AbstractDbObject refs_object;
    refs_object.generation = 1;
    refs_object.live = true;
    refs_object.klass = "Node";
    refs_object.refs = {{"children", {MakeOid(1, 1), MakeOid(2, 4)}},
                        {"parent", {MakeOid(3, 1)}},
                        {"peers", {}}};
    AbstractDbObject all = refs_object;
    all.scalars = scalars.scalars;
    all.strings = strings.strings;
    for (const AbstractDbObject* object :
         {&dead, &scalars, &strings, &refs_object, &all}) {
      db_bodies_.push_back(DbObjectSample(*object));
    }
  }

  void Seal(Bytes wire, const Sample& body) {
    auto opened = Channel::ParseUnverified(wire);
    ASSERT_TRUE(opened.ok());
    sealed_.insert(Key(*opened));
    envelopes_.push_back(EnvelopeSample(std::move(wire), body));
  }

  // The key table builds each pairwise and signing key on first use. Build
  // them all now, so that the probe sees only what a decode allocates.
  void WarmKeyCaches() {
    for (NodeId sender = 0; sender < config_.node_count(); ++sender) {
      Channel channel(&direct_sim_, &keys_, config_, sender);
      for (int i = 0; i < kReceivers; ++i) {
        EXPECT_TRUE(direct_[i].Open(channel.SealMac(MsgType::kReply,
                                                    ToBytes("warm"), i + 1))
                        .ok());
      }
      EXPECT_TRUE(
          direct_[0].Open(channel.SealSigned(MsgType::kPrepare, ToBytes("w")))
              .ok());
    }
    direct_sim_.DiscardCpuOutsideEvents();
  }

  // Decodes `body` every way, and as a reply to `reply_proc` if one is
  // given; whatever decodes must re-encode to `body`, and a reply's status
  // must be one NfsStat defines. Returns how many decoders accepted it.
  int CheckBody(const Bytes& body,
                std::optional<NfsProc> reply_proc = std::nullopt) {
    int accepted = 0;
    auto request = DecodeProbed("RequestMsg::Decode", body,
                                [&] { return RequestMsg::Decode(body); });
    if (request.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(request->Encode()), HexEncode(body));
    }
    auto reply = DecodeProbed("ReplyMsg::Decode", body,
                              [&] { return ReplyMsg::Decode(body); });
    if (reply.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(reply->Encode()), HexEncode(body));
    }
    auto call = DecodeProbed("NfsCall::Decode", body,
                             [&] { return NfsCall::Decode(body); });
    if (call.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(call->Encode()), HexEncode(body));
    }
    auto object = DecodeProbed(
        "AbstractFsObject::Decode", body,
        [&] { return AbstractFsObject::Decode(body); }, kDirEntryGrowth);
    if (object.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(object->Encode()), HexEncode(body));
    }
    if (reply_proc.has_value()) {
      auto nfs_reply = DecodeProbed(
          "NfsReply::Decode", body,
          [&] { return NfsReply::Decode(*reply_proc, body); },
          kDirEntryGrowth);
      if (nfs_reply.ok()) {
        ++accepted;
        EXPECT_EQ(HexEncode(nfs_reply->Encode(*reply_proc)), HexEncode(body));
        EXPECT_STRNE(NfsStatName(nfs_reply->stat), "NFSERR_UNKNOWN")
            << HexEncode(body);
      }
    }
    bodies_decoded_ += accepted;
    return accepted;
  }

  // Decodes `body` as each OODB spec type; whatever decodes must re-encode
  // to `body`, and a reply's status must be one the wrapper sends (0 OK,
  // 1 not found, 2 invalid). Returns how many decoders accepted it.
  int CheckDbBody(const Bytes& body) {
    int accepted = 0;
    auto call = DecodeProbed("DbCall::Decode", body,
                             [&] { return DbCall::Decode(body); });
    if (call.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(call->Encode()), HexEncode(body));
    }
    auto reply = DecodeProbed("DbReply::Decode", body,
                              [&] { return DbReply::Decode(body); });
    if (reply.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(reply->Encode()), HexEncode(body));
      EXPECT_LE(reply->status, 2u) << HexEncode(body);
    }
    auto object = DecodeProbed(
        "AbstractDbObject::Decode", body,
        [&] { return AbstractDbObject::Decode(body); }, kDbFieldGrowth);
    if (object.ok()) {
      ++accepted;
      EXPECT_EQ(HexEncode(object->Encode()), HexEncode(body));
    }
    bodies_decoded_ += accepted;
    return accepted;
  }

  void CheckEnvelope(const Bytes& wire) {
    auto opened = DecodeProbed("Channel::Open", wire,
                               [&] { return direct_[0].Open(wire); });
    direct_sim_.DiscardCpuOutsideEvents();
    auto parsed = DecodeProbed("Channel::ParseUnverified", wire,
                               [&] { return Channel::ParseUnverified(wire); });
    if (opened.ok()) {
      ++envelopes_opened_;
      EXPECT_EQ(sealed_.count(Key(*opened)), 1u) << HexEncode(wire);
      ASSERT_TRUE(parsed.ok()) << HexEncode(wire);
      EXPECT_TRUE(Key(*parsed) == Key(*opened)) << HexEncode(wire);
    }
    if (parsed.ok()) {
      CheckBody(parsed->payload);
    }
  }

  // Multicasts `wire` to the three receivers, and with `intercept` rewrites
  // replica 2's copy in flight (the others then share the folded-back
  // Payload). Each receiver's verdict must be a direct Open's.
  void CheckDelivery(const Bytes& wire, bool intercept) {
    Network& net = net_sim_.network();
    Network::Interceptor rewrite;
    if (intercept) {
      rewrite = [](NodeId, NodeId to, Bytes& bytes) {
        if (to == 2 && !bytes.empty()) {
          bytes[bytes.size() / 2] ^= 0x10;
        }
        return true;
      };
    }
    net.SetInterceptor(std::move(rewrite));
    for (Receiver& node : nodes_) {
      node.got.clear();
    }
    net_sim_.After(0, 0, [&] { net.Multicast(0, 1, kReceivers + 1, wire); });
    net_sim_.RunUntilIdle();
    for (int i = 0; i < kReceivers; ++i) {
      ASSERT_EQ(nodes_[i].got.size(), 1u);
      const auto& [bytes, verdict] = nodes_[i].got[0];
      auto direct = direct_[i].Open(bytes);
      ASSERT_EQ(verdict.has_value(), direct.ok()) << HexEncode(bytes);
      if (direct.ok()) {
        EXPECT_TRUE(*verdict == Key(*direct)) << HexEncode(bytes);
      }
    }
    direct_sim_.DiscardCpuOutsideEvents();
  }

  Config config_;
  KeyTable keys_;
  Simulation direct_sim_{1};
  Simulation net_sim_{2};
  std::vector<Channel> direct_;     // replicas 1..3, opened outside events
  std::vector<Channel> networked_;  // the same replicas on the network
  std::vector<Receiver> nodes_;
  std::vector<Sample> bodies_;     // RequestMsg and ReplyMsg encodings
  std::vector<Sample> envelopes_;  // each of bodies_, sealed three ways
  std::vector<Sample> fs_bodies_;  // NfsCall and AbstractFsObject encodings
  std::vector<Sample> fs_replies_;  // NfsReply encodings, with their procs
  std::vector<Sample> db_bodies_;  // DbCall, DbReply, AbstractDbObject
  std::set<Opened> sealed_;
  int bodies_decoded_ = 0;
  int envelopes_opened_ = 0;
};

TEST_F(DecoderFuzz, CorpusIsValid) {
  ASSERT_EQ(envelopes_.size(), 3 * bodies_.size());
  for (const Sample& envelope : envelopes_) {
    auto opened = direct_[0].Open(envelope.bytes);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(sealed_.count(Key(*opened)), 1u);
  }
  // Each length prefix is where the sample says: it counts no more than
  // the bytes behind it. Each body is accepted by exactly one decoder.
  for (const std::vector<Sample>* corpus :
       {&bodies_, &envelopes_, &fs_bodies_, &fs_replies_, &db_bodies_}) {
    for (const Sample& sample : *corpus) {
      for (LengthField field : sample.length_fields) {
        ASSERT_LE(field.at + 4, sample.bytes.size());
        EXPECT_LE(ReadU32(sample.bytes, field),
                  sample.bytes.size() - field.at - 4)
            << HexEncode(sample.bytes) << " at " << field.at;
      }
    }
  }
  for (const std::vector<Sample>* corpus : {&bodies_, &fs_bodies_}) {
    for (const Sample& body : *corpus) {
      EXPECT_EQ(CheckBody(body.bytes), 1) << HexEncode(body.bytes);
    }
  }
  for (const Sample& body : db_bodies_) {
    EXPECT_EQ(CheckDbBody(body.bytes), 1) << HexEncode(body.bytes);
  }
  // Each reply decodes as a reply to its procedure (a bare NFS_OK is also
  // a NULL call, so other decoders may accept it too).
  for (const Sample& reply : fs_replies_) {
    EXPECT_TRUE(NfsReply::Decode(reply.proc, reply.bytes).ok())
        << HexEncode(reply.bytes);
    EXPECT_GE(CheckBody(reply.bytes, reply.proc), 1);
  }
}

TEST_F(DecoderFuzz, MutatedEnvelopesOpenOnlyAsSealed) {
  Rng rng(0xe1);
  for (Mutation m : kMutations) {
    for (int i = 0; i < kRounds; ++i) {
      const Bytes wire = Mutate(m, envelopes_, rng);
      CheckEnvelope(wire);
      if (i % 4 == 0) {
        CheckDelivery(wire, /*intercept=*/i % 8 == 0);
      }
      if (HasFailure()) {
        return;  // the first failing input is reported above
      }
    }
  }
  // Not vacuous: some mutations leave an envelope that still opens (a flip
  // in another receiver's MAC, a splice of two whole wires), and some
  // mutated payloads still decode as bodies.
  EXPECT_GT(envelopes_opened_, 0);
  EXPECT_GT(bodies_decoded_, 0);
}

TEST_F(DecoderFuzz, MutatedBodiesDecodeCanonically) {
  Rng rng(0xb0);
  for (Mutation m : kMutations) {
    for (int i = 0; i < kRounds; ++i) {
      CheckBody(Mutate(m, bodies_, rng));
      if (HasFailure()) {
        return;  // the first failing input is reported above
      }
    }
  }
  EXPECT_GT(bodies_decoded_, 0);
}

TEST_F(DecoderFuzz, MutatedFsBodiesDecodeCanonically) {
  Rng rng(0xf5);
  for (Mutation m : kMutations) {
    for (int i = 0; i < kRounds; ++i) {
      CheckBody(Mutate(m, fs_bodies_, rng));
      if (HasFailure()) {
        return;  // the first failing input is reported above
      }
    }
  }
  EXPECT_GT(bodies_decoded_, 0);
}

// Replies, each mutated and decoded as a reply to the procedure of the
// sample it came from (a splice keeps its prefix's).
TEST_F(DecoderFuzz, MutatedNfsRepliesDecodeCanonically) {
  Rng rng(0x5e);
  for (Mutation m : kMutations) {
    for (int i = 0; i < kRounds; ++i) {
      const Sample* picked = nullptr;
      const Bytes body = Mutate(m, fs_replies_, rng, &picked);
      CheckBody(body, picked->proc);
      if (HasFailure()) {
        return;  // the first failing input is reported above
      }
    }
  }
  EXPECT_GT(bodies_decoded_, 0);
}

TEST_F(DecoderFuzz, MutatedDbBodiesDecodeCanonically) {
  Rng rng(0xdb);
  for (Mutation m : kMutations) {
    for (int i = 0; i < kRounds; ++i) {
      CheckDbBody(Mutate(m, db_bodies_, rng));
      if (HasFailure()) {
        return;  // the first failing input is reported above
      }
    }
  }
  EXPECT_GT(bodies_decoded_, 0);
}

// The shrunk inputs of the defects this harness found; each is rejected
// now, within the allocation bound.
TEST_F(DecoderFuzz, FoundDefectsStayFixed) {
  // A LOOKUP of "x" whose name is padded with 01 00 00: XdrReader skipped
  // the padding unread, so this decoded as the zero-padded LOOKUP, one call
  // under two encodings.
  const Bytes padded =
      HexDecode("00000004" "0000000000000001" "00000001" "78010000");
  EXPECT_FALSE(NfsCall::Decode(padded).ok());
  // A directory object that claims 2^20 entries and holds none: the decoder
  // appended an empty entry per claimed one, 40 MB for these 40 bytes.
  const Bytes directory = HexDecode(
      "00000001" "00000002" "000001ed" "00000000" "00000000"
      "0000000000000000" "0000000000000000" "00100000");
  EXPECT_FALSE(AbstractFsObject::Decode(directory).ok());
  for (const Bytes& input : {padded, directory}) {
    EXPECT_EQ(CheckBody(input), 0) << HexEncode(input);
  }
  // READDIR replies decoded their entry count the same way.
  const Bytes listing = HexDecode("00000000" "00100000");
  EXPECT_FALSE(DecodeProbed("NfsReply::Decode", listing, [&] {
                 return NfsReply::Decode(NfsProc::kReaddir, listing);
               }, kDirEntryGrowth).ok());
  // An error reply with bytes after its status decoded as the bare error,
  // NFSERR_NOENT here, one reply under many encodings; and a status
  // NfsStat does not define (999) decoded too.
  const Bytes trailing = HexDecode("00000002" "deadbeef");
  const Bytes undefined = HexDecode("000003e7");
  for (const Bytes& input : {trailing, undefined}) {
    EXPECT_FALSE(NfsReply::Decode(NfsProc::kLookup, input).ok())
        << HexEncode(input);
    EXPECT_EQ(CheckBody(input, NfsProc::kLookup), 0) << HexEncode(input);
  }

  // OODB (little-endian). A reply that claims 2^20 oids and holds none: the
  // decoder pushed an oid per claimed one, 8 MiB for these 36 bytes.
  const Bytes oids = HexDecode(
      "00000000" "0000000000000000" "0000000000000000" "0000000000000000"
      "00000000" "00001000");
  // A reply with status 3: the wrapper sends only 0, 1 and 2.
  const Bytes status = HexDecode(
      "03000000" "0000000000000000" "0000000000000000" "0000000000000000"
      "00000000" "00000000");
  // A live object whose one ref field claims 2^20 targets and holds none:
  // the decoder reserved 8 MiB before reading any.
  const Bytes targets = HexDecode(
      "01000000" "01" "00000000" "00000000" "00000000" "01000000"
      "00000000" "00001000");
  // Fields out of order or repeated decoded to the sorted object, one object
  // under two encodings: scalars "b" then "a", string "a" twice, refs "b"
  // then "a".
  const Bytes scalars = HexDecode(
      "01000000" "01" "00000000" "02000000"
      "0100000062" "0000000000000000" "0100000061" "0000000000000000"
      "00000000" "00000000");
  const Bytes strings = HexDecode(
      "01000000" "01" "00000000" "00000000" "02000000"
      "0100000061" "00000000" "0100000061" "00000000" "00000000");
  const Bytes refs = HexDecode(
      "01000000" "01" "00000000" "00000000" "00000000" "02000000"
      "0100000062" "00000000" "0100000061" "00000000");
  for (const Bytes& input : {oids, status, targets, scalars, strings, refs}) {
    EXPECT_EQ(CheckDbBody(input), 0) << HexEncode(input);
  }
}

}  // namespace
}  // namespace bftbase
