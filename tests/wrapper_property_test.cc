// Property tests for the conformance wrappers: the determinism obligation.
//
// Drives IDENTICAL random operation sequences into wrappers over all three
// file-system vendors (directly, no replication) and requires that after
// every burst the abstract states are byte-identical — the property the
// whole methodology rests on. A second sweep does the same for the object
// database with different instance salts. After every burst each wrapper's
// RunLength is checked too: the create/remove cycles leave free entries of
// different generations, whose abstract values differ.
#include <gtest/gtest.h>

#include "src/base/replica_service.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/conformance_wrapper.h"
#include "src/oodb/oodb_session.h"
#include "src/util/rng.h"
#include "tests/resync_checks.h"

namespace bftbase {
namespace {

constexpr uint32_t kArraySize = 96;

// A deterministic random NFS operation generator that tracks live oids so
// most operations hit valid targets (and some deliberately do not).
class FsOpFuzzer {
 public:
  explicit FsOpFuzzer(uint64_t seed) : rng_(seed) {
    dirs_.push_back(kRootOid);
  }

  NfsCall Next() {
    NfsCall call;
    switch (rng_.NextBelow(10)) {
      case 0:
        call.proc = NfsProc::kMkdir;
        call.oid = RandomDir();
        call.name = FreshName("d");
        break;
      case 1:
      case 2:
        call.proc = NfsProc::kCreate;
        call.oid = RandomDir();
        call.name = FreshName("f");
        call.attrs.mode = 0600 + static_cast<uint32_t>(rng_.NextBelow(64));
        break;
      case 3:
      case 4:
        call.proc = NfsProc::kWrite;
        call.oid = RandomFile();
        call.offset = rng_.NextBelow(256);
        call.data = Bytes(1 + rng_.NextBelow(300),
                          static_cast<uint8_t>(rng_.NextBelow(256)));
        break;
      case 5:
        call.proc = NfsProc::kSymlink;
        call.oid = RandomDir();
        call.name = FreshName("l");
        call.target = "target/" + std::to_string(rng_.NextBelow(100));
        break;
      case 6:
        call.proc = NfsProc::kRemove;
        call.oid = RandomDir();
        call.name = MaybeKnownName();
        break;
      case 7:
        call.proc = NfsProc::kRename;
        call.oid = RandomDir();
        call.name = MaybeKnownName();
        call.oid2 = RandomDir();
        call.name2 = FreshName("r");
        break;
      case 8:
        call.proc = NfsProc::kSetAttr;
        call.oid = RandomFile();
        call.attrs.mode = 0755;
        call.attrs.size = rng_.NextBelow(128);
        break;
      default:
        call.proc = NfsProc::kRmdir;
        call.oid = RandomDir();
        call.name = MaybeKnownName();
        break;
    }
    return call;
  }

  // Track results so later ops can reference created objects.
  void Observe(const NfsCall& call, const NfsReply& reply) {
    if (reply.stat != NfsStat::kOk) {
      return;
    }
    switch (call.proc) {
      case NfsProc::kMkdir:
        dirs_.push_back(reply.oid);
        names_.push_back(call.name);
        break;
      case NfsProc::kCreate:
        files_.push_back(reply.oid);
        names_.push_back(call.name);
        break;
      case NfsProc::kSymlink:
        names_.push_back(call.name);
        break;
      case NfsProc::kRename:
        names_.push_back(call.name2);
        break;
      default:
        break;
    }
  }

 private:
  Oid RandomDir() { return dirs_[rng_.NextBelow(dirs_.size())]; }
  Oid RandomFile() {
    if (files_.empty() || rng_.NextBool(0.1)) {
      return MakeOid(static_cast<uint32_t>(rng_.NextBelow(kArraySize)), 1);
    }
    return files_[rng_.NextBelow(files_.size())];
  }
  std::string FreshName(const char* prefix) {
    return prefix + std::to_string(counter_++);
  }
  std::string MaybeKnownName() {
    if (names_.empty() || rng_.NextBool(0.2)) {
      return "missing" + std::to_string(rng_.NextBelow(50));
    }
    return names_[rng_.NextBelow(names_.size())];
  }

  Rng rng_;
  uint64_t counter_ = 0;
  std::vector<Oid> dirs_;
  std::vector<Oid> files_;
  std::vector<std::string> names_;
};

class FsWrapperProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsWrapperProperty, AllVendorsStayBitIdentical) {
  uint64_t seed = GetParam();
  Simulation sim(seed);
  FsConformanceWrapper::Options options;
  options.array_size = kArraySize;

  std::vector<std::unique_ptr<FsConformanceWrapper>> wrappers;
  std::vector<FsVendor> vendors = {FsVendor::kLinear, FsVendor::kTree,
                                   FsVendor::kLog};
  for (size_t v = 0; v < vendors.size(); ++v) {
    FsVendor vendor = vendors[v];
    // Each wrapper's daemon gets a different clock skew (divergent concrete
    // timestamps the wrapper must hide).
    SimTime skew = static_cast<SimTime>(v + 1) * 313 * kMillisecond;
    wrappers.push_back(std::make_unique<FsConformanceWrapper>(
        &sim, [&sim, vendor, skew] { return MakeFileSystem(vendor, &sim, skew); },
        options));
  }

  FsOpFuzzer fuzzer(seed);
  Bytes nondet = ReplicaService::EncodeNondet(1'000'000);
  for (int burst = 0; burst < 8; ++burst) {
    for (int op = 0; op < 25; ++op) {
      NfsCall call = fuzzer.Next();
      nondet = ReplicaService::EncodeNondet(1'000'000 + burst * 1000 + op);
      Bytes op_bytes = call.Encode();
      std::vector<Bytes> replies;
      for (auto& wrapper : wrappers) {
        replies.push_back(wrapper->Execute(op_bytes, 100, nondet, false));
      }
      // Execution results must match bit-for-bit across vendors.
      for (size_t v = 1; v < replies.size(); ++v) {
        ASSERT_EQ(HexEncode(replies[0]), HexEncode(replies[v]))
            << "burst " << burst << " op " << op << " proc "
            << NfsProcName(call.proc) << " vendor "
            << FsVendorName(vendors[v]);
      }
      auto reply = NfsReply::Decode(call.proc, replies[0]);
      ASSERT_TRUE(reply.ok());
      fuzzer.Observe(call, *reply);
    }
    // And so must the whole abstract state after every burst.
    for (uint32_t i = 0; i < kArraySize; ++i) {
      Bytes reference = wrappers[0]->GetObj(i);
      for (size_t v = 1; v < wrappers.size(); ++v) {
        ASSERT_EQ(HexEncode(reference), HexEncode(wrappers[v]->GetObj(i)))
            << "burst " << burst << " object " << i << " vendor "
            << FsVendorName(vendors[v]);
      }
    }
    for (size_t v = 0; v < wrappers.size(); ++v) {
      const std::string where = "burst " + std::to_string(burst) +
                                " vendor " + FsVendorName(vendors[v]);
      ASSERT_NO_FATAL_FAILURE(ExpectRunsHoldOneValue(*wrappers[v], where));
      ExpectResyncMatchesPerObjectWalk(sim, *wrappers[v], Bytes(), where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsWrapperProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class OodbWrapperProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OodbWrapperProperty, DifferentSaltsStayBitIdentical) {
  uint64_t seed = GetParam();
  Simulation sim(seed);
  OodbConformanceWrapper::Options options;
  options.array_size = 64;
  OodbConformanceWrapper a(
      &sim, [&] { return std::make_unique<ObjectDb>(&sim, 1111 * seed); },
      options);
  OodbConformanceWrapper b(
      &sim, [&] { return std::make_unique<ObjectDb>(&sim, 99 + seed); },
      options);

  Rng rng(seed * 31);
  std::vector<Oid> live;
  for (int op = 0; op < 200; ++op) {
    DbCall call;
    switch (rng.NextBelow(6)) {
      case 0:
        call.proc = DbProc::kCreate;
        call.klass = "k" + std::to_string(rng.NextBelow(4));
        break;
      case 1:
        call.proc = DbProc::kSetScalar;
        call.oid = live.empty() ? 1 : live[rng.NextBelow(live.size())];
        call.field = "value";
        call.value = static_cast<int64_t>(rng.NextBelow(1000));
        break;
      case 2:
        call.proc = DbProc::kAddRef;
        call.oid = live.empty() ? 1 : live[rng.NextBelow(live.size())];
        call.field = "next";
        call.target = live.empty() ? 1 : live[rng.NextBelow(live.size())];
        break;
      case 3:
        call.proc = DbProc::kDelete;
        call.oid = live.empty() ? 1 : live[rng.NextBelow(live.size())];
        break;
      case 4:
        call.proc = DbProc::kScan;
        break;
      default:
        call.proc = DbProc::kTraverse;
        call.oid = live.empty() ? 1 : live[rng.NextBelow(live.size())];
        call.field = "next";
        call.depth = 3;
        break;
    }
    Bytes op_bytes = call.Encode();
    Bytes ra = a.Execute(op_bytes, 100, Bytes(), false);
    Bytes rb = b.Execute(op_bytes, 100, Bytes(), false);
    ASSERT_EQ(HexEncode(ra), HexEncode(rb)) << "op " << op;
    auto reply = DbReply::Decode(ra);
    ASSERT_TRUE(reply.ok());
    if (call.proc == DbProc::kCreate && reply->status == 0) {
      live.push_back(reply->oid);
    }
    if (call.proc == DbProc::kDelete && reply->status == 0) {
      live.erase(std::remove(live.begin(), live.end(), call.oid), live.end());
    }
    if (op % 25 == 24) {  // end of a burst
      for (OodbConformanceWrapper* wrapper : {&a, &b}) {
        const std::string where = "op " + std::to_string(op) +
                                  (wrapper == &a ? " salt a" : " salt b");
        ASSERT_NO_FATAL_FAILURE(ExpectRunsHoldOneValue(*wrapper, where));
        ExpectResyncMatchesPerObjectWalk(sim, *wrapper, Bytes(), where);
      }
    }
  }
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(HexEncode(a.GetObj(i)), HexEncode(b.GetObj(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OodbWrapperProperty,
                         ::testing::Values(2, 4, 6, 10, 16));

}  // namespace
}  // namespace bftbase
