// Unit tests for the durable-journal subsystem: the CRC32C checksum, the
// WAL frame scanner's torn/corrupt-tail detection, the genesis / txn /
// snapshot-image codecs, the end-to-end Create → commit → Recover cycle,
// and the golden-tested recovery report rendering. The exhaustive
// crash-point sweep lives in journal_crash_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wal.h"
#include "pivot/persist/wire.h"
#include "pivot/support/crc32c.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "pivot_persist_" + name + ".wal";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32LE(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

// Replaces frame `index` of the journal with (type, body), recomputing the
// length and CRC so the scanner still accepts it — a well-formed frame
// that lies about its content.
void RewriteFrame(const std::string& path, std::size_t index, FrameType type,
                  const std::string& body) {
  const WalScanResult scan = ScanWal(path);
  ASSERT_LT(index, scan.frames.size());
  std::string out = ReadFileBytes(path).substr(0, 12);  // header stays
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    std::string payload(
        1, static_cast<char>(i == index ? type : scan.frames[i].type));
    payload += i == index ? body : scan.frames[i].body;
    PutU32LE(out, static_cast<std::uint32_t>(payload.size()));
    PutU32LE(out, Crc32c(payload));
    out += payload;
  }
  WriteFileBytes(path, out);
}

// The session workload the end-to-end tests commit and recover.
const char kSource[] =
    "c = 1\n"
    "x = c\n"
    "x = 2\n"
    "y = 3 * 4\n"
    "write x\n"
    "write y\n"
    "write c\n";

void ExpectEquivalent(Session& a, Session& b, const char* label) {
  EXPECT_EQ(a.Source(), b.Source()) << label;
  EXPECT_EQ(a.HistoryToString(), b.HistoryToString()) << label;
  EXPECT_EQ(a.AnnotationsToString(), b.AnnotationsToString()) << label;
  EXPECT_EQ(a.journal().records().size(), b.journal().records().size())
      << label;
  EXPECT_EQ(a.history().next_stamp(), b.history().next_stamp()) << label;
}

// --- CRC32C ---

TEST(Crc32c, MatchesTheStandardTestVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B / every
  // hardware implementation): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string whole = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::uint32_t head = Crc32c(whole.substr(0, split));
    EXPECT_EQ(Crc32c(whole.substr(split), head), Crc32c(whole));
  }
}

// --- WAL framing ---

class Wal : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(Wal, RoundTripsFrames) {
  const std::string path = TmpPath("roundtrip");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kGenesis, "g-body", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "t1", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, std::string("big\0body", 8), false,
                  "persist.txn");
    w.AppendFrame(FrameType::kSnapshot, "snap", true, "persist.snapshot");
  }
  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.version, kJournalFormatVersion);
  ASSERT_EQ(scan.frames.size(), 4u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[0].body, "g-body");
  EXPECT_EQ(scan.frames[2].body, std::string("big\0body", 8));
  EXPECT_EQ(scan.frames[3].type, FrameType::kSnapshot);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_TRUE(scan.truncation_reason.empty());
}

TEST_F(Wal, DetectsABitFlipViaChecksum) {
  const std::string path = TmpPath("bitflip");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "first", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "second", true, "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 2] ^= 0x40;  // inside the last frame's payload
  WriteFileBytes(path, bytes);

  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].body, "first");
  EXPECT_EQ(scan.truncation_reason, "checksum mismatch");
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);
}

TEST_F(Wal, DetectsATornTail) {
  const std::string path = TmpPath("torn");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "first", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "a-much-longer-second-frame", true,
                  "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 5));

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].body, "first");
  EXPECT_EQ(scan.truncation_reason, "frame exceeds file");
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);
}

TEST_F(Wal, StopsAtTrailingGarbage) {
  const std::string path = TmpPath("garbage");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "only", true, "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes + "xy");  // shorter than a frame header

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.truncation_reason, "torn frame header");
  EXPECT_EQ(scan.valid_bytes + 2, scan.file_bytes);
}

TEST_F(Wal, TruncateRestoresTheValidPrefix) {
  const std::string path = TmpPath("truncate");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "keep", true, "persist.txn");
  }
  const std::string good = ReadFileBytes(path);
  WriteFileBytes(path, good + "torn tail bytes");
  TruncateWal(path, good.size());
  EXPECT_EQ(ReadFileBytes(path), good);
  const WalScanResult scan = ScanWal(path);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_EQ(scan.frames.size(), 1u);
}

// Regression: a Create-derived writer that rolls an unacknowledged frame
// off with TruncateTo must append the NEXT frame at the new physical end.
// Without O_APPEND (and a position reset after ftruncate) the fd kept its
// pre-truncate position, so the next write left a zero-filled hole that
// made every later frame unreadable at scan time.
TEST_F(Wal, AppendAfterTruncateToLeavesNoHole) {
  const std::string path = TmpPath("truncate_then_append");
  {
    WalWriter w = WalWriter::Create(path);
    const std::uint64_t pre = w.offset();
    w.AppendFrame(FrameType::kTxn, "rolled-back", false, "persist.txn");
    w.TruncateTo(pre);
    w.AppendFrame(FrameType::kTxn, "kept", true, "persist.txn");
    w.AppendFrame(FrameType::kSnapshot, "snap", true, "persist.snapshot");
  }
  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].body, "kept");
  EXPECT_EQ(scan.frames[1].body, "snap");
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_TRUE(scan.truncation_reason.empty());
}

TEST_F(Wal, RejectsAForeignFile) {
  const std::string path = TmpPath("foreign");
  WriteFileBytes(path, "this is not a journal at all");
  const WalScanResult scan = ScanWal(path);
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.truncation_reason, "missing or corrupt file header");
}

// --- frame-body codecs ---

TEST(WireCodec, GenesisRoundTrips) {
  SessionOptions options;
  options.undo.heuristic = UndoOptions::Heuristic::kConservative;
  options.undo.regional = true;
  options.undo.indexed = true;
  options.undo.max_depth = 77;
  options.analysis.incremental = true;
  options.strict = true;
  const std::string source = "x = 1\nwrite \"odd\\chars\"\nwrite x\n";

  const GenesisInfo info = DecodeGenesis(EncodeGenesis(options, source));
  EXPECT_EQ(info.options.undo.heuristic, options.undo.heuristic);
  EXPECT_EQ(info.options.undo.regional, options.undo.regional);
  EXPECT_EQ(info.options.undo.indexed, options.undo.indexed);
  EXPECT_EQ(info.options.undo.max_depth, options.undo.max_depth);
  EXPECT_EQ(info.options.analysis.incremental, options.analysis.incremental);
  EXPECT_EQ(info.options.strict, options.strict);
  EXPECT_EQ(info.source, source);
}

// The genesis frame still carries slots for three retired options
// (safety_threads, parallel_rebuild, threads), written as their old
// defaults: a journal opened with default options is byte-for-byte what
// the build that had those options wrote.
TEST(WireCodec, GenesisKeepsTheRetiredOptionSlots) {
  EXPECT_EQ(EncodeGenesis(SessionOptions{}, "c = 1\n"),
            R"(genesis 1 1 1 1 10000 0 0 4 0 "c = 1\n" )");
}

// A genesis written with non-default values in the retired slots
// (safety_threads 3, parallel_rebuild 1, threads 2; the bytes are that
// build's encoding) decodes, and the slots are ignored.
TEST(WireCodec, DecodesAGenesisWithRetiredOptionValues) {
  const GenesisInfo info = DecodeGenesis(
      R"(genesis 0 1 1 3 77 1 1 2 1 )"
      R"("x = 1\nwrite \"odd\\chars\"\nwrite x\n" )");
  EXPECT_EQ(info.options.undo.heuristic,
            UndoOptions::Heuristic::kConservative);
  EXPECT_TRUE(info.options.undo.regional);
  EXPECT_TRUE(info.options.undo.indexed);
  EXPECT_EQ(info.options.undo.max_depth, 77);
  EXPECT_TRUE(info.options.analysis.incremental);
  EXPECT_TRUE(info.options.strict);
  EXPECT_EQ(info.source, "x = 1\nwrite \"odd\\chars\"\nwrite x\n");
}

TEST(WireCodec, TxnRoundTrips) {
  TxnDescriptor desc;
  desc.op = TxnOp::kEditAdd;
  desc.apply_site.kind = TransformKind::kIcm;
  desc.apply_site.s1 = StmtId(4);
  desc.apply_site.s2 = StmtId(9);
  desc.apply_site.expr = ExprId(17);
  desc.apply_site.var = "tmp \"quoted\"";
  desc.apply_site.value = -3;
  desc.result_stamp = 12;
  desc.undo_stamps = {3, 5, 8};
  desc.target = StmtId(2);
  desc.parent = StmtId(6);
  desc.body = BodyKind::kElse;
  desc.index = 4;
  desc.site = ExprId(11);
  desc.stmt_text = "write x\n";
  desc.expr_text = "1 + 2";
  SessionDigest digest;
  digest.source_crc = 0xDEADBEEFu;
  digest.history_size = 42;
  digest.next_stamp = 13;
  digest.journal_records = 41;
  digest.annotations = 7;

  const TxnInfo info = DecodeTxn(EncodeTxn(desc, digest));
  EXPECT_EQ(info.desc.op, desc.op);
  EXPECT_EQ(info.desc.apply_site.kind, desc.apply_site.kind);
  EXPECT_EQ(info.desc.apply_site.s1, desc.apply_site.s1);
  EXPECT_EQ(info.desc.apply_site.s2, desc.apply_site.s2);
  EXPECT_EQ(info.desc.apply_site.expr, desc.apply_site.expr);
  EXPECT_EQ(info.desc.apply_site.var, desc.apply_site.var);
  EXPECT_EQ(info.desc.apply_site.value, desc.apply_site.value);
  EXPECT_EQ(info.desc.result_stamp, desc.result_stamp);
  EXPECT_EQ(info.desc.undo_stamps, desc.undo_stamps);
  EXPECT_EQ(info.desc.target, desc.target);
  EXPECT_EQ(info.desc.parent, desc.parent);
  EXPECT_EQ(info.desc.body, desc.body);
  EXPECT_EQ(info.desc.index, desc.index);
  EXPECT_EQ(info.desc.site, desc.site);
  EXPECT_EQ(info.desc.stmt_text, desc.stmt_text);
  EXPECT_EQ(info.desc.expr_text, desc.expr_text);
  EXPECT_EQ(info.digest, digest);
}

TEST(WireCodec, RejectsTrailingData) {
  SessionOptions options;
  EXPECT_THROW(DecodeGenesis(EncodeGenesis(options, "write 1\n") + " 9"),
               ProgramError);
  EXPECT_THROW(DecodeTxn("txn apply"), ProgramError);
}

// --- snapshot image ---

TEST(SnapshotImage, RoundTripsALiveSession) {
  Session a(Parse(kSource));
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kCfo).has_value());
  const OrderStamp ctp = *a.ApplyFirst(TransformKind::kCtp);
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kDce).has_value());
  a.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
  a.Undo(ctp);

  DecodedImage img = DecodeSessionImage(EncodeSessionImage(a));
  Session b(std::move(img.program), a.options());
  b.RestorePersistedState(std::move(img.state));

  ExpectEquivalent(a, b, "restored image");
  EXPECT_TRUE(b.Validate().ok());

  // The image preserved id counters and payload trees: both sessions must
  // keep evolving identically, including re-applying what was undone and
  // undoing a pre-snapshot transformation (payload swap-back).
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(b.ApplyFirst(TransformKind::kCtp).has_value());
  ExpectEquivalent(a, b, "after continued apply");
  a.UndoLast();
  b.UndoLast();
  ExpectEquivalent(a, b, "after continued undo");
}

TEST(SnapshotImage, RejectsCorruptImages) {
  EXPECT_THROW(DecodeSessionImage("pivot-image 999"), ProgramError);
  EXPECT_THROW(DecodeSessionImage("nonsense"), ProgramError);
}

// --- snapshot image deltas ---

// Deterministic text with enough repeated structure that block matching
// has something to find, like a real session image.
std::string PatternBlob(std::size_t n, std::uint32_t seed) {
  std::string s;
  s.reserve(n + 32);
  std::uint32_t x = seed;
  while (s.size() < n) {
    x = x * 1664525u + 1013904223u;
    s += "stmt " + std::to_string(x % 97) + " = " + std::to_string(x % 1009) +
         "\n";
  }
  s.resize(n);
  return s;
}

TEST(ImageDelta, RoundTripsRepresentativePairs) {
  const std::string base = PatternBlob(8192, 7);
  std::string shifted = base;
  shifted.insert(100, "an inserted line\n");  // shifts all block alignment
  shifted.erase(4000, 37);
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {base, base},                        // identical
      {base, shifted},                     // small edits, shifted blocks
      {"", base},                          // empty base: all literals
      {base, ""},                          // empty target
      {base, PatternBlob(8192, 8)},        // unrelated content
      {base, base + PatternBlob(512, 9)},  // append-only growth
      {"short", "short but longer now"},   // below one block
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string delta =
        EncodeImageDelta(pairs[i].first, pairs[i].second);
    EXPECT_EQ(ApplyImageDelta(pairs[i].first, delta), pairs[i].second)
        << "pair " << i;
  }
  // A near-identical target encodes as mostly copy tokens: the whole point
  // of delta snapshots is that this is far smaller than the image.
  EXPECT_LT(EncodeImageDelta(base, shifted).size(), shifted.size() / 4);
}

TEST(ImageDelta, RejectsTheWrongBaseAndGarbage) {
  const std::string base = PatternBlob(4096, 3);
  const std::string delta = EncodeImageDelta(base, PatternBlob(4096, 4));
  // Applying against anything but the base the delta was computed from
  // must fail loudly (CRC check), never produce a silently wrong image.
  EXPECT_THROW(ApplyImageDelta(PatternBlob(4096, 5), delta), ProgramError);
  EXPECT_THROW(ApplyImageDelta(base, "not a delta"), ProgramError);
  EXPECT_THROW(ApplyImageDelta(base, delta.substr(0, delta.size() / 2)),
               ProgramError);
}

// --- end-to-end: create, commit, recover ---

class Durable : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Commits three transformations and one edit through a fresh journal.
void RunWorkload(Session& s) {
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
  s.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
}

TEST_F(Durable, RecoversByFullReplay) {
  const std::string path = TmpPath("replay");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  EXPECT_EQ(wal->txns_written(), 4u);
  EXPECT_EQ(wal->snapshots_written(), 0u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_in_journal, 4u);
  EXPECT_EQ(r.report.txns_replayed, 4u);
  EXPECT_FALSE(r.report.used_snapshot);
  EXPECT_FALSE(r.report.truncated);
  EXPECT_TRUE(r.report.validator_ok);
  EXPECT_TRUE(r.report.errors.empty());
  ExpectEquivalent(s, *r.session, "full replay");
}

// A journal whose genesis frame sets the retired thread options recovers
// like any other: the genesis bytes are those an older build wrote for
// kSource with safety_threads 3, parallel_rebuild 1 and threads 2.
TEST_F(Durable, RecoversAJournalWrittenWithRetiredOptions) {
  const std::string path = TmpPath("retired_options");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  wal.reset();
  RewriteFrame(path, 0, FrameType::kGenesis,
               R"(genesis 1 1 1 3 10000 0 1 2 0 "c = 1\nx = c\nx = 2\n)"
               R"(y = 3 * 4\nwrite x\nwrite y\nwrite c\n" )");

  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_replayed, 4u);
  EXPECT_FALSE(r.report.truncated);
  EXPECT_TRUE(r.report.validator_ok);
  EXPECT_TRUE(r.report.errors.empty());
  ExpectEquivalent(s, *r.session, "retired-option genesis");
}

TEST_F(Durable, RecoversFromSnapshotPlusTail) {
  const std::string path = TmpPath("snapshot");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);                // 4 txns => snapshot after the 3rd
  EXPECT_EQ(wal->snapshots_written(), 1u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "snapshot + tail");

  // Recovery is a full citizen: the recovered session keeps working.
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(r.session->ApplyFirst(TransformKind::kCtp).has_value());
  ExpectEquivalent(s, *r.session, "continued after recovery");
}

TEST_F(Durable, TruncatesACorruptTailInsteadOfReplayingIt) {
  const std::string path = TmpPath("corrupt_tail");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  wal.reset();

  // Reference: the same workload stopped before its last operation.
  Session prefix(Parse(kSource));
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCfo).has_value());
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kDce).has_value());

  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 3] ^= 0x01;  // flip one bit in the last frame
  WriteFileBytes(path, bytes);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.truncation_reason, "checksum mismatch");
  EXPECT_EQ(r.report.txns_replayed, 3u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(prefix, *r.session, "after corrupt-tail truncation");

  // Idempotent: a second recovery of the truncated file is clean.
  RecoverResult again = Session::Recover(path);
  EXPECT_FALSE(again.report.truncated);
  ExpectEquivalent(prefix, *again.session, "second recovery");
}

TEST_F(Durable, ACorruptMiddleFrameCutsEverythingBehindIt) {
  const std::string path = TmpPath("corrupt_middle");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  wal.reset();

  // Flip a byte inside the second txn frame: the valid prefix is genesis +
  // one transaction, and the two later (individually intact) frames behind
  // the damage must not be replayed.
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 5u);
  std::string bytes = ReadFileBytes(path);
  bytes[scan.frames[2].end_offset - 2] ^= 0x10;
  WriteFileBytes(path, bytes);

  Session prefix(Parse(kSource));
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCfo).has_value());

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.truncated_at, scan.frames[1].end_offset);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  ExpectEquivalent(prefix, *r.session, "middle-frame corruption");
}

TEST_F(Durable, RefusesANewerFormatVersion) {
  const std::string path = TmpPath("newer_version");
  Session s(Parse(kSource));
  DurableJournal::Create(s, path).reset();
  std::string bytes = ReadFileBytes(path);
  bytes[8] = static_cast<char>(kJournalFormatVersion + 1);  // version u32 LE
  WriteFileBytes(path, bytes);
  EXPECT_THROW(Session::Recover(path), ProgramError);
}

TEST_F(Durable, RefusesFilesWithoutAGenesis) {
  const std::string garbage = TmpPath("not_a_journal");
  WriteFileBytes(garbage, "hello");
  EXPECT_THROW(Session::Recover(garbage), ProgramError);

  const std::string empty = TmpPath("empty_journal");
  WriteFileBytes(empty, "");
  EXPECT_THROW(Session::Recover(empty), ProgramError);

  // A valid header with no frames behind it: nothing to recover from.
  const std::string headless = TmpPath("headless");
  { WalWriter w = WalWriter::Create(headless); }
  EXPECT_THROW(Session::Recover(headless), ProgramError);
}

TEST_F(Durable, CreateRejectsNonPristineAndNonPersistableSessions) {
  Session used(Parse(kSource));
  ASSERT_TRUE(used.ApplyFirst(TransformKind::kCfo).has_value());
  EXPECT_THROW(DurableJournal::Create(used, TmpPath("used")), ProgramError);

  SessionOptions custom;
  custom.undo.heuristic = UndoOptions::Heuristic::kCustom;
  Session c(Parse(kSource), custom);
  EXPECT_THROW(DurableJournal::Create(c, TmpPath("custom")), ProgramError);
}

TEST_F(Durable, ReattachContinuesAnExistingJournal) {
  const std::string path = TmpPath("reattach");
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  }
  {
    auto wal = DurableJournal::Reattach(s, path);
    EXPECT_EQ(wal->txns_written(), 2u);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
    EXPECT_EQ(wal->txns_written(), 3u);
  }
  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_replayed, 3u);
  ExpectEquivalent(s, *r.session, "after reattach");
}

TEST_F(Durable, ReattachRefusesATornFile) {
  const std::string path = TmpPath("reattach_torn");
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  }
  WriteFileBytes(path, ReadFileBytes(path) + "torn");
  Session fresh(Parse(kSource));
  EXPECT_THROW(DurableJournal::Reattach(fresh, path), ProgramError);
}

TEST_F(Durable, AWriteFaultRollsBackAndPoisonsTheJournal) {
  const std::string path = TmpPath("poisoned");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  const std::string committed_source = s.Source();
  const std::string committed_history = s.HistoryToString();

  // Crash mid-frame on the next commit: the operation must roll back (the
  // write-ahead frame was never acknowledged) and the journal must refuse
  // further appends, because the file now ends in a torn frame.
  FaultInjector::Instance().Arm("persist.txn.mid", 1);
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), FaultInjectedError);
  FaultInjector::Instance().Reset();
  EXPECT_EQ(s.Source(), committed_source);
  EXPECT_EQ(s.HistoryToString(), committed_history);
  EXPECT_TRUE(wal->broken());
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), ProgramError);
  wal.reset();

  // Recovery truncates the torn frame and lands on the committed prefix.
  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_EQ(r.session->Source(), committed_source);
  EXPECT_EQ(r.session->HistoryToString(), committed_history);
}

// --- delta snapshots ---

TEST_F(Durable, DeltaSnapshotsRecoverAcrossTheChain) {
  const std::string path = TmpPath("delta_chain");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 1;  // snapshot after every commit
  opts.delta_snapshots = true;
  opts.full_snapshot_every = 8;  // the whole workload stays one chain
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);  // 4 txns => snapshots: full, delta, delta, delta
  EXPECT_EQ(wal->snapshots_written(), 4u);
  wal.reset();

  int fulls = 0, deltas = 0;
  for (const WalFrame& f : ScanWal(path).frames) {
    if (f.type == FrameType::kSnapshot) ++fulls;
    if (f.type == FrameType::kDeltaSnapshot) ++deltas;
  }
  EXPECT_EQ(fulls, 1);
  EXPECT_EQ(deltas, 3);

  // Recovery rebuilds the newest image by applying the chain to the full
  // base, then replays nothing (the last snapshot covers everything).
  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 4u);
  EXPECT_EQ(r.report.snapshot_deltas, 3u);
  EXPECT_EQ(r.report.txns_replayed, 0u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "delta-chain recovery");

  // The recovered session keeps working.
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(r.session->ApplyFirst(TransformKind::kCtp).has_value());
  ExpectEquivalent(s, *r.session, "continued after delta recovery");
}

TEST_F(Durable, FullSnapshotCadenceBoundsTheChain) {
  const std::string path = TmpPath("delta_cadence");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 1;
  opts.delta_snapshots = true;
  opts.full_snapshot_every = 3;  // full, delta, delta, full
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);
  wal.reset();

  std::vector<FrameType> snapshots;
  for (const WalFrame& f : ScanWal(path).frames) {
    if (f.type == FrameType::kSnapshot || f.type == FrameType::kDeltaSnapshot) {
      snapshots.push_back(f.type);
    }
  }
  const std::vector<FrameType> expected = {
      FrameType::kSnapshot, FrameType::kDeltaSnapshot,
      FrameType::kDeltaSnapshot, FrameType::kSnapshot};
  EXPECT_EQ(snapshots, expected);

  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.snapshot_deltas, 0u);  // the last snapshot is full
  ExpectEquivalent(s, *r.session, "bounded-chain recovery");
}

TEST_F(Durable, ACorruptDeltaFallsBackToAnOlderSnapshot) {
  const std::string path = TmpPath("delta_corrupt");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 1;
  opts.delta_snapshots = true;
  opts.full_snapshot_every = 8;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);
  wal.reset();

  // Replace the last delta's payload with garbage that still scans as a
  // valid frame: recovery must reject it when the delta fails to apply and
  // fall back to the previous snapshot in the chain plus replay.
  const WalScanResult scan = ScanWal(path);
  std::size_t last_delta = 0;
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    if (scan.frames[i].type == FrameType::kDeltaSnapshot) last_delta = i;
  }
  ASSERT_GT(last_delta, 0u);
  RewriteFrame(path, last_delta, FrameType::kDeltaSnapshot,
               EncodeSnapshotBody(4, "garbage, not a delta"));

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);  // the delta before the corrupt one
  EXPECT_EQ(r.report.snapshot_deltas, 2u);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ASSERT_FALSE(r.report.errors.empty());
  EXPECT_NE(r.report.errors[0].find("snapshot frame ignored"),
            std::string::npos);
  ExpectEquivalent(s, *r.session, "fallback past a corrupt delta");
}

// Regression: a snapshot frame whose `txns <count>` prefix claims to cover
// more transactions than the journal holds used to make recovery skip ALL
// replay (skip_txns > txns_in_journal) with the digest never re-verified.
// Such a frame is corrupt evidence and must be ignored.
TEST_F(Durable, ASnapshotClaimingMoreTxnsThanTheJournalIsIgnored) {
  const std::string path = TmpPath("inflated_count");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);  // genesis, 3 txns, snapshot (covering 3), 1 txn
  wal.reset();

  const WalScanResult scan = ScanWal(path);
  std::size_t snap = 0;
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    if (scan.frames[i].type == FrameType::kSnapshot) snap = i;
  }
  ASSERT_GT(snap, 0u);
  const SnapshotBody body = DecodeSnapshotBody(scan.frames[snap].body);
  ASSERT_EQ(body.txns, 3u);
  RewriteFrame(path, snap, FrameType::kSnapshot,
               EncodeSnapshotBody(99, body.payload));

  RecoverResult r = Session::Recover(path);
  EXPECT_FALSE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 4u);  // full replay from genesis
  EXPECT_TRUE(r.report.validator_ok);
  ASSERT_FALSE(r.report.errors.empty());
  EXPECT_NE(r.report.errors[0].find("claims"), std::string::npos);
  ExpectEquivalent(s, *r.session, "inflated snapshot count");
}

// Reattach computes its snapshot cadence from the last USABLE snapshot: a
// corrupt trailing snapshot frame must not defer the next snapshot a full
// interval beyond what recovery would actually use.
TEST_F(Durable, ReattachIgnoresACorruptTrailingSnapshot) {
  const std::string path = TmpPath("reattach_corrupt_snap");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  {
    auto wal = DurableJournal::Create(s, path, opts);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
    EXPECT_EQ(wal->snapshots_written(), 1u);
  }
  // Corrupt the trailing snapshot's image (the frame still scans).
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.back().type, FrameType::kSnapshot);
  RewriteFrame(path, scan.frames.size() - 1, FrameType::kSnapshot,
               EncodeSnapshotBody(3, "garbage, not an image"));

  auto wal = DurableJournal::Reattach(s, path, opts);
  // snapshots_written() counts snapshot-typed frames, corrupt or not.
  EXPECT_EQ(wal->snapshots_written(), 1u);
  // All 3 txns are uncovered by any usable snapshot, so the very next
  // commit re-snapshots instead of waiting out a fresh interval.
  s.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
  EXPECT_EQ(wal->snapshots_written(), 2u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 4u);  // the fresh snapshot, not the bad one
  ExpectEquivalent(s, *r.session, "after reattach over a corrupt snapshot");
}

// --- compaction ---

TEST_F(Durable, CompactionShrinksTheJournalAndStaysRecoverable) {
  const std::string path = TmpPath("compact");
  const std::string full_path = TmpPath("compact_baseline");
  PersistOptions opts;
  opts.snapshot_interval = 2;
  opts.compact = true;  // compact_min_bytes = 0: after every full snapshot

  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path, opts);
  // The baseline journal: same workload, no compaction.
  Session baseline(Parse(kSource));
  PersistOptions full_opts = opts;
  full_opts.compact = false;
  auto full_wal = DurableJournal::Create(baseline, full_path, full_opts);
  RunWorkload(s);
  RunWorkload(baseline);
  EXPECT_EQ(wal->compactions(), 2u);  // after the snapshots at txn 2 and 4
  EXPECT_LT(wal->journal_bytes(), full_wal->journal_bytes());
  wal.reset();
  full_wal.reset();

  // The compacted file is genesis + the rebased snapshot, nothing else.
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[1].type, FrameType::kSnapshot);
  EXPECT_EQ(DecodeSnapshotBody(scan.frames[1].body).txns, 0u);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 0u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "recovery after compaction");

  // Reattach continues the compacted file and keeps compacting.
  auto again = DurableJournal::Reattach(s, path, opts);
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  s.UndoLast();
  EXPECT_EQ(again->compactions(), 1u);
  again.reset();
  RecoverResult r2 = Session::Recover(path);
  EXPECT_TRUE(r2.report.validator_ok);
  ExpectEquivalent(s, *r2.session, "recovery after reattach + compaction");
}

TEST_F(Durable, ExplicitCompactKeepsTheUncoveredTail) {
  const std::string path = TmpPath("compact_tail");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;  // snapshot after txn 3; txn 4 is the tail
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);
  EXPECT_EQ(wal->compactions(), 0u);
  wal->Compact();
  EXPECT_EQ(wal->compactions(), 1u);
  EXPECT_EQ(wal->txns_written(), 1u);  // rebased: only the tail txn remains
  wal.reset();

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[1].type, FrameType::kSnapshot);
  EXPECT_EQ(scan.frames[2].type, FrameType::kTxn);
  EXPECT_EQ(DecodeSnapshotBody(scan.frames[1].body).txns, 0u);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "compacted journal with a tail");
}

TEST_F(Durable, StaleCompactionTmpIsCleanedUp) {
  const std::string path = TmpPath("stale_tmp");
  const std::string tmp = path + ".compact";
  Session s(Parse(kSource));
  { auto wal = DurableJournal::Create(s, path); RunWorkload(s); }

  // A crash between writing <path>.compact and the rename leaves the tmp
  // behind; both recovery and reattach must discard it.
  WriteFileBytes(tmp, "leftover from a dead compaction");
  Session::Recover(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  WriteFileBytes(tmp, "leftover from a dead compaction");
  DurableJournal::Reattach(s, path).reset();
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

// --- recovery report goldens ---

TEST(JournalRecoveryReportGolden, CleanFullReplay) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 5;
  rep.txns_in_journal = 4;
  rep.txns_replayed = 4;
  rep.validator_ok = true;
  EXPECT_EQ(rep.ToString(),
            "journal: 5 frames, 4 transactions\n"
            "replayed: 4 onto genesis\n"
            "validator: ok\n");
}

TEST(JournalRecoveryReportGolden, SnapshotBase) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 9;
  rep.txns_in_journal = 7;
  rep.txns_replayed = 1;
  rep.used_snapshot = true;
  rep.snapshot_txns = 6;
  rep.validator_ok = true;
  EXPECT_EQ(rep.ToString(),
            "journal: 9 frames, 7 transactions\n"
            "replayed: 1 onto snapshot (covering 6)\n"
            "validator: ok\n");
}

TEST(JournalRecoveryReportGolden, TruncatedTailWithErrors) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 3;
  rep.txns_in_journal = 2;
  rep.txns_replayed = 2;
  rep.truncated = true;
  rep.truncated_at = 181;
  rep.truncation_reason = "checksum mismatch";
  rep.validator_ok = false;
  rep.errors = {"snapshot frame ignored: persisted frame: bad snapshot prefix",
                "validator: stale annotation"};
  EXPECT_EQ(rep.ToString(),
            "journal: 3 frames, 2 transactions\n"
            "replayed: 2 onto genesis\n"
            "truncated: checksum mismatch at byte 181\n"
            "validator: FAILED\n"
            "error: snapshot frame ignored: persisted frame: bad snapshot "
            "prefix\n"
            "error: validator: stale annotation\n");
}

// --- fault-point registry ---

TEST(FaultPoints, PersistCrashPointsAreRegistered) {
  int persist_points = 0;
  for (const std::string& p : FaultInjector::KnownPoints()) {
    if (p.rfind("persist.", 0) == 0) ++persist_points;
  }
  // The acceptance bar for the crash sweep: at least ten instrumented
  // crash points in the durability path.
  EXPECT_GE(persist_points, 10);
}

}  // namespace
}  // namespace pivot
