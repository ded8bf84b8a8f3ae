#include "pivot/persist/durable.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "pivot/ir/parser.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wire.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

bool IsSnapshotFrame(FrameType type) {
  return type == FrameType::kSnapshot || type == FrameType::kDeltaSnapshot;
}

// The newest snapshot frame whose image could be reconstructed.
struct SnapshotChoice {
  std::size_t frame_index = 0;  // index into the scanned frames
  std::string image;            // reconstructed full image
  DecodedImage decoded;         // the image, parsed
  std::uint64_t covered = 0;    // txn frames the image covers
  std::uint64_t deltas = 0;     // chain length (0 = a full frame)
};

// Walks snapshot frames newest-first and returns the first one that can be
// fully reconstructed and trusted: delta chains resolved against the
// nearest preceding full snapshot, the image decoded, and the covered
// count consistent with the journal (a snapshot claiming to cover more
// transactions than the file holds would silently skip all replay with the
// digests never re-verified — it is treated exactly like a corrupt frame).
// Appends one error per rejected candidate when `errors` is non-null.
std::optional<SnapshotChoice> FindLatestUsableSnapshot(
    const std::vector<WalFrame>& frames, std::uint64_t txns_in_journal,
    std::vector<std::string>* errors) {
  for (std::size_t i = frames.size(); i-- > 1;) {
    if (!IsSnapshotFrame(frames[i].type)) continue;
    try {
      // Resolve the chain base: the nearest full snapshot at or before i.
      std::size_t full = frames.size();
      for (std::size_t j = i + 1; j-- > 1;) {
        if (frames[j].type == FrameType::kSnapshot) {
          full = j;
          break;
        }
      }
      if (full > i) {
        throw ProgramError(
            "persisted frame: delta snapshot has no full-snapshot base");
      }
      SnapshotChoice choice;
      choice.frame_index = i;
      choice.image = DecodeSnapshotBody(frames[full].body).payload;
      for (std::size_t j = full + 1; j <= i; ++j) {
        if (frames[j].type != FrameType::kDeltaSnapshot) continue;
        choice.image = ApplyImageDelta(
            choice.image, DecodeSnapshotBody(frames[j].body).payload);
        ++choice.deltas;
      }
      choice.covered = DecodeSnapshotBody(frames[i].body).txns;
      if (choice.covered > txns_in_journal) {
        throw ProgramError(
            "snapshot claims " + std::to_string(choice.covered) +
            " transactions but the journal holds " +
            std::to_string(txns_in_journal));
      }
      choice.decoded = DecodeSessionImage(choice.image);
      return choice;
    } catch (const ProgramError& e) {
      if (errors != nullptr) {
        errors->push_back("snapshot frame ignored: " + std::string(e.what()));
      }
    }
  }
  return std::nullopt;
}

// Txn frames after the snapshot recovery uses (all `txns` when none):
// cadence resumes there, so a trailing snapshot-typed frame recovery
// ignores does not defer the next snapshot.
std::uint64_t TxnsSinceSnapshot(const std::vector<WalFrame>& frames,
                                std::uint64_t txns,
                                const std::optional<SnapshotChoice>& choice) {
  if (!choice.has_value()) return txns;
  std::uint64_t after = 0;
  for (std::size_t i = choice->frame_index + 1; i < frames.size(); ++i) {
    if (frames[i].type == FrameType::kTxn) ++after;
  }
  return after;
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableJournal
// ---------------------------------------------------------------------------

DurableJournal::DurableJournal(Session& session, std::string path,
                               FileLock lock, WalWriter writer,
                               PersistOptions options)
    : session_(session),
      path_(std::move(path)),
      lock_(std::move(lock)),
      writer_(std::move(writer)),
      options_(options) {}

std::unique_ptr<DurableJournal> DurableJournal::Create(
    Session& session, const std::string& path, PersistOptions options) {
  if (session.options().undo.heuristic == UndoOptions::Heuristic::kCustom) {
    throw ProgramError(
        "durable journal: custom interaction tables are not persistable");
  }
  if (!session.history().records().empty() ||
      !session.journal().records().empty()) {
    throw ProgramError(
        "durable journal: attach before the first operation (replay "
        "rebuilds state from the genesis source)");
  }
  FileLock lock = FileLock::Acquire(path);
  RemoveStaleRewriteTmp(path);
  WalWriter writer = WalWriter::Create(path);
  PIVOT_FAULT_POINT("persist.genesis.pre");
  writer.AppendFrame(FrameType::kGenesis,
                     EncodeGenesis(session.options(), session.Source()),
                     options.fsync, "persist.genesis");
  auto journal = std::unique_ptr<DurableJournal>(new DurableJournal(
      session, path, std::move(lock), std::move(writer), options));
  session.set_commit_listener(journal.get());
  return journal;
}

std::unique_ptr<DurableJournal> DurableJournal::Reattach(
    Session& session, const std::string& path, PersistOptions options) {
  FileLock lock = FileLock::Acquire(path);
  RemoveStaleRewriteTmp(path);
  const WalScanResult scan = ScanWal(path);
  if (!scan.header_ok || scan.version > kJournalFormatVersion ||
      scan.frames.empty()) {
    throw ProgramError("durable journal: " + path +
                       " is not a journal this build can append to");
  }
  if (scan.valid_bytes != scan.file_bytes) {
    throw ProgramError("durable journal: " + path +
                       " has a torn tail; run Session::Recover first");
  }
  auto journal = std::unique_ptr<DurableJournal>(new DurableJournal(
      session, path, std::move(lock), WalWriter::Append(path), options));
  for (const WalFrame& frame : scan.frames) {
    if (frame.type == FrameType::kTxn) {
      ++journal->txns_;
    } else if (IsSnapshotFrame(frame.type)) {
      ++journal->snapshots_;
    }
  }
  const std::optional<SnapshotChoice> choice =
      FindLatestUsableSnapshot(scan.frames, journal->txns_, nullptr);
  journal->since_snapshot_ =
      TxnsSinceSnapshot(scan.frames, journal->txns_, choice);
  if (choice.has_value()) {
    journal->deltas_since_full_ = choice->deltas;
    if (options.delta_snapshots) journal->last_image_ = choice->image;
  }
  session.set_commit_listener(journal.get());
  return journal;
}

DurableJournal::~DurableJournal() {
  if (session_.commit_listener() == this) {
    session_.set_commit_listener(nullptr);
  }
}

void DurableJournal::OnCommit(const TxnDescriptor& desc) {
  if (broken_) {
    throw ProgramError(
        "durable journal: poisoned by an earlier write fault (the file may "
        "end mid-frame); recover before committing again");
  }
  PIVOT_FAULT_POINT("persist.txn.pre");
  // The digest pins the state this commit produces; recovery verifies it
  // after replaying the frame.
  const std::string body = EncodeTxn(desc, ComputeDigest(session_));
  try {
    writer_.AppendFrame(FrameType::kTxn, body, options_.fsync, "persist.txn");
  } catch (...) {
    // The file may now end in a torn frame (or, after the fsync point, in
    // a durable frame the session is about to roll back). Either way no
    // further frame may be appended behind it.
    broken_ = true;
    throw;
  }
  ++txns_;
  ++since_snapshot_;
}

void DurableJournal::OnCommitted(const TxnDescriptor& desc) {
  (void)desc;
  PIVOT_FAULT_POINT("persist.commit.ack.pre");
  if (broken_ || options_.snapshot_interval <= 0) return;
  if (since_snapshot_ <
      static_cast<std::uint64_t>(options_.snapshot_interval)) {
    return;
  }
  WriteSnapshot();
}

void DurableJournal::WriteSnapshot() {
  PIVOT_FAULT_POINT("persist.snapshot.pre");
  const std::string image = EncodeSessionImage(session_);
  FrameType type = FrameType::kSnapshot;
  std::string payload = image;
  if (options_.delta_snapshots && !last_image_.empty() &&
      options_.full_snapshot_every > 0 &&
      deltas_since_full_ + 1 <
          static_cast<std::uint64_t>(options_.full_snapshot_every)) {
    std::string delta = EncodeImageDelta(last_image_, image);
    // A delta larger than the image it encodes (pathological churn) is
    // pointless: write the full image and restart the chain.
    if (delta.size() < image.size()) {
      type = FrameType::kDeltaSnapshot;
      payload = std::move(delta);
    }
  }
  const std::string body = EncodeSnapshotBody(txns_, payload);
  try {
    writer_.AppendFrame(type, body, options_.fsync, "persist.snapshot");
  } catch (...) {
    broken_ = true;
    throw;
  }
  since_snapshot_ = 0;
  ++snapshots_;
  if (type == FrameType::kDeltaSnapshot) {
    ++deltas_since_full_;
  } else {
    deltas_since_full_ = 0;
  }
  if (options_.delta_snapshots) last_image_ = image;
  // Compaction is anchored on full snapshots: only a full image lets the
  // whole covered prefix go.
  if (options_.compact && type == FrameType::kSnapshot &&
      writer_.offset() >= options_.compact_min_bytes) {
    Compact();
  }
}

void DurableJournal::Compact() {
  if (broken_) {
    throw ProgramError(
        "durable journal: poisoned by an earlier write fault; recover "
        "before compacting");
  }
  const std::optional<std::uint64_t> dropped = CompactJournalFile(path_);
  if (!dropped.has_value()) return;
  try {
    PIVOT_FAULT_POINT("persist.compact.rename.post");
    writer_ = WalWriter::Append(path_);  // the old fd names the old inode
  } catch (...) {
    broken_ = true;
    throw;
  }
  txns_ -= *dropped;
  ++compactions_;
}

std::uint64_t JournalBase(const std::vector<WalFrame>& frames) {
  std::uint64_t base = 0;
  for (const WalFrame& frame : frames) {
    if (frame.type != FrameType::kSnapshot) continue;
    try {
      base = std::max(base, DecodeSnapshotBody(frame.body).base);
    } catch (const ProgramError&) {}  // recovery ignores the frame, too
  }
  return base;
}

std::optional<std::uint64_t> CompactJournalFile(const std::string& path) {
  PIVOT_FAULT_POINT("persist.compact.pre");
  const WalScanResult scan = ScanWal(path);
  if (!scan.header_ok || scan.frames.empty() ||
      scan.valid_bytes != scan.file_bytes) {
    return std::nullopt;  // not a clean journal; leave it to recovery
  }
  // Anchor: the newest full snapshot. Without one there is nothing to
  // reclaim.
  std::size_t full = 0;
  for (std::size_t i = scan.frames.size(); i-- > 1;) {
    if (scan.frames[i].type == FrameType::kSnapshot) {
      full = i;
      break;
    }
  }
  if (full == 0) return std::nullopt;
  const std::uint64_t dropped = DecodeSnapshotBody(scan.frames[full].body).txns;
  // Writers record the file's txn count as the covered count, so it must
  // equal the txn frames before the anchor; on a mismatch nothing is
  // dropped (recovery sorts the file out). A 0-txn anchor reclaims nothing.
  std::uint64_t preceding = 0;
  for (std::size_t i = 1; i < full; ++i) {
    if (scan.frames[i].type == FrameType::kTxn) ++preceding;
  }
  if (dropped == 0 || preceding != dropped) return std::nullopt;

  RewriteWalFile(path, "persist.compact", [&](WalWriter& out) {
    out.AppendFrame(FrameType::kGenesis, scan.frames[0].body, false,
                    "persist.compact.genesis");
    for (std::size_t i = full; i < scan.frames.size(); ++i) {
      const WalFrame& frame = scan.frames[i];
      if (frame.type == FrameType::kTxn) {
        out.AppendFrame(FrameType::kTxn, frame.body, false,
                        "persist.compact.txn");
      } else if (IsSnapshotFrame(frame.type)) {
        // Covered counts are file-relative: rebase them by the dropped
        // prefix, and push the drop into the cumulative base so absolute
        // txn indices stay recoverable (see persist/wire.h).
        SnapshotBody body = DecodeSnapshotBody(frame.body);
        body.txns = body.txns >= dropped ? body.txns - dropped : 0;
        out.AppendFrame(
            frame.type,
            EncodeSnapshotBody(body.txns, body.payload, body.base + dropped),
            false, "persist.compact.snapshot");
      }
    }
  });
  return dropped;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::string JournalRecoveryReport::ToString() const {
  std::ostringstream os;
  os << "journal: " << frames_scanned << " frames, " << txns_in_journal
     << " transactions\n";
  os << "replayed: " << txns_replayed << " onto ";
  if (used_snapshot) {
    os << "snapshot (covering " << snapshot_txns;
    // Printed only for delta-built bases so the version-1 goldens hold.
    if (snapshot_deltas > 0) os << ", via " << snapshot_deltas << " deltas";
    os << ")";
  } else {
    os << "genesis";
  }
  os << "\n";
  if (truncated) {
    os << "truncated: " << truncation_reason << " at byte " << truncated_at
       << "\n";
  }
  os << "validator: " << (validator_ok ? "ok" : "FAILED") << "\n";
  for (const std::string& e : errors) {
    os << "error: " << e << "\n";
  }
  return os.str();
}

namespace {

// One recovery pass over the file as it currently is. Returns nullopt when
// the pass had to truncate mid-replay (divergence) — the caller re-runs on
// the now-shorter file so the returned session always matches the file
// exactly.
std::optional<RecoverResult> RecoverOnce(const std::string& path,
                                         std::vector<std::string>& errors,
                                         std::uint64_t& diverged_cut) {
  WalScanResult scan = ScanWal(path);
  if (!scan.header_ok) {
    throw ProgramError("recover: " + path + " is not a pivot journal (" +
                       scan.truncation_reason + ")");
  }
  if (scan.version > kJournalFormatVersion) {
    throw ProgramError(
        "recover: journal format version " + std::to_string(scan.version) +
        " is newer than this build supports (" +
        std::to_string(kJournalFormatVersion) + "); refusing to guess");
  }
  if (scan.frames.empty() || scan.frames[0].type != FrameType::kGenesis) {
    throw ProgramError("recover: journal has no genesis frame");
  }

  RecoverResult out;
  JournalRecoveryReport& rep = out.report;
  rep.frames_scanned = scan.frames.size();
  for (const WalFrame& frame : scan.frames) {
    if (frame.type == FrameType::kTxn) ++rep.txns_in_journal;
  }

  // A tail the scanner rejected (torn write, bit flip) is truncated before
  // anything is replayed — never silently replayed, never guessed at.
  if (scan.valid_bytes < scan.file_bytes) {
    rep.truncated = true;
    rep.truncated_at = scan.valid_bytes;
    rep.truncation_reason = scan.truncation_reason;
    PIVOT_FAULT_POINT("persist.recover.truncate.pre");
    TruncateWal(path, scan.valid_bytes);
  }

  const GenesisInfo genesis = DecodeGenesis(scan.frames[0].body);

  // Base state: the latest snapshot that reconstructs (delta chains
  // resolved, image decoded, covered count consistent), else the genesis
  // source.
  std::optional<SnapshotChoice> choice =
      FindLatestUsableSnapshot(scan.frames, rep.txns_in_journal, &errors);
  out.since_snapshot =
      TxnsSinceSnapshot(scan.frames, rep.txns_in_journal, choice);
  out.base = JournalBase(scan.frames);
  std::unique_ptr<Session> session;
  std::uint64_t skip_txns = 0;
  if (choice.has_value()) {
    session = std::make_unique<Session>(std::move(choice->decoded.program),
                                        genesis.options);
    session->RestorePersistedState(std::move(choice->decoded.state));
    skip_txns = choice->covered;
    rep.used_snapshot = true;
    rep.snapshot_txns = choice->covered;
    rep.snapshot_deltas = choice->deltas;
  } else {
    session = std::make_unique<Session>(Parse(genesis.source),
                                        genesis.options);
  }

  // Tail replay: re-execute every txn frame the base does not cover, in
  // file order, verifying the state digest after each.
  std::uint64_t txn_ordinal = 0;
  for (std::size_t i = 1; i < scan.frames.size(); ++i) {
    const WalFrame& frame = scan.frames[i];
    if (frame.type != FrameType::kTxn) continue;
    ++txn_ordinal;
    if (txn_ordinal <= skip_txns) continue;
    try {
      const TxnInfo info = DecodeTxn(frame.body);
      ReplayTxn(*session, info.desc);
      const SessionDigest actual = ComputeDigest(*session);
      if (!(actual == info.digest)) {
        throw ProgramError("state digest diverged (journal: " +
                           info.digest.ToString() + "; session: " +
                           actual.ToString() + ")");
      }
      ++rep.txns_replayed;
    } catch (const FaultInjectedError&) {
      throw;  // an armed injector is the harness talking, not corruption
    } catch (const ProgramError& e) {
      // The frame is valid bytes but does not replay — state divergence.
      // Cut the file at its start and re-run so session and file agree.
      errors.push_back("replay stopped at transaction " +
                       std::to_string(txn_ordinal) + ": " + e.what());
      diverged_cut = scan.frames[i - 1].end_offset;
      PIVOT_FAULT_POINT("persist.recover.truncate.pre");
      TruncateWal(path, diverged_cut);
      return std::nullopt;
    }
  }

  const ValidationReport validation = session->Validate();
  rep.validator_ok = validation.ok();
  if (!validation.ok()) {
    errors.push_back("validator: " + validation.violations.front());
  }
  out.session = std::move(session);
  return out;
}

}  // namespace

RecoverResult RecoverSession(const std::string& path) {
  // Recovery truncates and rewrites the file: refuse when a live journal
  // (this process or another) still owns it. The lock is released when
  // recovery returns — reattaching a journal re-acquires it.
  const FileLock lock = FileLock::Acquire(path);
  RemoveStaleRewriteTmp(path);
  std::vector<std::string> errors;
  bool diverged = false;
  std::uint64_t diverged_cut = 0;
  for (;;) {
    std::optional<RecoverResult> result =
        RecoverOnce(path, errors, diverged_cut);
    if (!result.has_value()) {
      // Each divergence truncates at least one frame, so this terminates.
      diverged = true;
      continue;
    }
    if (diverged && !result->report.truncated) {
      result->report.truncated = true;
      result->report.truncation_reason = "replay divergence";
      result->report.truncated_at = diverged_cut;
    }
    result->report.errors = std::move(errors);
    return *std::move(result);
  }
}

RecoverResult Session::Recover(const std::string& path) {
  return RecoverSession(path);
}

}  // namespace pivot
