// The durable write-ahead journal: a Session CommitListener that appends
// every committed operation as a checksummed frame *before* the in-memory
// commit is acknowledged, plus crash-consistent recovery.
//
// Protocol per operation (see core/commit_hook.h):
//   OnCommit    — append + fsync the txn frame; a write fault throws, the
//                 session rolls the operation back, and the journal is
//                 poisoned (no further commits) since the file may now end
//                 in a torn frame;
//   OnCommitted — optionally append a full-session snapshot (policy:
//                 every `snapshot_interval` transactions). Snapshots are
//                 pure read optimization: recovery is snapshot +
//                 tail-replay instead of whole-history replay, and a torn
//                 snapshot is just a truncatable tail.
//
// Recovery scans the file, truncates the torn/corrupt tail (CRC or length
// failure — never replayed, never guessed at), rebuilds the base state from
// the last valid snapshot (or the genesis source), re-executes the tail's
// operation descriptors through the ordinary Session API, verifies the
// per-frame state digests, and revalidates with the cross-layer Validator.
#ifndef PIVOT_PERSIST_DURABLE_H_
#define PIVOT_PERSIST_DURABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/persist/filelock.h"
#include "pivot/persist/wal.h"

namespace pivot {

struct PersistOptions {
  // > 0: append a full-session snapshot frame after every N committed
  // transactions. 0 = never (recovery replays the whole history).
  int snapshot_interval = 0;
  // fsync each txn frame before acknowledging the commit. Turning this off
  // trades crash consistency for throughput (bench mode): the frame order
  // is still correct, but the tail may be lost on power failure.
  bool fsync = true;
  // Encode most snapshots as kDeltaSnapshot frames (a diff against the
  // previous snapshot image — see persist/snapshot.h) instead of full
  // images. Recovery reconstructs the base by applying the chain since the
  // last full snapshot, falling back frame by frame on decode failure.
  bool delta_snapshots = false;
  // With delta_snapshots on: force a full kSnapshot frame after this many
  // consecutive deltas, bounding both the recovery chain and the span
  // compaction cannot reclaim. Must be >= 1 (1 = every snapshot is full).
  int full_snapshot_every = 8;
  // After each durable full snapshot, run CompactJournalFile on the
  // journal. This is what makes journal size proportional to live history
  // instead of monotonically increasing.
  bool compact = false;
  // Skip the rewrite while the journal is smaller than this (the rewrite
  // costs a full file copy; tiny journals are not worth it). 0 = always
  // compact after a full snapshot.
  std::uint64_t compact_min_bytes = 0;
};

class DurableJournal final : public CommitListener {
 public:
  // Starts journaling `session` into a fresh file at `path` (truncating
  // any existing file): writes the header and the genesis frame, then
  // installs itself as the session's commit listener. The session must be
  // pristine (no history, no journal records) — the genesis source is what
  // replay rebuilds ids from — and must outlive the returned object.
  // Throws ProgramError on I/O failure or a non-persistable session
  // (custom interaction tables).
  static std::unique_ptr<DurableJournal> Create(Session& session,
                                                const std::string& path,
                                                PersistOptions options = {});

  // Resumes journaling an existing file (e.g. after Session::Recover of
  // the same path): appends after the current end, which must already be
  // truncated to a valid prefix. The session must hold exactly the state
  // the file replays to.
  static std::unique_ptr<DurableJournal> Reattach(Session& session,
                                                  const std::string& path,
                                                  PersistOptions options = {});

  ~DurableJournal() override;
  DurableJournal(const DurableJournal&) = delete;
  DurableJournal& operator=(const DurableJournal&) = delete;

  void OnCommit(const TxnDescriptor& desc) override;
  void OnCommitted(const TxnDescriptor& desc) override;

  // A write fault poisons the journal: the file may end mid-frame, so no
  // further frame may be appended (it would hide the tear behind valid
  // frames the scanner never reaches). Recover the file instead.
  bool broken() const { return broken_; }

  std::uint64_t txns_written() const { return txns_; }
  std::uint64_t snapshots_written() const { return snapshots_; }
  std::uint64_t compactions() const { return compactions_; }
  // Current journal file size (the next append offset).
  std::uint64_t journal_bytes() const { return writer_.offset(); }

  // CompactJournalFile, then reopens the writer on the new file (a failure
  // after the rename poisons the journal). Runs after each full snapshot
  // when PersistOptions::compact is set; public for tools and tests.
  void Compact();

 private:
  DurableJournal(Session& session, std::string path, FileLock lock,
                 WalWriter writer, PersistOptions options);
  void WriteSnapshot();

  Session& session_;
  const std::string path_;
  // Held for the journal's lifetime: no second process (or second journal
  // in this process) may append to the same WAL (see persist/filelock.h).
  // flock() follows the separate `<path>.lock` file, so the compaction
  // rename of the journal itself does not disturb it.
  FileLock lock_;
  WalWriter writer_;
  PersistOptions options_;
  std::uint64_t txns_ = 0;  // txn frames in the file
  std::uint64_t since_snapshot_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t compactions_ = 0;
  // Delta-snapshot state: the image of the newest snapshot frame (the base
  // the next delta diffs against) and the chain length since the last full
  // snapshot. Empty image = the next snapshot must be full.
  std::string last_image_;
  std::uint64_t deltas_since_full_ = 0;
  bool broken_ = false;
};

// What recovery found and did. Golden-tested: ToString() is part of the
// interface.
struct JournalRecoveryReport {
  std::uint64_t frames_scanned = 0;  // valid frames (genesis included)
  std::uint64_t txns_in_journal = 0; // valid txn frames
  std::uint64_t txns_replayed = 0;   // re-executed (tail after snapshot)
  bool used_snapshot = false;
  std::uint64_t snapshot_txns = 0;   // txn frames the snapshot covered
  std::uint64_t snapshot_deltas = 0; // delta frames applied to rebuild it
  bool truncated = false;
  std::uint64_t truncated_at = 0;    // file offset of the cut
  std::string truncation_reason;
  bool validator_ok = false;
  std::vector<std::string> errors;   // non-fatal anomalies, in order

  std::string ToString() const;
};

struct RecoverResult {
  std::unique_ptr<Session> session;
  JournalRecoveryReport report;
  // Where a journal appended behind the file resumes, so attaching needs
  // no second scan: the txn frames after the snapshot recovery used (all
  // of them when it used none), and the file's JournalBase.
  std::uint64_t since_snapshot = 0;
  std::uint64_t base = 0;
};

// Free-function form of Session::Recover. Throws ProgramError when the
// file is unreadable, is not a journal, carries a newer format version
// than this build (no forward compatibility — see kJournalFormatVersion),
// or holds no usable genesis frame. Corrupt/torn tails do not throw: they
// are truncated and reported.
RecoverResult RecoverSession(const std::string& path);

// Rewrites the journal at `path` (RewriteWalFile, persist.compact.*
// points) to genesis + the newest full snapshot + the frames after it;
// snapshots kept are rebased and carry the drop in their `base` clause
// (persist/wire.h). Returns the txn frames dropped, or nullopt when the
// file is left as it is: not clean, no full snapshot, an anchor covering
// no txns, or one whose covered count the txn frames before it
// contradict. The caller holds the journal's FileLock and, after a
// rewrite, crosses persist.compact.rename.post before its next step.
std::optional<std::uint64_t> CompactJournalFile(const std::string& path);

// The txn frames compaction dropped from beneath a journal (its t-th txn
// frame is the (base + t)-th committed one): the largest `base` clause of
// its full snapshot frames, skipping one whose prefix does not decode.
// Gwal reconciliation and the server journal's resume both use it.
std::uint64_t JournalBase(const std::vector<WalFrame>& frames);

}  // namespace pivot

#endif  // PIVOT_PERSIST_DURABLE_H_
