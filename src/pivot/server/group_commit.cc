#include "pivot/server/group_commit.h"

#include <utility>

#include "pivot/persist/token.h"
#include "pivot/server/protocol.h"
#include "pivot/support/fault_injector.h"

namespace pivot {

std::string EncodeGroupFrame(const std::string& session, FrameType type,
                             const std::string& body) {
  persist_internal::TokenWriter w;
  w.Tok("g");
  w.Str(session);
  w.Int(static_cast<int>(type));
  w.Str(body);
  return w.Take();
}

std::string EncodeGroupMark(const std::string& session,
                            std::uint64_t dropped) {
  persist_internal::TokenWriter w;
  w.Tok("m");
  w.Str(session);
  w.U64(dropped);
  return w.Take();
}

GroupFrame DecodeGroupFrame(const std::string& body) {
  persist_internal::TokenReader r(body);
  GroupFrame frame;
  const std::string tag = r.Next();
  if (tag == "m") {
    frame.mark = true;
    frame.session = r.Str();
    frame.dropped = r.U64();
    if (!r.AtEnd()) {
      persist_internal::Malformed("trailing data in retention mark");
    }
    return frame;
  }
  if (tag != "g") {
    persist_internal::Malformed("bad group envelope tag '" + tag + "'");
  }
  frame.session = r.Str();
  const long long type = r.Int();
  if (type < static_cast<int>(FrameType::kGenesis) ||
      type > static_cast<int>(FrameType::kSnapshot)) {
    persist_internal::Malformed("bad frame type in group envelope");
  }
  frame.type = static_cast<FrameType>(type);
  frame.body = r.Str();
  if (!r.AtEnd()) {
    persist_internal::Malformed("trailing data in group envelope");
  }
  return frame;
}

GroupCommitLog::GroupCommitLog(const std::string& path, bool create,
                               GroupCommitOptions options,
                               std::function<void(Failure)> on_failure)
    : path_(path),
      options_(options),
      on_failure_(std::move(on_failure)),
      lock_(FileLock::Acquire(path)),
      writer_(create ? WalWriter::Create(path) : WalWriter::Append(path)),
      // Initialized before worker_ starts — the worker owns writer_ (and
      // log_bytes_ updates) from then on.
      log_bytes_(writer_.offset()),
      worker_([this] { WorkerLoop(); }) {
  RemoveStaleRewriteTmp(path);
}

GroupCommitLog::~GroupCommitLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  worker_.join();
}

void GroupCommitLog::Commit(const std::string& session, FrameType type,
                            const std::string& body) {
  auto ticket = std::make_shared<Ticket>();
  ticket->session = session;
  ticket->type = type;
  ticket->body = body;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (failure_ != Failure::kNone) std::rethrow_exception(failure_error_);
    if (draining_ || stop_) {
      // Not a fault: the server is draining. Retryable, so a commit racing
      // SIGTERM is retried against the restarted server instead of being
      // reported as a (non-retryable) degradation.
      throw ServerShuttingDownError("group-commit log is draining");
    }
    if (queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      ++stats_.rejected_full;
      throw ServerOverloadedError(
          "group-commit queue is full (" +
          std::to_string(options_.max_queue) + " frames pending)");
    }
    queue_.push_back(ticket);
  }
  queue_cv_.notify_all();

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return ticket->done; });
  if (ticket->error) std::rethrow_exception(ticket->error);
}

void GroupCommitLog::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  queue_cv_.notify_all();
  // The worker keeps writing batches until the queue is empty; committers
  // already queued still get their acks. An empty queue alone is not
  // "drained": the worker may hold a swapped-out batch whose group fsync
  // has not returned yet, and reporting drained before that fsync would
  // let the process exit with acknowledged-to-be-written frames still in
  // flight. Wait for the in-flight batch (and any retention rewrite) too.
  done_cv_.wait(lock, [&] {
    return queue_.empty() && !inflight_ && !compact_active_;
  });
  stop_ = true;
  queue_cv_.notify_all();
}

void GroupCommitLog::Compact(std::map<std::string, std::uint64_t> watermarks) {
  std::unique_lock<std::mutex> lock(mu_);
  // One pass at a time; a second caller queues behind the first.
  done_cv_.wait(lock, [&] {
    return (!compact_request_.has_value() && !compact_active_) || stop_;
  });
  if (failure_ != Failure::kNone) std::rethrow_exception(failure_error_);
  if (draining_ || stop_) {
    throw ServerShuttingDownError("group-commit log is draining");
  }
  compact_request_ = std::move(watermarks);
  compact_done_ = false;
  compact_error_ = nullptr;
  queue_cv_.notify_all();
  done_cv_.wait(lock, [&] { return compact_done_; });
  if (compact_error_) std::rethrow_exception(compact_error_);
}

GroupCommitLog::Failure GroupCommitLog::failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_;
}

GroupCommitStats GroupCommitLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitLog::FailAll(Failure failure, std::exception_ptr error,
                             std::deque<std::shared_ptr<Ticket>>& batch) {
  // Report the failure upward BEFORE any waiter can observe it: a committer
  // woken below returns kDegraded to its client, and by then the server's
  // mode must already say so — callers legitimately read mode() right after
  // a degraded response. The callback is idempotent (mode CAS), so racing
  // FailAll calls are harmless.
  if (on_failure_) on_failure_(failure);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failure_ == Failure::kNone) {
      failure_ = failure;
      failure_error_ = error;
    }
    // Tickets already marked done were durably written and acknowledged;
    // only the still-pending ones (rest of the batch + everything queued)
    // carry the failure.
    for (auto& t : batch) {
      if (t->done) continue;
      t->error = error;
      t->done = true;
    }
    for (auto& t : queue_) {
      t->error = error;
      t->done = true;
    }
    queue_.clear();
    inflight_ = false;
    // A retention pass queued behind the failed batch gets the same error.
    if (compact_request_.has_value()) {
      compact_request_.reset();
      compact_error_ = error;
      compact_done_ = true;
    }
  }
  done_cv_.notify_all();
}

void GroupCommitLog::WorkerLoop() {
  for (;;) {
    std::deque<std::shared_ptr<Ticket>> batch;
    std::exception_ptr broken;
    std::optional<std::map<std::string, std::uint64_t>> compact;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return stop_ || !queue_.empty() || compact_request_.has_value();
      });
      if (compact_request_.has_value() && !stop_) {
        // Retention runs between batches, when the file is quiescent —
        // which it is whatever the queue holds, since this worker is the
        // only appender. Taking the request ahead of the next batch keeps
        // a saturated commit stream from starving retention (the queue
        // just waits out one rewrite).
        compact = std::move(compact_request_);
        compact_request_.reset();
        compact_active_ = true;
        if (failure_ != Failure::kNone) broken = failure_error_;
      } else if (queue_.empty()) {
        if (stop_) {
          // A retention request that raced shutdown must not hang its
          // caller.
          if (compact_request_.has_value()) {
            compact_request_.reset();
            compact_error_ = std::make_exception_ptr(
                ServerShuttingDownError("group-commit log is draining"));
            compact_done_ = true;
            lock.unlock();
            done_cv_.notify_all();
          }
          return;
        }
        continue;
      } else {
        batch.swap(queue_);
        inflight_ = true;
        if (failure_ != Failure::kNone) broken = failure_error_;
      }
    }

    if (compact.has_value()) {
      std::exception_ptr err =
          broken ? broken : DoCompact(*compact);
      {
        std::lock_guard<std::mutex> lock(mu_);
        compact_active_ = false;
        compact_error_ = err;
        compact_done_ = true;
      }
      done_cv_.notify_all();
      continue;
    }

    if (broken) {
      // The log already failed: fail this batch with the stored error
      // instead of appending behind a broken tail.
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& t : batch) {
          t->error = broken;
          t->done = true;
        }
        inflight_ = false;
      }
      done_cv_.notify_all();
      continue;
    }

    const std::uint64_t pre_batch = writer_.offset();
    try {
      PIVOT_FAULT_POINT("server.batch.pre");
      for (const auto& t : batch) {
        writer_.AppendFrame(FrameType::kGroup,
                            EncodeGroupFrame(t->session, t->type, t->body),
                            /*fsync=*/false, "server.gwal.frame");
        if (options_.fsync && !options_.group_fsync) {
          // Per-commit baseline: pay one fsync per frame.
          writer_.Sync();
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.fsyncs;
        }
      }
      if (options_.fsync && options_.group_fsync) {
        // THE group commit: one fsync covers every frame in the batch.
        // A crash at sync.post is "durable but nobody acknowledged yet".
        writer_.Sync("server.gwal.sync.post");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.fsyncs;
      }

      log_bytes_.store(writer_.offset(), std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& t : batch) {
          PIVOT_FAULT_POINT("server.ack.pre");
          t->done = true;
          ++stats_.frames;
        }
        ++stats_.batches;
        if (batch.size() > stats_.max_batch) stats_.max_batch = batch.size();
        inflight_ = false;
      }
      done_cv_.notify_all();
    } catch (const FaultInjectedError&) {
      // The crash harness: leave the file exactly as the "crash" left it
      // (recovery's scan owns the torn tail) and stop serving.
      FailAll(Failure::kCrashed, std::current_exception(), batch);
    } catch (const ProgramError&) {
      // Permanent write fault (the WAL layer already absorbed transients).
      // Rolling the half-written batch off the log keeps rolled-back
      // operations from resurfacing at the next recovery; if even the
      // truncate fails the tail is torn and recovery will cut it.
      try {
        writer_.TruncateTo(pre_batch);
      } catch (...) {
      }
      log_bytes_.store(writer_.offset(), std::memory_order_release);
      auto error = std::make_exception_ptr(ServerDegradedError(
          "group-commit log write fault; commits are refused"));
      FailAll(Failure::kDegraded, error, batch);
    }
  }
}

std::exception_ptr GroupCommitLog::DoCompact(
    const std::map<std::string, std::uint64_t>& watermarks) {
  bool renamed = false;
  try {
    PIVOT_FAULT_POINT("server.gwal.compact.pre");
    const WalScanResult scan = ScanWal(path_);
    struct Entry {
      const WalFrame* frame;
      GroupFrame decoded;
    };
    std::vector<Entry> entries;
    entries.reserve(scan.frames.size());
    // Cumulative drops already recorded by earlier passes (later marks
    // supersede earlier ones for the same session).
    std::map<std::string, std::uint64_t> base_dropped;
    for (const WalFrame& frame : scan.frames) {
      if (frame.type != FrameType::kGroup) {
        throw ProgramError("group log holds a foreign frame; not compacting");
      }
      Entry e{&frame, DecodeGroupFrame(frame.body)};
      if (e.decoded.mark) {
        base_dropped[e.decoded.session] = e.decoded.dropped;
      }
      entries.push_back(std::move(e));
    }

    // How many leading txn envelopes each session sheds in THIS pass: the
    // caller's watermark is cumulative, so subtract what earlier passes
    // already reclaimed, and never drop more than the file actually holds
    // (a watermark can run ahead of the log when a session-WAL frame's
    // group envelope was truncated as a torn tail).
    std::map<std::string, std::uint64_t> available;
    for (const Entry& e : entries) {
      if (!e.decoded.mark && e.decoded.type == FrameType::kTxn) {
        ++available[e.decoded.session];
      }
    }
    std::map<std::string, std::uint64_t> drop_now;  // per session, this pass
    std::map<std::string, std::uint64_t> cumulative = base_dropped;
    for (const auto& [session, watermark] : watermarks) {
      const std::uint64_t base = base_dropped.count(session)
                                     ? base_dropped.at(session)
                                     : 0;
      if (watermark <= base) continue;
      std::uint64_t n = watermark - base;
      const auto avail = available.find(session);
      const std::uint64_t have = avail == available.end() ? 0 : avail->second;
      if (n > have) n = have;
      if (n == 0) continue;
      drop_now[session] = n;
      cumulative[session] = base + n;
    }
    if (drop_now.empty()) return nullptr;  // nothing to reclaim

    RewriteWalFile(path_, "server.gwal.compact", [&](WalWriter& out) {
      // Marks first: one consolidated cumulative mark per session.
      for (const auto& [session, dropped] : cumulative) {
        out.AppendFrame(FrameType::kGroup, EncodeGroupMark(session, dropped),
                        /*fsync=*/false, "server.gwal.compact.mark");
      }
      std::map<std::string, std::uint64_t> skipped;
      for (const Entry& e : entries) {
        if (e.decoded.mark) continue;  // consolidated above
        if (e.decoded.type == FrameType::kTxn) {
          const auto drop = drop_now.find(e.decoded.session);
          if (drop != drop_now.end() &&
              skipped[e.decoded.session] < drop->second) {
            ++skipped[e.decoded.session];
            continue;
          }
        }
        out.AppendFrame(FrameType::kGroup, e.frame->body, /*fsync=*/false,
                        "server.gwal.compact.frame");
      }
    });
    renamed = true;
    PIVOT_FAULT_POINT("server.gwal.compact.rename.post");
    // The old fd references the replaced (unlinked) inode; reopen.
    writer_ = WalWriter::Append(path_);
    log_bytes_.store(writer_.offset(), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.compactions;
    }
    return nullptr;
  } catch (const FaultInjectedError&) {
    // The crash harness: stop serving, leave every file exactly as the
    // "crash" left it.
    auto error = std::current_exception();
    std::deque<std::shared_ptr<Ticket>> none;
    FailAll(Failure::kCrashed, error, none);
    return error;
  } catch (const ProgramError&) {
    if (!renamed) {
      // The live log was never touched (RewriteWalFile removed its tmp):
      // report the failure to the requester and keep serving.
      return std::current_exception();
    }
    // Renamed but could not reopen the writer: the file on disk is a
    // complete, valid log, but this process can no longer append.
    auto error = std::make_exception_ptr(ServerDegradedError(
        "group-commit log failed to reopen after compaction"));
    std::deque<std::shared_ptr<Ticket>> none;
    FailAll(Failure::kDegraded, error, none);
    return error;
  }
}

}  // namespace pivot
