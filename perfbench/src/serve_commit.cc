// serve_commit: an in-process PivotServer behind a ServerListener on a
// unix socket, driven by closed-loop client connections.
//
// Why: the protocol, persistence (state digest, txn encoding, WAL append,
// periodic snapshots), group commit and request dispatch do the work while
// session compute is tiny. Reads take the same session lock but skip the
// commit path.
//
// Every session holds a straight-line program of constant-fold sites; the
// sessions' sizes span 16 to 136 sites, so request latencies spread over a
// wide range instead of piling up at one value (a median of a narrow pile
// jumps whole steps when the host's speed shifts during a run). Each
// connection owns kSessionsPerConnection sessions, so per-session history
// (and the snapshot every snapshot_interval commits) stays bounded. Three
// of four requests commit — kApply of CFO at a random remaining index, or
// kUndo of a random acked stamp (independent order) — and the fourth reads:
// kSource two times in three, else kCanUndo.
//
// Set-up is a restart: before the timer the generator builds every
// session's journal through a server and drains it; the timed set-up
// constructs a PivotServer on that directory and sends kRecover for every
// session. The group log runs with fsync off, so the device's fsync
// latency stays out of the times (the data directory must live inside the
// checkout); after a clean drain kRecover issues no fsync at all.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness.h"
#include "replay.h"
#include "workloads.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wal.h"
#include "pivot/persist/wire.h"
#include "pivot/search/cost.h"
#include "pivot/server/group_commit.h"
#include "pivot/server/listener.h"
#include "pivot/server/protocol.h"
#include "pivot/server/server.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pivot::OrderStamp;
using pivot::Request;
using pivot::Response;
using pivot::ServerOp;
using pivot::StatusCode;

// One closed-loop connection, so a request's latency is its own work: with
// two, each request also waited out part of the other connection's
// request, and how much shifted from run to run (op_p50_us of five
// interleaved runs on a 4-vCPU host: 392-508 us with two connections,
// 216-247 us with one). The group log therefore commits one frame per
// batch.
constexpr int kConnections = 1;
constexpr int kSessionsPerConnection = 64;
constexpr int kSessions = kConnections * kSessionsPerConnection;
constexpr int kGenCommits = 80;  // two snapshots plus a tail to replay
constexpr int kSetupReps = 8;
// Half ServerOptions' default of 64. A snapshot then follows 1 in 32
// commits, 2.3% of requests, so op_p99_us falls inside the spread of the
// snapshot requests; at 64 (1.2% of requests) it fell on the step between
// them and the rest (one run: p98.5 460 us, p99 784 us).
constexpr int kSnapshotInterval = 32;
// The timed phase is a fixed number of requests, --seconds at this nominal
// rate, so every run of a seed does the same work and per-session history
// ends at the same length. A 4-vCPU host serves 4.5k-9k requests/s, so
// the phase takes half to all of --seconds.
constexpr double kNominalRequestsPerSecond = 4500.0;
// Requests per block of the timed phase (Timed): about 1000 of them reads.
constexpr std::uint64_t kBlockRequests = 4000;
// The layer replays of a traced run cover these sessions (all owned by
// connection 0, one of each size): part of the stream, statistically like
// the rest, at part of the replay time.
constexpr int kReplaySessions = 16;
// Frames per thread the group-commit replay commits again with fsync on.
constexpr std::size_t kSyncedFrames = 256;

int Sites(int session) { return 16 + 8 * (session % 16); }

std::string FoldableSource(int sites) {
  std::ostringstream src;
  for (int i = 0; i < sites; ++i) {
    src << "x" << i << " = " << (i % 7 + 1) << " + " << (i % 5 + 1) << "\n";
  }
  for (int i = 0; i < sites; ++i) src << "write x" << i << "\n";
  return src.str();
}

std::string SessionName(int s) { return "s" + std::to_string(s); }

pivot::ServerOptions Options(const std::string& dir) {
  pivot::ServerOptions options;
  options.data_dir = dir;
  options.snapshot_interval = kSnapshotInterval;
  options.commit.fsync = false;
  return options;
}

// An acked commit, in session order: what the reference session replays.
struct Commit {
  bool apply = true;
  int index = 0;             // apply: into FindOpportunities(CFO)
  OrderStamp stamp = 0;      // apply: the produced stamp; undo: the target
  std::int64_t request = 0;  // traced run: the request that made it
};

// The client's model of one session: which folds are live.
struct SessionModel {
  std::string name;
  int sites = 0;
  std::string source;
  std::vector<OrderStamp> live;
  std::vector<Commit> log;
  std::size_t generated = 0;  // log entries made before the timed phase
  bool consistent = true;
};

// One request of the timed phase, kept for the traced replays.
struct Sent {
  Request req;
  Response resp;
  int session = 0;
  Clock::time_point start;
  std::int64_t id = 0;
  bool read = false;
};

// Picks the next request for a connection's sessions and folds the reply
// back into the model. Shared by the generator and the socket clients.
class Client {
 public:
  Client(std::vector<SessionModel*> sessions, std::uint64_t seed)
      : sessions_(std::move(sessions)), rng_(seed) {}

  // Returns the model index the request targets.
  int Next(Request* req, bool* read) {
    const int s = static_cast<int>(rng_.Index(sessions_.size()));
    SessionModel& m = *sessions_[static_cast<std::size_t>(s)];
    *req = Request{};
    req->session = m.name;
    const std::size_t remaining =
        static_cast<std::size_t>(m.sites) - m.live.size();
    *read = rng_.Index(4) == 3;
    if (*read) {
      if (!m.live.empty() && rng_.Index(3) == 0) {
        req->op = ServerOp::kCanUndo;
        req->stamps = {m.live[rng_.Index(m.live.size())]};
      } else {
        req->op = ServerOp::kSource;
      }
    } else if (m.live.empty() || (remaining > 0 && rng_.Chance(0.5))) {
      req->op = ServerOp::kApply;
      req->kind = static_cast<int>(pivot::TransformKind::kCfo);
      req->op_index = static_cast<std::uint32_t>(rng_.Index(remaining));
    } else {
      req->op = ServerOp::kUndo;
      req->stamps = {m.live[rng_.Index(m.live.size())]};
    }
    return s;
  }

  // False when the reply is not what the model predicts.
  bool Observe(int s, const Request& req, const Response& resp,
               std::int64_t request_id) {
    SessionModel& m = *sessions_[static_cast<std::size_t>(s)];
    if (resp.status != StatusCode::kOk) return false;
    if (req.op == ServerOp::kApply) {
      m.live.push_back(resp.stamp);
      m.log.push_back({true, static_cast<int>(req.op_index), resp.stamp,
                       request_id});
    } else if (req.op == ServerOp::kUndo) {
      m.live.erase(std::find(m.live.begin(), m.live.end(), req.stamps[0]));
      m.log.push_back({false, 0, req.stamps[0], request_id});
      if (resp.value != 1) m.consistent = false;  // a fold never cascades
    } else if (req.op == ServerOp::kCanUndo && resp.value != 1) {
      m.consistent = false;
    }
    return true;
  }

 private:
  std::vector<SessionModel*> sessions_;
  pivot::Rng rng_;
};

// Distinct streams per (seed, connection, phase). The multiplier is not
// Rng's SplitMix increment, which would make neighbouring seeds' generators
// share state words.
std::uint64_t ConnectionSeed(std::uint64_t seed, int connection, bool gen) {
  return seed * 0xD1B54A32D192ED03ULL +
         static_cast<std::uint64_t>(2 * connection + (gen ? 1 : 0));
}

std::vector<SessionModel*> Owned(std::vector<SessionModel>& models, int c) {
  std::vector<SessionModel*> owned;
  for (int i = 0; i < kSessionsPerConnection; ++i) {
    owned.push_back(&models[static_cast<std::size_t>(
        c * kSessionsPerConnection + i)]);
  }
  return owned;
}

// Builds every session's journal through a server, then drains it.
void Generate(const std::string& dir, std::uint64_t seed,
              std::vector<SessionModel>& models) {
  pivot::PivotServer server(Options(dir));
  for (int s = 0; s < kSessions; ++s) {
    SessionModel& m = models[static_cast<std::size_t>(s)];
    m.name = SessionName(s);
    m.sites = Sites(s);
    m.source = FoldableSource(m.sites);
    Request open;
    open.op = ServerOp::kOpen;
    open.session = m.name;
    open.source = m.source;
    const Response resp = server.Execute(open);
    if (resp.status != StatusCode::kOk) {
      throw pivot::ProgramError("serve_commit: open failed: " + resp.error);
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    Client client(Owned(models, c), ConnectionSeed(seed, c, true));
    for (int i = 0; i < kGenCommits * kSessionsPerConnection;) {
      Request req;
      bool read = false;
      const int s = client.Next(&req, &read);
      if (read) continue;
      if (!client.Observe(s, req, server.Execute(req), -1)) {
        throw pivot::ProgramError("serve_commit: generator request failed");
      }
      ++i;
    }
  }
  server.Drain();
  for (SessionModel& m : models) m.generated = m.log.size();
}

// Constructs a server on `dir` and recovers every session. Returns the
// server; `tracer` (optional) gets persist.gwal_open and persist.recover
// spans, `replayed` the txns recovery re-executed.
std::unique_ptr<pivot::PivotServer> Restart(const std::string& dir,
                                            Tracer* tracer,
                                            std::uint64_t* replayed) {
  std::unique_ptr<pivot::PivotServer> server;
  auto open = [&] {
    server = std::make_unique<pivot::PivotServer>(Options(dir));
  };
  if (tracer != nullptr) {
    tracer->Time("persist.gwal_open", -1, open);
  } else {
    open();
  }
  for (int s = 0; s < kSessions; ++s) {
    Request req;
    req.op = ServerOp::kRecover;
    req.session = SessionName(s);
    const Response resp =
        tracer != nullptr
            ? tracer->Time("persist.recover", -1,
                           [&] { return server->Execute(req); })
            : server->Execute(req);
    if (resp.status != StatusCode::kOk) {
      throw pivot::ProgramError("serve_commit: recover failed: " + resp.error);
    }
    if (replayed != nullptr) *replayed += resp.value;
  }
  return server;
}

struct SocketRun {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  Timed timed;
  std::vector<Sent> sent;  // traced only
  std::vector<Tracer> tracers;
  pivot::ServerStats stats;
  std::vector<std::string> live_sources;
  double peak_rss_mb = 0.0;
};

// The timed phase: kConnections closed-loop clients over the unix socket.
SocketRun RunSockets(pivot::PivotServer& server, const std::string& socket,
                     std::vector<SessionModel>& models, std::uint64_t seed,
                     double seconds, bool traced) {
  const std::uint64_t blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(seconds * kNominalRequestsPerSecond /
                                    kConnections / kBlockRequests));
  const std::uint64_t per_connection = blocks * kBlockRequests;
  SocketRun run;
  pivot::ListenerOptions listen;
  listen.unix_path = socket;
  pivot::ServerListener listener(server, listen);
  std::thread accept([&] { listener.Run(); });
  struct StopListener {
    pivot::ServerListener& listener;
    std::thread& thread;
    ~StopListener() {
      listener.Shutdown();
      thread.join();
    }
  } stop{listener, accept};

  run.tracers.resize(kConnections);
  std::vector<SocketRun> per(kConnections);
  std::vector<int> fds(kConnections, -1);
  for (int c = 0; c < kConnections; ++c) {
    fds[static_cast<std::size_t>(c)] = pivot::DialUnix(socket);
  }
  std::atomic<std::int64_t> next_id{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      SocketRun& mine = per[static_cast<std::size_t>(c)];
      Tracer& tracer = run.tracers[static_cast<std::size_t>(c)];
      const int fd = fds[static_cast<std::size_t>(c)];
      Client client(Owned(models, c), ConnectionSeed(seed, c, false));
      Block block;
      Clock::time_point block_start = Clock::now();
      try {
        if (fd < 0) throw pivot::ProgramError("serve_commit: dial failed");
        while (mine.requests < per_connection) {
          Sent sent;
          const int s = client.Next(&sent.req, &sent.read);
          sent.id = next_id.fetch_add(1);
          sent.start = Clock::now();
          std::string payload;
          if (traced) {
            tracer.Time("op", sent.id, [&] {
              const std::string out = tracer.Time(
                  "client.encode", sent.id,
                  [&] { return pivot::EncodeRequest(sent.req); });
              tracer.Time("client.roundtrip", sent.id, [&] {
                pivot::WriteMessage(fd, out);
                if (!pivot::ReadMessage(fd, &payload)) {
                  throw pivot::ProgramError("serve_commit: server hung up");
                }
              });
              sent.resp = tracer.Time("client.decode", sent.id, [&] {
                return pivot::DecodeResponse(payload);
              });
            });
          } else {
            pivot::WriteMessage(fd, pivot::EncodeRequest(sent.req));
            if (!pivot::ReadMessage(fd, &payload)) {
              throw pivot::ProgramError("serve_commit: server hung up");
            }
            sent.resp = pivot::DecodeResponse(payload);
          }
          const double us = MicrosBetween(sent.start, Clock::now());
          block.ops.Add(us);
          if (sent.read) block.reads.Add(us);
          ++mine.requests;
          if (!client.Observe(s, sent.req, sent.resp, sent.id)) ++mine.failed;
          if (traced) {
            sent.session = c * kSessionsPerConnection + s;
            mine.sent.push_back(std::move(sent));
          }
          if (block.ops.size() == kBlockRequests) {
            block.seconds = SecondsBetween(block_start, Clock::now());
            mine.timed.blocks.push_back(std::move(block));
            block = Block{};
            block_start = Clock::now();
          }
        }
      } catch (const std::exception&) {
        ++mine.failed;
        models[static_cast<std::size_t>(c * kSessionsPerConnection)]
            .consistent = false;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  run.wall_s = SecondsBetween(start, Clock::now());
  run.peak_rss_mb = PeakRssMb();
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  for (SocketRun& p : per) {
    run.requests += p.requests;
    run.failed += p.failed;
    for (Block& b : p.timed.blocks) run.timed.blocks.push_back(std::move(b));
    for (Sent& s : p.sent) run.sent.push_back(std::move(s));
  }
  std::sort(run.sent.begin(), run.sent.end(),
            [](const Sent& a, const Sent& b) { return a.id < b.id; });

  for (const SessionModel& m : models) {
    Request req;
    req.op = ServerOp::kSource;
    req.session = m.name;
    run.live_sources.push_back(server.Execute(req).text);
  }
  run.stats = server.stats();
  return run;
}

// Replays one session's acked commits on a fresh Session.
std::unique_ptr<pivot::Session> Reference(const SessionModel& m,
                                          std::string* error) {
  auto session = std::make_unique<pivot::Session>(pivot::Parse(m.source));
  for (const Commit& commit : m.log) {
    if (commit.apply) {
      const std::vector<pivot::Opportunity> found =
          session->FindOpportunities(pivot::TransformKind::kCfo);
      if (static_cast<std::size_t>(commit.index) >= found.size() ||
          session->Apply(found[static_cast<std::size_t>(commit.index)]) !=
              commit.stamp) {
        *error = m.name + ": reference apply diverged";
        return session;
      }
    } else {
      session->Undo(commit.stamp);
    }
  }
  return session;
}

// Output checks: every session's live source and its source recovered from
// disk after a drain equal a reference session that replayed its acked
// requests.
void CheckSessions(const std::string& dir,
                   const std::vector<SessionModel>& models,
                   const std::vector<std::string>& live_sources,
                   Result& result) {
  std::mutex mu;
  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      for (int i = 0; i < kSessionsPerConnection; ++i) {
        const int s = c * kSessionsPerConnection + i;
        const SessionModel& m = models[static_cast<std::size_t>(s)];
        std::string error;
        try {
          auto ref = Reference(m, &error);
          const std::string expected = ref->Source();
          pivot::RecoverResult recovered =
              pivot::RecoverSession(dir + "/" + m.name + ".wal");
          if (error.empty() && !m.consistent) {
            error = m.name + ": a reply disagreed with the client model";
          }
          if (error.empty() &&
              live_sources[static_cast<std::size_t>(s)] != expected) {
            error = m.name + ": live source differs from the reference";
          }
          if (error.empty() && recovered.session->Source() != expected) {
            error = m.name + ": recovered source differs from the reference";
          }
        } catch (const std::exception& e) {
          error = m.name + ": " + e.what();
        }
        if (!error.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          result.FailCheck("serve_commit " + error);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

// The persistence calls ServerJournal makes per commit, on a shadow
// session: digest, txn encoding and the WAL append inside OnCommit, an
// image snapshot every kSnapshotInterval commits in OnCommitted.
class ShadowJournal final : public pivot::CommitListener {
 public:
  ShadowJournal(pivot::Session& session, pivot::WalWriter writer,
                std::uint64_t since_snapshot, Tracer& tracer)
      : session_(session),
        writer_(std::move(writer)),
        since_snapshot_(since_snapshot),
        tracer_(tracer) {}
  ShadowJournal(const ShadowJournal&) = delete;
  ShadowJournal& operator=(const ShadowJournal&) = delete;

  void OnCommit(const pivot::TxnDescriptor& desc) override {
    const pivot::SessionDigest digest = tracer_.Time(
        "persist.digest", op_, [&] { return pivot::ComputeDigest(session_); });
    std::string body = tracer_.Time(
        "persist.encode_txn", op_, [&] { return pivot::EncodeTxn(desc, digest); });
    tracer_.Time("persist.wal_append", op_, [&] {
      writer_.AppendFrame(pivot::FrameType::kTxn, body, false, "bench.txn");
    });
    txn_bytes += body.size();
    bodies.push_back({op_, std::move(body)});
    ++txns_;
  }

  void OnCommitted(const pivot::TxnDescriptor&) override {
    if (++since_snapshot_ < kSnapshotInterval) return;
    tracer_.Time("persist.snapshot", op_, [&] {
      const std::string body = pivot::EncodeSnapshotBody(
          txns_, pivot::EncodeSessionImage(session_));
      writer_.AppendFrame(pivot::FrameType::kSnapshot, body, false,
                          "bench.snapshot");
      snapshot_bytes += body.size();
    });
    ++snapshots;
    since_snapshot_ = 0;
  }

  void set_op(std::int64_t op) { op_ = op; }

  std::vector<std::pair<std::int64_t, std::string>> bodies;
  std::uint64_t txn_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshots = 0;

 private:
  pivot::Session& session_;
  pivot::WalWriter writer_;
  std::uint64_t since_snapshot_;
  std::uint64_t txns_ = 0;
  Tracer& tracer_;
  std::int64_t op_ = 0;
};

std::vector<ReplayOp> CommitOps(const SessionModel& m, std::size_t from,
                                std::size_t to) {
  std::vector<ReplayOp> ops;
  for (std::size_t i = from; i < to; ++i) {
    const Commit& c = m.log[i];
    ReplayOp r;
    r.type = c.apply ? ReplayOp::Type::kApply : ReplayOp::Type::kUndo;
    r.kind = pivot::TransformKind::kCfo;
    r.index = c.index;
    if (!c.apply) r.stamps = {c.stamp};
    r.op = c.request;
    ops.push_back(r);
  }
  return ops;
}

void Trace(const Config& cfg, const std::vector<SessionModel>& gen_models,
           const SocketRun& untraced, Result& result) {
  const fs::path gen = fs::path(cfg.work_dir) / "gen";
  const fs::path traced_dir = fs::path(cfg.work_dir) / "traced";
  fs::copy(gen, traced_dir, fs::copy_options::recursive);

  // Traced socket run, on a fresh copy, after a traced set-up.
  Tracer setup;
  std::uint64_t replayed = 0;
  std::vector<SessionModel> models = gen_models;
  SocketRun run;
  {
    auto server = Restart(traced_dir.string(), &setup, &replayed);
    run = RunSockets(*server, (traced_dir / "sock").string(), models,
                     cfg.seed, cfg.seconds, true);
    server->Drain();
  }
  result.attempted += run.requests;
  result.failed += run.failed;
  for (const SessionModel& m : models) {
    if (!m.consistent) result.FailCheck("serve_commit traced run: " + m.name);
  }

  // Set-up layers timed separately on the generated files.
  for (int s = 0; s < kSessions; ++s) {
    const std::string path = (gen / (SessionName(s) + ".wal")).string();
    const pivot::WalScanResult scan =
        setup.Time("persist.wal_scan", -1, [&] { return pivot::ScanWal(path); });
    for (const pivot::WalFrame& frame : scan.frames) {
      if (frame.type != pivot::FrameType::kSnapshot) continue;
      const pivot::SnapshotBody body = pivot::DecodeSnapshotBody(frame.body);
      setup.Time("persist.image_decode", -1,
                 [&] { return pivot::DecodeSessionImage(body.payload); });
    }
  }

  double n = 0.0;
  for (const Sent& sent : run.sent) n += sent.session < kReplaySessions;

  // (a) The recorded stream through PivotServer::Execute, one thread.
  Tracer server_tracer;
  Samples read_execute;
  {
    const fs::path replay_dir = fs::path(cfg.work_dir) / "replay";
    fs::copy(gen, replay_dir, fs::copy_options::recursive);
    auto server = Restart(replay_dir.string(), nullptr, nullptr);
    for (const Sent& sent : run.sent) {
      if (sent.session >= kReplaySessions) continue;
      const std::string wire = pivot::EncodeRequest(sent.req);
      server_tracer.Time("op", sent.id, [&] {
        const Request req = server_tracer.Time(
            "server.decode", sent.id, [&] { return pivot::DecodeRequest(wire); });
        const Clock::time_point t0 = Clock::now();
        const Response resp = server_tracer.Time(
            "server.execute", sent.id, [&] { return server->Execute(req); });
        if (sent.read) read_execute.Add(MicrosBetween(t0, Clock::now()));
        server_tracer.Time("server.encode", sent.id,
                           [&] { return pivot::EncodeResponse(resp); });
        if (resp.status != sent.resp.status || resp.stamp != sent.resp.stamp) {
          result.FailCheck("serve_commit: Execute replay diverged");
        }
      });
    }
    server->Drain();
  }

  // (b) Shadow sessions: session compute plus ServerJournal's persistence
  // calls, per session in commit order.
  Tracer shadow;
  ReplayCounters counters;
  FamilyCounts rebuilds{};
  struct Frame {
    std::int64_t request;
    std::string session;
    std::string body;
  };
  std::vector<std::vector<Frame>> frames(kConnections);
  std::uint64_t txn_bytes = 0, snapshot_bytes = 0, snapshots = 0, txns = 0;
  double history = 0.0, journal = 0.0;
  const fs::path shadow_dir = fs::path(cfg.work_dir) / "shadow";
  fs::create_directories(shadow_dir);
  for (int s = 0; s < kReplaySessions; ++s) {
    const SessionModel& m = models[static_cast<std::size_t>(s)];
    const std::vector<ReplayOp> before_run = CommitOps(m, 0, m.generated);
    std::vector<ReplayOp> timed = CommitOps(m, m.generated, m.log.size());
    ReplayOp score;
    score.type = ReplayOp::Type::kScore;
    score.op = -2;
    timed.push_back(score);
    std::vector<std::uint16_t> masks;
    {
      ReplayCounters ignored;
      pivot::Session counting(pivot::Parse(m.source));
      CountRebuilds(counting, before_run, ignored);
      masks = CountRebuilds(counting, timed, ignored);
    }
    pivot::Program program =
        shadow.Time("ir.parse", -1, [&] { return pivot::Parse(m.source); });
    pivot::Session session(std::move(program));
    ReplayCounters ignored;
    CountRebuilds(session, before_run, ignored);
    ShadowJournal journal_hook(
        session,
        pivot::WalWriter::Create((shadow_dir / (m.name + ".wal")).string()),
        m.generated % kSnapshotInterval, shadow);
    session.set_commit_listener(&journal_hook);
    const FamilyCounts f0 = ReadFamilies(session.analyses());
    // The listener needs each commit's request id for its spans.
    std::size_t mask_at = 0;
    for (const ReplayOp& op : timed) {
      journal_hook.set_op(op.op);
      const std::size_t reads = op.type == ReplayOp::Type::kUndo ? 0 : 1;
      const std::vector<std::uint16_t> op_masks(
          masks.begin() + static_cast<std::ptrdiff_t>(mask_at),
          masks.begin() + static_cast<std::ptrdiff_t>(mask_at + reads));
      mask_at += reads;
      TimedReplay(session, {op}, op_masks, shadow, counters);
    }
    const FamilyCounts f1 = ReadFamilies(session.analyses());
    for (int f = 0; f < kFamilies; ++f) {
      rebuilds[static_cast<std::size_t>(f)] +=
          f1[static_cast<std::size_t>(f)] - f0[static_cast<std::size_t>(f)];
    }
    session.set_commit_listener(nullptr);
    txn_bytes += journal_hook.txn_bytes;
    snapshot_bytes += journal_hook.snapshot_bytes;
    snapshots += journal_hook.snapshots;
    txns += journal_hook.bodies.size();
    history += static_cast<double>(session.history().size());
    journal += static_cast<double>(session.journal().records().size());
    auto& mine = frames[static_cast<std::size_t>(s % kConnections)];
    for (auto& [request, body] : journal_hook.bodies) {
      mine.push_back({request, m.name, std::move(body)});
    }
  }

  // (c) Group commit with the recorded frame bodies from kConnections
  // threads, each committing its sessions' frames in request order: every
  // frame with fsync off, as in the timed phase, for server.group.commit_us
  // and the batch sizes; then the first kSyncedFrames of each thread again
  // with fsync on, for server.group.fsyncs_per_commit (the timed phase
  // never syncs, so only this pass can count syncs).
  for (std::vector<Frame>& mine : frames) {
    std::sort(mine.begin(), mine.end(), [](const Frame& a, const Frame& b) {
      return a.request < b.request;
    });
  }
  std::vector<Tracer> group_tracers(kConnections);
  auto group_commit = [&](const char* file, bool fsync, std::size_t limit,
                          bool timed) {
    pivot::GroupCommitOptions options;
    options.fsync = fsync;
    pivot::GroupCommitLog log(
        (fs::path(cfg.work_dir) / file).string(), true, options,
        [](pivot::GroupCommitLog::Failure) {});
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Tracer& tracer = group_tracers[static_cast<std::size_t>(c)];
        const std::vector<Frame>& mine = frames[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < std::min(limit, mine.size()); ++i) {
          const Frame& frame = mine[i];
          auto commit = [&] {
            log.Commit(frame.session, pivot::FrameType::kTxn, frame.body);
          };
          if (timed) {
            tracer.Time("server.group.commit", frame.request, commit);
          } else {
            commit();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    log.Drain();
    return log.stats();
  };
  const pivot::GroupCommitStats group_stats =
      group_commit("group.gwal", false, SIZE_MAX, true);
  const pivot::GroupCommitStats synced =
      group_commit("synced.gwal", true, kSyncedFrames, false);

  // Metrics: per replayed request, or per call where noted.
  SpanTotals client;
  for (const Tracer& t : run.tracers) client.Add(t);
  SpanTotals setup_totals;
  setup_totals.Add(setup);
  SpanTotals server_totals;
  server_totals.Add(server_tracer);
  SpanTotals shadow_totals;
  shadow_totals.Add(shadow);
  SpanTotals group_totals;
  for (const Tracer& t : group_tracers) group_totals.Add(t);
  auto per_call = [](const SpanTotals& t, const std::string& name) {
    const std::uint64_t calls = t.Calls(name);
    return calls > 0 ? t.Self(name) / static_cast<double>(calls) : 0.0;
  };

  result.Add("ir.parse_us", per_call(shadow_totals, "ir.parse"), "us");
  AddAnalysisMetrics(result, shadow_totals, rebuilds, n);
  AddReplayMetrics(result, shadow_totals, counters, n);
  result.Add("actions.journal_records", journal / kReplaySessions, "count");
  result.Add("core.history_records", history / kReplaySessions, "count");
  result.Add("core.rollbacks", static_cast<double>(counters.failures),
             "count");
  result.Add("persist.txn_bytes",
             txns > 0 ? static_cast<double>(txn_bytes) / txns : 0.0, "B");
  result.Add("persist.snapshot_bytes",
             snapshots > 0 ? static_cast<double>(snapshot_bytes) / snapshots
                           : 0.0,
             "B");
  result.Add("persist.replayed_txns", static_cast<double>(replayed), "count");
  const double frames_committed = static_cast<double>(group_stats.frames);
  result.Add("server.group.fsyncs_per_commit",
             synced.frames > 0 ? static_cast<double>(synced.fsyncs) /
                                     static_cast<double>(synced.frames)
                               : 0.0,
             "count");
  result.Add("server.group.batch_mean",
             group_stats.batches > 0
                 ? frames_committed / static_cast<double>(group_stats.batches)
                 : 0.0,
             "count");
  result.Add("server.group.max_batch",
             static_cast<double>(group_stats.max_batch), "count");
  result.Add("server.rejected",
             static_cast<double>(run.stats.rejected_overload +
                                 run.stats.rejected_deadline +
                                 run.stats.rejected_degraded +
                                 run.stats.group.rejected_full),
             "count");

  result.Add("persist.digest_us", PerOp(shadow_totals, "persist.digest", n),
                "us/op");
  result.Add("persist.encode_txn_us",
                PerOp(shadow_totals, "persist.encode_txn", n), "us/op");
  result.Add("persist.wal_append_us",
                PerOp(shadow_totals, "persist.wal_append", n), "us/op");
  result.Add("persist.snapshot_us",
                PerOp(shadow_totals, "persist.snapshot", n), "us/op");
  result.Add("persist.gwal_open_us",
                per_call(setup_totals, "persist.gwal_open"), "us");
  result.Add("persist.recover_us",
                per_call(setup_totals, "persist.recover"), "us");
  result.Add("persist.wal_scan_us",
                per_call(setup_totals, "persist.wal_scan"), "us");
  result.Add("persist.image_decode_us",
                per_call(setup_totals, "persist.image_decode"), "us");
  const double execute = per_call(server_totals, "server.execute");
  result.Add("server.execute_us", execute, "us");
  result.Add("server.read_us", read_execute.Percentile(50), "us");
  result.Add("server.transport_us",
                per_call(client, "client.roundtrip") - execute, "us");
  result.Add("server.protocol.encode_us",
                per_call(client, "client.encode") +
                    per_call(server_totals, "server.encode"),
                "us");
  result.Add("server.protocol.decode_us",
                per_call(client, "client.decode") +
                    per_call(server_totals, "server.decode"),
                "us");
  result.Add("server.group.commit_us",
                per_call(group_totals, "server.group.commit"), "us");

  double client_us = 0.0;
  for (const auto& [name, self] : client.self_us) {
    if (name != "op") client_us += self;
  }
  const double untraced_per_op =
      untraced.wall_s * kConnections / static_cast<double>(untraced.requests);
  const double requests = static_cast<double>(run.requests);
  const double traced_per_op = run.wall_s * kConnections / requests;
  result.Add("trace.coverage", client_us / requests / 1e6 / untraced_per_op,
             "frac");
  result.Add("trace.overhead", traced_per_op / untraced_per_op, "ratio");

  std::vector<const Tracer*> all = {&setup, &server_tracer, &shadow};
  for (const Tracer& t : run.tracers) all.push_back(&t);
  for (const Tracer& t : group_tracers) all.push_back(&t);
  WriteSpans(SpansPath(cfg), all);
}

}  // namespace

Result RunServeCommit(const Config& cfg) {
  Result result;
  const fs::path gen = fs::path(cfg.work_dir) / "gen";
  const fs::path live = fs::path(cfg.work_dir) / "live";
  std::vector<SessionModel> models(kSessions);
  Generate(gen.string(), cfg.seed, models);
  fs::copy(gen, live, fs::copy_options::recursive);
  const std::vector<SessionModel> gen_models = models;

  // Set-up: kSetupReps timed restarts on the generated journals, half
  // before the timed phase (the last one's server serves it) and half after
  // the output checks on fresh copies, so their median samples the host at
  // both ends of the run.
  std::vector<double> setups;
  auto restart = [&](const fs::path& dir) {
    const Clock::time_point t0 = Clock::now();
    auto server = Restart(dir.string(), nullptr, nullptr);
    setups.push_back(SecondsBetween(t0, Clock::now()));
    return server;
  };
  std::unique_ptr<pivot::PivotServer> server;
  for (int i = 0; i < kSetupReps / 2; ++i) {
    if (server != nullptr) {
      server->Drain();
      server.reset();
    }
    server = restart(live);
  }

  HostNoise noise;
  noise.Start();
  SocketRun run = RunSockets(*server, (live / "sock").string(), models,
                             cfg.seed, cfg.seconds, false);
  noise.Stop();
  result.host = noise;
  server->Drain();
  server.reset();
  result.attempted = run.requests;
  result.failed = run.failed;
  CheckSessions(live.string(), models, run.live_sources, result);

  if (!cfg.trace) {
    const fs::path again = fs::path(cfg.work_dir) / "setup";
    for (int i = 0; i < kSetupReps / 2; ++i) {
      fs::copy(gen, again, fs::copy_options::recursive);
      restart(again)->Drain();
      fs::remove_all(again);
    }
    result.Add("setup_s", Median(setups), "s");
    result.AddTimedMetrics(run.timed);
    result.Add("ok_frac", result.OkFrac(), "frac");
    result.Add("peak_rss_mb", run.peak_rss_mb, "MB");
    return result;
  }
  result.attempted = 0;
  result.failed = 0;
  Trace(cfg, gen_models, run, result);
  return result;
}

}  // namespace perfbench
