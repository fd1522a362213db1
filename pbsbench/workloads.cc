#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "pbs/core/messages.h"
#include "pbs/core/transport.h"
#include "pbs/core/wire_session.h"
#include "pbs/sync/shard_planner.h"

namespace pbsbench {
namespace {

using pbs::SessionEngine;
using pbs::SessionResult;
using pbs::SessionStatus;

constexpr const char* kHost = "127.0.0.1";  // The loopback interface.

// Independent generator streams under one run seed.
constexpr uint64_t kStreamBase = 1;
constexpr uint64_t kStreamSession = 2;
constexpr uint64_t kStreamWriter = 3;
constexpr uint64_t kStreamStore = 4;
constexpr uint64_t kStreamStrata = 5;
constexpr uint64_t kStreamFollowUp = 6;

// Disjoint key ranges, so base keys, per-session additions and writer
// keys can never collide: the oracle relies on it.
constexpr uint64_t kBaseHi32 = uint64_t{1} << 31;
constexpr uint64_t kNewHi32 = uint64_t{1} << 32;
constexpr uint64_t kBaseHi48 = uint64_t{1} << 46;
constexpr uint64_t kNewHi48 = uint64_t{1} << 47;
constexpr uint64_t kWriterHi48 = uint64_t{1} << 48;

std::atomic<int> g_open_connections{0};
std::atomic<int> g_max_connections{0};

/// Client transport wrapper: counts open connections and stamps the
/// arrival of the first complete server frame (HELLO_ACK, or
/// SHARD_PLAN_ACK in a sharded session).
class TimedTransport final : public pbs::ByteTransport {
 public:
  explicit TimedTransport(std::unique_ptr<pbs::ByteTransport> inner)
      : inner_(std::move(inner)) {
    const int open = ++g_open_connections;
    int seen = g_max_connections.load();
    while (open > seen && !g_max_connections.compare_exchange_weak(seen, open)) {
    }
  }
  ~TimedTransport() override { --g_open_connections; }
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  bool Send(const uint8_t* data, size_t size) override {
    return inner_->Send(data, size);
  }
  bool Recv(uint8_t* data, size_t size) override {
    const bool ok = inner_->Recv(data, size);
    if (ok) Observe(data, size);
    return ok;
  }
  pbs::RecvStatus RecvTimed(uint8_t* data, size_t size,
                            int timeout_ms) override {
    const pbs::RecvStatus status = inner_->RecvTimed(data, size, timeout_ms);
    if (status == pbs::RecvStatus::kOk) Observe(data, size);
    return status;
  }
  size_t TryRecv(uint8_t* data, size_t size) override {
    const size_t got = inner_->TryRecv(data, size);
    Observe(data, got);
    return got;
  }

  int64_t first_frame_ns() const { return first_frame_ns_; }
  /// Reads that returned bytes: each becomes one SessionEngine::Feed in
  /// the blocking driver and in the non-blocking pump.
  int reads() const { return reads_; }

 private:
  void Observe(const uint8_t* data, size_t size) {
    if (size == 0) return;
    ++reads_;
    if (first_frame_ns_ != 0) return;
    for (size_t i = 0;
         header_fill_ < pbs::wire::kFrameHeaderSize && i < size; ++i) {
      header_[header_fill_++] = data[i];
    }
    received_ += size;
    if (header_fill_ < pbs::wire::kFrameHeaderSize) return;
    if (need_ == 0) {
      size_t payload = 0;
      pbs::wire::InspectFrameHeader(header_, &payload);
      need_ = pbs::wire::kFrameHeaderSize + payload;
    }
    if (received_ >= need_) first_frame_ns_ = NowNs();
  }

  std::unique_ptr<pbs::ByteTransport> inner_;
  uint8_t header_[pbs::wire::kFrameHeaderSize] = {};
  size_t header_fill_ = 0;
  size_t received_ = 0;
  size_t need_ = 0;
  int64_t first_frame_ns_ = 0;
  int reads_ = 0;
};

std::unique_ptr<TimedTransport> Connect(uint16_t port, std::string* error) {
  auto tcp = pbs::TcpConnect(kHost, port, error);
  if (tcp == nullptr) return nullptr;
  return std::make_unique<TimedTransport>(std::move(tcp));
}

/// Connect() for a pump that waits in poll(2): the same TCP_NODELAY
/// socket TcpConnect opens, wrapped with MakeFdTransport so that its fd
/// stays known. Fills `*fd`.
std::unique_ptr<TimedTransport> ConnectPollable(uint16_t port, int* fd,
                                                std::string* error) {
  const int s = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (::connect(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(s);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *fd = s;
  return std::make_unique<TimedTransport>(pbs::MakeFdTransport(s));
}

/// An in-process ReconcileServer whose acceptor runs on its own thread,
/// plus the session-logger tallies the cross-check compares against.
class ServerHarness {
 public:
  ServerHarness() = default;
  ~ServerHarness() { Stop(); }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  void Start(const pbs::ServerOptions& options, Keys elements) {
    std::string error;
    server_ = pbs::ReconcileServer::Create(options, std::move(elements),
                                           &error);
    if (server_ == nullptr) throw std::runtime_error("server: " + error);
    server_->set_session_logger([this](const SessionResult& result) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!result.ok) {
        ++tally_.failed;
        return;
      }
      ++tally_.ok;
      ++tally_.ok_by_scheme[result.scheme];
      if (!result.outcome.success) ++tally_.scheme_failed;
    });
    thread_ = std::thread([this] { server_->Run(); });
  }

  void Stop() {
    if (server_ == nullptr) return;
    server_->Stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    tally_ = LoggerTally();
  }

  uint16_t port() const { return server_->port(); }
  LoggerTally tally() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tally_;
  }

  /// Waits (up to 10 s) until the server finished and logged every
  /// session the clients opened, then copies its stats() and tallies
  /// into `out` for the cross-check.
  void Collect(E2EResult* out) const {
    const int64_t deadline = NowNs() + int64_t{10} * 1000000000;
    for (;;) {
      out->stats = server_->stats();
      out->tally = tally();
      const uint64_t finished =
          out->stats.completed + out->stats.failed + out->stats.timed_out;
      if (finished >= out->client_sessions &&
          out->tally.ok + out->tally.failed >= out->client_sessions) {
        return;
      }
      if (NowNs() > deadline) {
        out->problems.push_back("server did not finish every session");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::unique_ptr<pbs::ReconcileServer> server_;
  mutable std::mutex mu_;
  LoggerTally tally_;
  std::thread thread_;
};

/// Process CPU time over a measurement window.
class CpuMeter {
 public:
  CpuMeter() : cpu0_(CpuSeconds()), wall0_(NowNs()) {}
  double Utilization() const {
    const double wall = static_cast<double>(NowNs() - wall0_) / 1e9;
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    return (CpuSeconds() - cpu0_) / (wall * static_cast<double>(cpus));
  }

 private:
  static double CpuSeconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) / 1e6;
  }
  double cpu0_;
  int64_t wall0_;
};

/// A = base - base[removed] + added; truth = the two sorted together.
/// `removed` holds distinct indices into base, `added` distinct keys
/// outside base.
void BuildSession(const Keys& base, std::vector<size_t> removed,
                  const Keys& added, SessionSpec* spec) {
  std::sort(removed.begin(), removed.end());
  auto a = std::make_shared<Keys>();
  a->reserve(base.size() - removed.size() + added.size());
  size_t next = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    if (next < removed.size() && removed[next] == i) {
      spec->truth.push_back(base[i]);
      ++next;
      continue;
    }
    a->push_back(base[i]);
  }
  a->insert(a->end(), added.begin(), added.end());
  spec->truth.insert(spec->truth.end(), added.begin(), added.end());
  std::sort(spec->truth.begin(), spec->truth.end());
  spec->a = std::move(a);
}

std::vector<size_t> DistinctIndices(Rng& rng, size_t count, size_t bound) {
  std::vector<size_t> out;
  for (uint64_t x : DistinctKeys(rng, count, 0, bound)) {
    out.push_back(static_cast<size_t>(x));
  }
  return out;
}

void FillRecord(const SessionSpec& spec, const SessionResult& result,
                int64_t t0, int64_t t1, const TimedTransport& transport,
                const std::vector<const Keys*>& concurrent,
                SessionRecord* rec) {
  const int64_t first_frame_ns = transport.first_frame_ns();
  rec->index = spec.index;
  rec->scheme = InternScheme(spec.config.scheme_name);
  rec->ok = result.ok;
  rec->success = result.ok && result.outcome.success;
  rec->estimated =
      spec.config.exact_d < 0.0 && spec.config.keyspace_shards < 2;
  rec->wall_ms = NsToMs(t1 - t0);
  rec->connect_ms = first_frame_ns > 0 ? NsToMs(first_frame_ns - t0) : 0.0;
  rec->feed_calls = transport.reads();
  rec->wire_bytes = result.outcome.wire_bytes;
  rec->data_bytes = result.outcome.data_bytes;
  rec->rounds = result.outcome.rounds;
  rec->diff_size = result.outcome.difference.size();
  rec->d_true = static_cast<double>(spec.truth.size());
  rec->d_hat = result.d_hat;
  if (rec->success) {
    rec->verdict =
        CheckDifference(result.outcome.difference, spec.truth, concurrent);
  }
}

void SampleThreads(E2EResult* out) {
  out->max_threads = std::max(out->max_threads, ThreadCount());
  out->max_connections =
      std::max(out->max_connections, g_max_connections.load());
}

/// One closed-loop client on the calling thread: connect, run the
/// blocking initiator driver to DONE, check, follow up a scheme failure,
/// repeat until `seconds` (or until the session log is full).
void RunBlockingLoop(const Workload& workload, uint16_t port, double seconds,
                     const std::function<std::vector<const Keys*>()>& live,
                     E2EResult* out) {
  const int64_t start = NowNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  int64_t generation = 0;
  for (size_t i = 0;
       NowNs() - start < budget + generation && !out->sessions.full(); ++i) {
    const int64_t g0 = NowNs();
    SessionSpec spec = workload.MakeSession(i);
    generation += NowNs() - g0;
    const int64_t op_t0 = NowNs();
    for (int attempt = 0;; ++attempt) {
      if (attempt > 0) spec.config = workload.FollowUp(spec, attempt);
      const int64_t t0 = NowNs();
      std::string error;
      auto transport = Connect(port, &error);
      if (transport == nullptr) throw std::runtime_error("connect: " + error);
      ++out->client_sessions;
      const SessionResult result =
          pbs::RunInitiatorSession(*transport, spec.config, *spec.a);
      const int64_t t1 = NowNs();
      SessionRecord rec;
      FillRecord(spec, result, t0, t1, *transport,
                 live ? live() : std::vector<const Keys*>(), &rec);
      transport.reset();
      rec.attempt = attempt;
      rec.last = !NeedsFollowUp(result, attempt);
      if (rec.last) rec.op_wall_ms = NsToMs(t1 - op_t0);
      out->sessions.Add(rec, result.error);
      SampleThreads(out);
      if (rec.last) break;
    }
  }
  out->generation_s = static_cast<double>(generation) / 1e9;
  out->wall_s = static_cast<double>(NowNs() - start - generation) / 1e9;
}

pbs::PbsConfig PaperPbsConfig(int sig_bits) {
  pbs::PbsConfig config;
  config.delta = 5;
  config.target_rounds = 3;
  config.max_rounds = 3;
  config.p0 = 0.99;
  config.sig_bits = sig_bits;
  return config;
}

const std::vector<pbs::UpdateBatch> kNoBatches;

// --------------------------------------------------------------- mono_1m --
// Monolithic PBS with the ToW estimate on, |A| ~ |B| ~ 10^6, d = 1000:
// the paper's unknown-d setting at the reference scale.
class MonoWorkload final : public Workload {
 public:
  MonoWorkload(uint64_t seed, bool small)
      : seed_(seed), n_(small ? 20000 : 1000000), d_(small ? 100 : 1000) {}

  const char* name() const override { return "mono_1m"; }
  int sig_bits() const override { return 32; }
  int server_shards() const override { return 1; }
  int client_threads() const override { return 1; }

  void Setup() override {
    Rng rng(DeriveSeed(seed_, kStreamBase, 0));
    base_ = std::make_shared<const Keys>(DistinctKeys(rng, n_, 1, kBaseHi32));
    pbs::ServerOptions options;
    options.shards = server_shards();
    server_.Start(options, *base_);
  }
  void Teardown() override { server_.Stop(); }

  SessionSpec MakeSession(size_t index) const override {
    Rng rng(DeriveSeed(seed_, kStreamSession, index));
    SessionSpec spec;
    spec.index = index;
    spec.config.scheme_name = "pbs";
    spec.config.options.pbs = PaperPbsConfig(32);
    spec.config.seed = rng.Next();
    spec.config.estimate_seed = rng.Next();
    const size_t removed = d_ / 2;
    BuildSession(*base_, DistinctIndices(rng, removed, n_),
                 DistinctKeys(rng, d_ - removed, kBaseHi32, kNewHi32), &spec);
    return spec;
  }

  // d is unknown, so a failed PBS session is run again from fresh seeds
  // (hash and estimate).
  pbs::SessionConfig FollowUp(const SessionSpec& spec,
                              int attempt) const override {
    Rng rng(DeriveSeed(seed_, kStreamFollowUp,
                       spec.index * (kMaxFollowUps + 1) +
                           static_cast<uint64_t>(attempt)));
    pbs::SessionConfig config = spec.config;
    config.seed = rng.Next();
    config.estimate_seed = rng.Next();
    return config;
  }

  void RunE2E(double seconds, E2EResult* out) override {
    SampleThreads(out);
    const CpuMeter cpu;
    RunBlockingLoop(*this, server_.port(), seconds, nullptr, out);
    out->cpu_util = cpu.Utilization();
    server_.Collect(out);
  }

  SessionEngine MakeResponder() const override {
    return SessionEngine::Responder(base_);
  }
  uint64_t BaseFingerprint() const override {
    Fingerprint fp;
    fp.AddAll(*base_);
    return fp.value();
  }

 private:
  uint64_t seed_;
  size_t n_;
  size_t d_;
  std::shared_ptr<const Keys> base_;
  ServerHarness server_;
};

// ----------------------------------------------------------- serve_small --
// |B| = 1024, four connections pumped from one client thread, every
// registered scheme, d log-uniform in [1, 64] and known: per-session
// fixed costs dominate.
class ServeSmallWorkload final : public Workload {
 public:
  static constexpr int kConnections = 4;

  explicit ServeSmallWorkload(uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "serve_small"; }
  int sig_bits() const override { return 32; }
  int server_shards() const override { return 2; }
  int client_threads() const override { return 1; }

  void Setup() override {
    Rng rng(DeriveSeed(seed_, kStreamBase, 0));
    base_ = std::make_shared<const Keys>(
        DistinctKeys(rng, kBaseSize, 1, kBaseHi32));
    schemes_ = pbs::SchemeRegistry::Instance().Names();
    std::sort(schemes_.begin(), schemes_.end());
    // Stratified: each block of (schemes x kDBands) consecutive sessions
    // holds every scheme once in every 1/kDBands quantile band of the
    // log-uniform d range, in a random order. Every session's scheme is
    // still uniform and its d still log-uniform, but the mix of heavy
    // sessions (which sets the run's cost and tail) varies far less
    // between seeds.
    const size_t cells = schemes_.size() * kDBands;
    pool_.assign(kPoolBlocks * cells, {});
    std::vector<size_t> order(cells);
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (i % cells == 0) {
        Rng strata(DeriveSeed(seed_, kStreamStrata, i / cells));
        for (size_t k = 0; k < cells; ++k) order[k] = k;
        for (size_t k = cells - 1; k > 0; --k) {
          std::swap(order[k], order[strata.Below(k + 1)]);
        }
      }
      Rng rng(DeriveSeed(seed_, kStreamSession, i));
      Draw& draw = pool_[i];
      const size_t cell = order[i % cells];
      draw.scheme = cell % schemes_.size();
      draw.seed = rng.Next();
      draw.estimate_seed = rng.Next();
      const double u =
          (static_cast<double>(cell / schemes_.size()) + rng.Unit()) / kDBands;
      const int d = Rng::LogUniformAt(u, 1, 64);
      const auto removed = static_cast<size_t>(rng.Below(d + 1));
      draw.removed = DistinctIndices(rng, removed, kBaseSize);
      draw.added = DistinctKeys(rng, d - removed, kBaseHi32, kNewHi32);
    }
    pbs::ServerOptions options;
    options.shards = server_shards();
    server_.Start(options, *base_);
  }
  void Teardown() override { server_.Stop(); }

  SessionSpec MakeSession(size_t index) const override {
    const Draw& draw = pool_[index % pool_.size()];
    SessionSpec spec;
    spec.index = index;
    spec.config.scheme_name = schemes_[draw.scheme];
    spec.config.options.pbs = PaperPbsConfig(32);
    spec.config.seed = draw.seed;
    spec.config.estimate_seed = draw.estimate_seed;
    spec.config.exact_d =
        static_cast<double>(draw.removed.size() + draw.added.size());
    // A deadline keeps a lost peer from wedging the non-blocking pump.
    spec.config.phase_deadline_ms = 10000;
    BuildSession(*base_, draw.removed, draw.added, &spec);
    return spec;
  }

  // d is known, so a failed session falls back to pinsketch, the last rung
  // of the library's own degradation ladder for sharded sessions
  // (graphene -> ddigest -> pinsketch): its BCH decode cannot fail when
  // the capacity is the exact d.
  pbs::SessionConfig FollowUp(const SessionSpec& spec,
                              int /*attempt*/) const override {
    pbs::SessionConfig config = spec.config;
    config.scheme_name = "pinsketch";
    return config;
  }

  void RunE2E(double seconds, E2EResult* out) override;

  SessionEngine MakeResponder() const override {
    return SessionEngine::Responder(base_);
  }
  uint64_t BaseFingerprint() const override {
    Fingerprint fp;
    fp.AddAll(*base_);
    return fp.value();
  }

 private:
  static constexpr size_t kBaseSize = 1024;
  static constexpr size_t kDBands = 8;
  // The session stream (kPoolBlocks strata blocks, 16400 sessions with
  // five schemes) is drawn up front and cycled if a run outlasts it: the
  // closed loop then does no input generation, and set-up time is steady
  // compute rather than microseconds of thread and socket start.
  static constexpr size_t kPoolBlocks = 410;

  struct Draw {
    size_t scheme = 0;
    uint64_t seed = 0;
    uint64_t estimate_seed = 0;
    std::vector<size_t> removed;
    Keys added;
  };

  struct Slot {
    std::unique_ptr<TimedTransport> transport;
    int fd = -1;            // The transport's socket, for poll(2).
    bool readable = false;  // poll(2) reported it ready.
    std::optional<SessionEngine> engine;
    SessionSpec spec;
    int attempt = 0;     // Session of the reconciliation now running.
    int64_t op_t0 = 0;   // The reconciliation's first connect.
    int64_t t0 = 0;      // This session's connect.
  };

  uint64_t seed_;
  std::shared_ptr<const Keys> base_;
  std::vector<std::string> schemes_;
  std::vector<Draw> pool_;
  ServerHarness server_;
};

void ServeSmallWorkload::RunE2E(double seconds, E2EResult* out) {
  SampleThreads(out);
  const CpuMeter cpu;
  const int64_t start = NowNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  int64_t generation = 0;
  size_t next_index = 0;
  std::vector<Slot> slots(kConnections);
  std::vector<uint8_t> buf(64 * 1024);
  std::vector<pollfd> waiting;
  std::vector<Slot*> waiting_slots;

  // Starts a session of `slot.spec` on a new connection.
  const auto connect = [&](Slot& slot) {
    slot.engine.reset();
    slot.transport.reset();
    slot.fd = -1;
    slot.readable = false;
    slot.t0 = NowNs();
    std::string error;
    slot.transport = ConnectPollable(server_.port(), &slot.fd, &error);
    if (slot.transport == nullptr) {
      throw std::runtime_error("connect: " + error);
    }
    ++out->client_sessions;
    slot.engine.emplace(SessionEngine::Initiator(slot.spec.config,
                                                 slot.spec.a));
  };
  // Opens the next reconciliation of the stream on `slot`, unless time is
  // up; then the slot goes idle.
  const auto open = [&](Slot& slot) {
    slot.engine.reset();
    slot.transport.reset();
    slot.fd = -1;
    if (NowNs() - start >= budget + generation || out->sessions.full()) return;
    const int64_t g0 = NowNs();
    slot.spec = MakeSession(next_index++);
    generation += NowNs() - g0;
    slot.attempt = 0;
    slot.op_t0 = NowNs();
    connect(slot);
  };

  // Services every slot until none can move, then sleeps in poll(2) until
  // a server frame arrives: the client thread never spins.
  for (Slot& slot : slots) open(slot);
  for (;;) {
    bool active = false;
    bool progress = false;
    for (Slot& slot : slots) {
      if (!slot.engine) continue;
      active = true;
      SessionEngine& engine = *slot.engine;
      switch (engine.Status()) {
        case SessionStatus::kWantWrite:
          if (slot.transport->Send(engine.outbound_data(),
                                   engine.outbound_size())) {
            engine.ConsumeOutbound(engine.outbound_size());
          } else {
            engine.FailTransport();
          }
          progress = true;
          break;
        case SessionStatus::kWantRead: {
          const size_t got = slot.transport->TryRecv(buf.data(), buf.size());
          if (got > 0) {
            engine.Feed(buf.data(), got);
            progress = true;
          } else if (slot.readable) {
            engine.FeedEof();  // Readable with nothing to read: EOF.
            progress = true;
          } else {
            engine.CheckDeadline();
          }
          slot.readable = false;
          break;
        }
        case SessionStatus::kDone:
        case SessionStatus::kError: {
          const int64_t t1 = NowNs();
          SessionRecord rec;
          FillRecord(slot.spec, engine.result(), slot.t0, t1, *slot.transport,
                     {}, &rec);
          rec.attempt = slot.attempt;
          rec.last = !NeedsFollowUp(engine.result(), slot.attempt);
          if (rec.last) rec.op_wall_ms = NsToMs(t1 - slot.op_t0);
          out->sessions.Add(rec, engine.result().error);
          if (out->sessions.size() % 512 == 1) SampleThreads(out);
          if (rec.last) {
            open(slot);
          } else {
            slot.spec.config = FollowUp(slot.spec, ++slot.attempt);
            connect(slot);
          }
          progress = true;
          break;
        }
      }
    }
    if (!active) break;
    if (progress) continue;
    waiting.clear();
    waiting_slots.clear();
    for (Slot& slot : slots) {
      if (slot.engine && slot.engine->Status() == SessionStatus::kWantRead) {
        waiting.push_back({slot.fd, POLLIN, 0});
        waiting_slots.push_back(&slot);
      }
    }
    // The bound lets CheckDeadline fire for a peer that went silent.
    const int ready = ::poll(waiting.data(), waiting.size(), 100);
    for (size_t i = 0; ready > 0 && i < waiting.size(); ++i) {
      waiting_slots[i]->readable = waiting[i].revents != 0;
    }
  }
  out->generation_s = static_cast<double>(generation) / 1e9;
  out->wall_s = static_cast<double>(NowNs() - start - generation) / 1e9;
  out->cpu_util = cpu.Utilization();
  if (next_index > pool_.size()) {
    std::printf("note: %zu sessions ran; the pre-drawn stream of %zu "
                "sessions cycled\n",
                next_index, pool_.size());
  }
  server_.Collect(out);
}

// ------------------------------------------------------- live_sharded_1m --
// A live store of ~10^6 48-bit keys (PBS layout + 64-shard checksums),
// one closed-loop sharded sync client whose differences sit in 4 hot
// shards, and one open-loop writer inserting then deleting keys in those
// same shards.
class LiveWorkload final : public Workload {
 public:
  static constexpr int kKeyspaceShards = 64;
  static constexpr int kHotShards = 4;
  static constexpr int kSigBits = 48;
  // The writer's rate is set so that its publishes take a fixed share of
  // the one server shard the sync sessions also run on: kApplyShare at
  // kApplyMs per MutableElementStore::Apply, the store.apply_ms this
  // benchmark measured at 10^6 keys when it was written (4-vCPU x86-64
  // host). That is 131.6 batches/s. The share is fixed, not re-measured
  // per run, so a faster Apply shows as a lower share and a shorter
  // session tail rather than as more load.
  static constexpr double kApplyShare = 0.10;
  static constexpr double kApplyMs = 0.76;
  static constexpr double kWriterRate = kApplyShare * 1000.0 / kApplyMs;
  // Batch size: at 357 ns per incremental update (BENCH_pbs.json row
  // mutable_churn_updates, incremental path, 10^6 keys) 32 keys cost
  // 11 us, 1.5% of an Apply, so Apply time is the publish path.
  // A batch is also under a third of the smallest session d (100), so a
  // batch a session sees in flight does not change its size class.
  static constexpr size_t kWriterBatchKeys = 32;
  static constexpr int kStrata = 8;

  LiveWorkload(uint64_t seed, bool small)
      : seed_(seed),
        n_(small ? 50000 : 1000000),
        d_lo_(small ? 10 : 100),
        d_hi_(small ? 400 : 4000) {}

  const char* name() const override { return "live_sharded_1m"; }
  int sig_bits() const override { return kSigBits; }
  int server_shards() const override { return 1; }
  int client_threads() const override { return 2; }

  void Setup() override {
    Rng rng(DeriveSeed(seed_, kStreamBase, 0));
    auto base = std::make_shared<Keys>(DistinctKeys(rng, n_, 1, kBaseHi48));
    store_seed_ = DeriveSeed(seed_, kStreamStore, 0);
    plan_ = pbs::sync::ShardPlan::Derive(kKeyspaceShards, store_seed_);
    Rng hot_rng(DeriveSeed(seed_, kStreamStore, 1));
    hot_.clear();
    for (uint64_t s : DistinctKeys(hot_rng, kHotShards, 0, kKeyspaceShards)) {
      hot_.push_back(static_cast<uint32_t>(s));
    }
    std::vector<uint64_t> shard_of(base->size());
    plan_.ShardOfMany(base->data(), base->size(), shard_of.data());
    hot_index_.assign(kHotShards, {});
    for (size_t i = 0; i < base->size(); ++i) {
      const int h = HotSlot(static_cast<uint32_t>(shard_of[i]));
      if (h >= 0) hot_index_[static_cast<size_t>(h)].push_back(i);
    }
    base_ = base;

    store_ = std::make_shared<pbs::MutableElementStore>(*base_);
    std::string error;
    if (!store_->ConfigureLayout(PaperPbsConfig(kSigBits), store_seed_,
                                 /*d_used=*/100, &error) ||
        !store_->ConfigureShardChecksums(kKeyspaceShards, store_seed_,
                                         &error)) {
      throw std::runtime_error("store: " + error);
    }
    pbs::ServerOptions options;
    options.shards = server_shards();
    options.mutable_store = store_;
    options.keyspace_shards = kKeyspaceShards;
    server_.Start(options, {});
  }
  void Teardown() override { server_.Stop(); }

  SessionSpec MakeSession(size_t index) const override {
    Rng rng(DeriveSeed(seed_, kStreamSession, index));
    SessionSpec spec;
    spec.index = index;
    spec.config = SyncConfig();
    spec.config.estimate_seed = rng.Next();
    // Stratified: each block of kStrata consecutive sessions draws one d
    // from each 1/kStrata quantile band of the log-uniform range, in a
    // random order. Every session's d is still log-uniform, but a run's
    // mean d (which sets its mean cost) varies far less between seeds.
    Rng strata(DeriveSeed(seed_, kStreamStrata, index / kStrata));
    std::vector<int> band(kStrata);
    for (int k = 0; k < kStrata; ++k) band[static_cast<size_t>(k)] = k;
    for (int k = kStrata - 1; k > 0; --k) {
      std::swap(band[static_cast<size_t>(k)],
                band[strata.Below(static_cast<uint64_t>(k) + 1)]);
    }
    const double u = (band[index % kStrata] + rng.Unit()) / kStrata;
    const int d = Rng::LogUniformAt(u, d_lo_, d_hi_);
    const size_t removed = static_cast<size_t>(d) / 2;
    std::set<size_t> picks;
    while (picks.size() < removed) {
      const auto& shard = hot_index_[rng.Below(kHotShards)];
      picks.insert(shard[rng.Below(shard.size())]);
    }
    BuildSession(*base_, std::vector<size_t>(picks.begin(), picks.end()),
                 HotKeys(rng, static_cast<size_t>(d) - removed, kBaseHi48,
                         kNewHi48),
                 &spec);
    return spec;
  }

  // The seed stays the store's, so the leaves are still adopted; only the
  // estimate seed is fresh. (Each shard already has its own retry ladder
  // and scheme degradation inside the session.)
  pbs::SessionConfig FollowUp(const SessionSpec& spec,
                              int attempt) const override {
    Rng rng(DeriveSeed(seed_, kStreamFollowUp,
                       spec.index * (kMaxFollowUps + 1) +
                           static_cast<uint64_t>(attempt)));
    pbs::SessionConfig config = spec.config;
    config.estimate_seed = rng.Next();
    return config;
  }

  void RunE2E(double seconds, E2EResult* out) override;

  SessionEngine MakeResponder() const override {
    pbs::SessionConfig local;
    local.keyspace_shards = kKeyspaceShards;
    return SessionEngine::Responder(local, store_->snapshot(), store_);
  }
  uint64_t BaseFingerprint() const override {
    Fingerprint fp;
    fp.AddAll(*base_);
    for (uint32_t h : hot_) fp.Add(h);
    fp.Add(store_seed_);
    return fp.value();
  }
  const std::vector<pbs::UpdateBatch>& writer_batches() const override {
    return batches_;
  }
  std::shared_ptr<pbs::MutableElementStore> store() const override {
    return store_;
  }

 private:
  pbs::SessionConfig SyncConfig() const {
    pbs::SessionConfig config;
    config.scheme_name = "pbs";
    config.options.sig_bits = kSigBits;
    config.options.pbs = PaperPbsConfig(kSigBits);
    config.seed = store_seed_;  // The store's seed: leaves are adopted.
    config.keyspace_shards = kKeyspaceShards;
    return config;
  }

  int HotSlot(uint32_t shard) const {
    for (size_t h = 0; h < hot_.size(); ++h) {
      if (hot_[h] == shard) return static_cast<int>(h);
    }
    return -1;
  }

  // `count` distinct keys from [lo, hi) owned by the hot shards, sorted.
  Keys HotKeys(Rng& rng, size_t count, uint64_t lo, uint64_t hi) const {
    std::set<uint64_t> keys;
    while (keys.size() < count) {
      const uint64_t key = lo + rng.Below(hi - lo);
      if (HotSlot(plan_.ShardOf(key)) >= 0) keys.insert(key);
    }
    return Keys(keys.begin(), keys.end());
  }

  // Batch 2p inserts writer key set p, batch 2p+1 deletes it again.
  void MakeBatches(size_t count) {
    batches_.assign(count, {});
    Rng rng(DeriveSeed(seed_, kStreamWriter, 0));
    for (size_t p = 0; 2 * p + 1 < count; ++p) {
      batches_[2 * p].inserts =
          HotKeys(rng, kWriterBatchKeys, kNewHi48, kWriterHi48);
      batches_[2 * p + 1].deletes = batches_[2 * p].inserts;
    }
  }

  /// What the writer thread reports back; merged after it is joined.
  struct WriterOut {
    std::vector<UpdateRecord> updates;
    double update_wall_s = 0.0;
    bool connected = false;
    bool ok = false;
    std::string error;
  };
  void WriterLoop(int64_t start, WriterOut* out);

  uint64_t seed_;
  size_t n_;
  int d_lo_;
  int d_hi_;
  uint64_t store_seed_ = 0;
  pbs::sync::ShardPlan plan_;
  std::vector<uint32_t> hot_;
  std::vector<std::vector<size_t>> hot_index_;
  std::shared_ptr<const Keys> base_;
  std::shared_ptr<pbs::MutableElementStore> store_;
  std::vector<pbs::UpdateBatch> batches_;
  std::atomic<size_t> batches_sent_{0};
  ServerHarness server_;
};

// Open loop: batch k is due at start + k / rate whatever happened to
// batch k-1, and its latency runs from that due time to its UPDATE_ACK.
void LiveWorkload::WriterLoop(int64_t start, WriterOut* out) {
  auto transport = Connect(server_.port(), &out->error);
  if (transport == nullptr) return;
  out->connected = true;
  SessionEngine engine = SessionEngine::Updater(batches_);
  const auto period = static_cast<int64_t>(1e9 / kWriterRate);
  std::vector<uint8_t> buf;
  size_t next = 0;
  bool awaiting_ack = false;
  int64_t last_ack = start;
  out->updates.assign(batches_.size(), {});
  for (;;) {
    const SessionStatus status = engine.Status();
    if (status == SessionStatus::kWantWrite) {
      const bool is_update =
          engine.outbound_data()[5] ==
          static_cast<uint8_t>(pbs::wire::FrameType::kUpdate);
      int64_t due = 0;
      if (is_update) {
        due = start + static_cast<int64_t>(next) * period;
        const int64_t wait = due - NowNs();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        out->updates[next].lag_ms = NsToMs(NowNs() - due);
      }
      if (!transport->Send(engine.outbound_data(), engine.outbound_size())) {
        engine.FailTransport();
        continue;
      }
      engine.ConsumeOutbound(engine.outbound_size());
      if (is_update) {
        batches_sent_.store(++next);
        awaiting_ack = true;
      }
    } else if (status == SessionStatus::kWantRead) {
      const size_t need = engine.NeededBytes();
      buf.resize(need);
      if (!transport->Recv(buf.data(), need)) {
        engine.FeedEof();
        continue;
      }
      engine.Feed(buf.data(), need);
      if (awaiting_ack && engine.Status() != SessionStatus::kWantRead) {
        const int64_t now = NowNs();
        const size_t k = next - 1;
        UpdateRecord& rec = out->updates[k];
        rec.latency_ms =
            NsToMs(now - (start + static_cast<int64_t>(k) * period));
        rec.ok = engine.Status() != SessionStatus::kError;
        awaiting_ack = false;
        last_ack = now;
      }
    } else {
      break;
    }
  }
  const SessionResult& result = engine.result();
  out->ok = result.ok;
  if (!result.ok) out->error = "writer: " + result.error;
  out->update_wall_s = static_cast<double>(last_ack - start) / 1e9;
  out->updates.resize(next);
}

void LiveWorkload::RunE2E(double seconds, E2EResult* out) {
  WriterOut writer_out;
  MakeBatches(2 * std::max<size_t>(1, static_cast<size_t>(std::lround(
                                          kWriterRate * seconds / 2.0))));
  batches_sent_.store(0);
  SampleThreads(out);
  const CpuMeter cpu;
  const int64_t start = NowNs();
  std::thread writer([&] {
    try {
      WriterLoop(start, &writer_out);
    } catch (const std::exception& e) {
      writer_out.error = std::string("writer: ") + e.what();
    }
  });
  const auto in_flight = [this] {
    std::vector<const Keys*> live;
    const size_t sent = batches_sent_.load();
    for (size_t k = 0; k < sent; k += 2) live.push_back(&batches_[k].inserts);
    return live;
  };
  try {
    RunBlockingLoop(*this, server_.port(), seconds, in_flight, out);
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  out->cpu_util = cpu.Utilization();
  if (!writer_out.error.empty()) out->problems.push_back(writer_out.error);
  out->updates = std::move(writer_out.updates);
  out->update_wall_s = writer_out.update_wall_s;
  // The writer's own session, for the server cross-check.
  if (writer_out.connected) {
    ++out->client_sessions;
    SessionRecord rec;
    rec.scheme = kUpdateScheme;
    rec.ok = writer_out.ok;
    rec.success = writer_out.ok;
    rec.verdict = Verdict::kExact;
    out->sessions.Add(rec, writer_out.error);
  }
  server_.Collect(out);
}

}  // namespace

const char* const kUpdateScheme = "(update)";

bool NeedsFollowUp(const pbs::SessionResult& result, int attempt) {
  return result.ok && !result.outcome.success && attempt < kMaxFollowUps;
}

const char* InternScheme(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

void SessionLog::Allocate() {
  records_.assign(kCapacity, SessionRecord());
  // Write every page, so the buffer is resident before anything is timed.
  for (size_t i = 0; i < records_.size(); ++i) records_[i].index = i;
  size_ = 0;
  errors_.clear();
  errors_.reserve(kErrorsKept);
}

void SessionLog::Add(const SessionRecord& rec, const std::string& error) {
  if (size_ >= records_.size()) throw std::runtime_error("session log full");
  records_[size_++] = rec;
  if (!rec.ok && errors_.size() < kErrorsKept) {
    errors_.push_back("session " + std::to_string(rec.index) + " (" +
                      rec.scheme + ") error: " + error);
  }
}

uint64_t Workload::StreamFingerprint() const {
  Fingerprint fp;
  for (size_t i = 0; i < kFingerprintSessions; ++i) {
    const SessionSpec spec = MakeSession(i);
    for (char c : spec.config.scheme_name) fp.Add(static_cast<uint8_t>(c));
    fp.Add(spec.config.seed);
    fp.Add(spec.config.estimate_seed);
    fp.Add(static_cast<uint64_t>(spec.config.exact_d + 1.0));
    fp.AddAll(spec.truth);
    fp.Add(spec.a->size());
  }
  return fp.value();
}

const std::vector<pbs::UpdateBatch>& Workload::writer_batches() const {
  return kNoBatches;
}

std::vector<std::string> WorkloadNames() {
  return {"mono_1m", "serve_small", "live_sharded_1m"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small) {
  if (name == "mono_1m") return std::make_unique<MonoWorkload>(seed, small);
  if (name == "serve_small") return std::make_unique<ServeSmallWorkload>(seed);
  if (name == "live_sharded_1m") {
    return std::make_unique<LiveWorkload>(seed, small);
  }
  return nullptr;
}

void CrossCheck(E2EResult* result) {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t scheme_failed = 0;
  std::map<std::string, uint64_t> ok_by_scheme;
  for (const SessionRecord& rec : result->sessions) {
    if (rec.ok) {
      ++ok;
      ++ok_by_scheme[rec.scheme];
      if (!rec.success) ++scheme_failed;
    } else {
      ++failed;
    }
  }
  auto expect = [result](const char* what, uint64_t client, uint64_t server) {
    if (client == server) return;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "cross-check %s: client %llu != server %llu", what,
                  static_cast<unsigned long long>(client),
                  static_cast<unsigned long long>(server));
    result->problems.push_back(line);
  };
  const pbs::ServerStats& s = result->stats;
  const LoggerTally& t = result->tally;
  expect("accepted", result->client_sessions, s.accepted);
  expect("completed", ok, s.completed);
  expect("failed", failed, s.failed + s.timed_out);
  expect("rejected", 0, s.rejected_capacity);
  expect("logger ok", ok, t.ok);
  expect("logger failed", failed, t.failed);
  expect("logger scheme failures", scheme_failed, t.scheme_failed);
  for (const auto& [scheme, count] : ok_by_scheme) {
    if (scheme == kUpdateScheme) continue;
    const auto it = s.completed_by_scheme.find(scheme);
    expect(("completed " + scheme).c_str(), count,
           it == s.completed_by_scheme.end() ? 0 : it->second);
    const auto jt = t.ok_by_scheme.find(scheme);
    expect(("logger ok " + scheme).c_str(), count,
           jt == t.ok_by_scheme.end() ? 0 : jt->second);
  }
  if (result->max_connections > 4) {
    result->problems.push_back("more than 4 concurrent client connections");
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (result->max_threads > 4 || result->max_threads > nproc) {
    result->problems.push_back("more threads than min(4, nproc)");
  }
}

}  // namespace pbsbench
