// pbsbench: the repository benchmark. One command runs one named workload
// from a seed against an in-process ReconcileServer on the loopback
// interface, checks every recovered difference, and prints every metric
// by name with its unit; the last stdout line is one JSON object.
//
//   pbsbench --workload mono_1m|serve_small|live_sharded_1m --seed N
//            --seconds S --trace 0|1
//   pbsbench --selftest
//
// --trace 0 prints the end-to-end metrics (measured untraced); --trace 1
// runs the same end-to-end loop for the net/server/writer rows, then
// pumps the same session list through in-process SessionEngine pairs
// with a span around every Feed/Poll call and prints the per-layer
// metrics with the closure check. METRICS.md maps each per-layer metric
// to the end-to-end metric and workload it should move.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "pbs/estimator/tow.h"
#include "trace.h"
#include "workloads.h"

namespace pbsbench {
namespace {

// Set-up is repeated at least kMinSetups times and until kSetupBudgetS
// of set-up has run (at most kMaxSetups times); its median is reported.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.0;

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool IsSync(const SessionRecord& rec) { return rec.scheme != kUpdateScheme; }

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const RunResult& run) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------ end-to-end report --

struct SchemeTally {
  uint64_t attempted = 0;
  uint64_t correct = 0;
  uint64_t scheme_failed = 0;
  uint64_t errors = 0;
};

std::map<std::string, SchemeTally> TallyBySchemes(const E2EResult& e2e) {
  std::map<std::string, SchemeTally> by;
  for (const SessionRecord& rec : e2e.sessions) {
    if (!IsSync(rec)) continue;
    SchemeTally& t = by[rec.scheme];
    ++t.attempted;
    if (!rec.ok) {
      ++t.errors;
    } else if (!rec.success) {
      ++t.scheme_failed;
    } else if (rec.verdict != Verdict::kWrong) {
      ++t.correct;
    }
  }
  return by;
}

// Prints the end-to-end report and fills `run` (attempted/failed and,
// unless `metrics` is null, the end-to-end metrics). `peak_rss_mb` is
// read before the report allocates anything of its own.
//
// The end-to-end metrics count reconciliations: a session plus the
// follow-ups its scheme failures needed, so those failures cost time,
// bytes and rounds there. failed_ratio and the per-scheme table count
// single sessions.
void ReportE2E(const Workload& w, const E2EResult& e2e, double setup_s,
               double peak_rss_mb, RunResult* run,
               std::vector<Metric>* metrics) {
  std::vector<double> walls;  // Per reconciliation.
  double wire = 0.0;
  double rounds = 0.0;
  double data_bytes = 0.0;
  double ideal_bytes = 0.0;
  uint64_t sessions = 0;
  uint64_t sessions_failed = 0;  // Errors, timeouts and scheme failures.
  uint64_t follow_ups = 0;
  uint64_t ops = 0;
  uint64_t correct = 0;
  uint64_t wrong = 0;
  uint64_t concurrent = 0;
  for (const SessionRecord& rec : e2e.sessions) {
    if (!IsSync(rec)) continue;
    ++sessions;
    if (rec.attempt > 0) ++follow_ups;
    if (!rec.ok || !rec.success) ++sessions_failed;
    if (rec.ok) {
      wire += static_cast<double>(rec.wire_bytes);
      rounds += rec.rounds;
      data_bytes += static_cast<double>(rec.data_bytes);
    }
    if (!rec.last) continue;
    ++ops;
    walls.push_back(rec.op_wall_ms);
    if (!rec.success) continue;
    if (rec.verdict == Verdict::kWrong) {
      ++wrong;
      std::printf("WRONG DIFFERENCE: session %zu (%s) recovered %zu, "
                  "truth %.0f\n",
                  rec.index, rec.scheme, rec.diff_size, rec.d_true);
      continue;
    }
    if (rec.verdict == Verdict::kConcurrent) ++concurrent;
    ++correct;
    ideal_bytes += static_cast<double>(rec.diff_size) * w.sig_bits() / 8.0;
  }
  const uint64_t failed = ops - correct - wrong;
  for (const std::string& error : e2e.sessions.errors()) {
    std::printf("%s\n", error.c_str());
  }
  std::printf("reconciliations: attempted=%llu correct=%llu "
              "(of which saw a concurrent write batch: %llu) "
              "failed=%llu wrong=%llu; sessions %llu, of which follow-ups "
              "after a scheme failure %llu (at most %d per reconciliation)\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(correct),
              static_cast<unsigned long long>(concurrent),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(follow_ups), kMaxFollowUps);
  std::printf("failed_ratio %.6f ratio (sessions with an error, timeout or "
              "scheme failure / sessions)\n",
              sessions > 0 ? static_cast<double>(sessions_failed) / sessions
                           : 0.0);
  std::printf("  %-14s %10s %10s %14s %8s %12s\n", "scheme", "attempted",
              "correct", "scheme_failed", "errors", "failed_ratio");
  for (const auto& [scheme, t] : TallyBySchemes(e2e)) {
    std::printf("  %-14s %10llu %10llu %14llu %8llu %12.6f\n", scheme.c_str(),
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.correct),
                static_cast<unsigned long long>(t.scheme_failed),
                static_cast<unsigned long long>(t.errors),
                static_cast<double>(t.attempted - t.correct) / t.attempted);
  }
  // Scheme failures by true difference size, where small d is hardest
  // for the probabilistic schemes.
  std::map<std::string, std::array<std::pair<uint64_t, uint64_t>, 3>> bands;
  for (const SessionRecord& rec : e2e.sessions) {
    if (!IsSync(rec)) continue;
    const size_t band = rec.d_true <= 4 ? 0 : rec.d_true <= 16 ? 1 : 2;
    auto& cell = bands[rec.scheme][band];
    ++cell.second;
    if (!rec.success) ++cell.first;
  }
  std::printf("  %-42s %-13s%-13s%-13s\n", "failed/attempted by true d",
              " d<=4", " 5<=d<=16", " d>16");
  for (const auto& [scheme, cells] : bands) {
    std::printf("  %-42s", scheme.c_str());
    for (const auto& [bad, all] : cells) {
      std::printf(" %5llu/%-6llu", static_cast<unsigned long long>(bad),
                  static_cast<unsigned long long>(all));
    }
    std::printf("\n");
  }
  const Tail tail = TailOf(walls);
  std::printf("session_tail_ms is %s\n", DescribeTail(tail).c_str());

  // The open-loop writer (live_sharded_1m only).
  uint64_t updates_ok = 0;
  uint64_t updates_failed = 0;
  if (!e2e.updates.empty()) {
    std::vector<double> latency;
    std::vector<double> lag;
    for (const UpdateRecord& u : e2e.updates) {
      (u.ok ? updates_ok : updates_failed) += 1;
      latency.push_back(u.latency_ms);
      lag.push_back(u.lag_ms);
    }
    const Tail utail = TailOf(latency);
    std::printf("writer (open loop): batches=%zu ok=%llu failed=%llu\n",
                e2e.updates.size(),
                static_cast<unsigned long long>(updates_ok),
                static_cast<unsigned long long>(updates_failed));
    std::printf("  %-40s %16.6f %s\n", "updates_per_s",
                e2e.update_wall_s > 0 ? updates_ok / e2e.update_wall_s : 0.0,
                "1/s");
    std::printf("  %-40s %16.6f %s\n", "update_p50_ms", Median(latency), "ms");
    std::printf("  %-40s %16.6f %s (%s)\n", "update_tail_ms", utail.value,
                "ms", DescribeTail(utail).c_str());
    std::printf("  %-40s %16.6f %s (median; max %.3f)\n",
                "update_generator_lag_ms", Median(lag), "ms",
                *std::max_element(lag.begin(), lag.end()));
  }

  run->attempted = ops + e2e.updates.size();
  run->failed = failed + updates_failed;
  if (wrong > 0) run->correct = false;
  if (metrics == nullptr) return;
  const double per_op = ops > 0 ? static_cast<double>(ops) : 1.0;
  *metrics = {
      {"sessions_per_s", e2e.wall_s > 0 ? correct / e2e.wall_s : 0.0, "1/s"},
      {"session_p50_ms", Median(walls), "ms"},
      {"session_tail_ms", tail.value, "ms"},
      {"wire_bytes_per_session", wire / per_op, "B"},
      {"comm_overhead", ideal_bytes > 0 ? data_bytes / ideal_bytes : 0.0,
       "ratio"},
      {"rounds_per_session", rounds / per_op, "count"},
      {"attempts_per_session", static_cast<double>(sessions) / per_op,
       "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

void ReportServer(const E2EResult& e2e) {
  const pbs::ServerStats& s = e2e.stats;
  std::printf("server stats(): accepted=%llu completed=%llu failed=%llu "
              "timed-out=%llu rejected=%llu in=%lluB out=%lluB\n",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.timed_out),
              static_cast<unsigned long long>(s.rejected_capacity),
              static_cast<unsigned long long>(s.bytes_in),
              static_cast<unsigned long long>(s.bytes_out));
  std::printf("session logger: ok=%llu failed=%llu scheme-failed=%llu\n",
              static_cast<unsigned long long>(e2e.tally.ok),
              static_cast<unsigned long long>(e2e.tally.failed),
              static_cast<unsigned long long>(e2e.tally.scheme_failed));
  std::printf("threads: peak %d in process (cap 4, nproc %ld); client "
              "connections: peak %d (cap 4)\n",
              e2e.max_threads, sysconf(_SC_NPROCESSORS_ONLN),
              e2e.max_connections);
  std::printf("process cpu_util %.4f over %.3f s of measurement "
              "(%.3f s client input generation excluded)\n",
              e2e.cpu_util, e2e.wall_s, e2e.generation_s);
  if (e2e.problems.empty()) {
    std::printf("cross-check: client tallies == server stats() == session "
                "logger: ok\n");
  }
  for (const std::string& p : e2e.problems) {
    std::printf("CROSS-CHECK FAILED: %s\n", p.c_str());
  }
}

// ------------------------------------------------------------ traced run --

double PerSession(double total, size_t sessions) {
  return sessions > 0 ? total / static_cast<double>(sessions) : 0.0;
}

void RunTraced(Workload& w, const E2EResult& e2e, double seconds,
               RunResult* run) {
  std::map<size_t, const SessionRecord*> e2e_by_index;
  for (const SessionRecord& rec : e2e.sessions) {
    if (IsSync(rec) && rec.attempt == 0) e2e_by_index[rec.index] = &rec;
  }
  std::array<double, static_cast<size_t>(Layer::kCount)> layer_ms{};
  // Self time per (role, fed op, queued op): the raw tags behind each layer.
  std::map<std::tuple<Role, uint8_t, uint8_t>, double> tag_ms;
  std::map<std::string, std::pair<double, size_t>> scheme_ms;
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
  double frames = 0.0;
  double frame_bytes = 0.0;
  double net_overhead_ms = 0.0;
  double tow_ns = 0.0;
  double tow_elements = 0.0;
  double plan_ms = 0.0;
  int plan_calls = 0;
  double differing = 0.0;
  double attempts = 0.0;
  size_t sharded = 0;
  size_t skipped = 0;
  size_t traced = 0;
  uint64_t wrong = 0;
  const ResponderFactory responder = [&w] { return w.MakeResponder(); };
  const int64_t start = NowNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  std::vector<Span> spans;
  for (const auto& [index, rec] : e2e_by_index) {
    if (traced > 0 && NowNs() - start > budget) break;
    const SessionSpec spec = w.MakeSession(index);
    spans.clear();
    PumpOutcome plain;
    PumpOutcome timed;
    // Alternate which pump runs first so warm-cache effects cancel.
    if (traced % 2 == 0) {
      plain = PumpSession(spec, responder, nullptr);
      timed = PumpSession(spec, responder, &spans);
    } else {
      timed = PumpSession(spec, responder, &spans);
      plain = PumpSession(spec, responder, nullptr);
    }
    for (const PumpOutcome* p : {&plain, &timed}) {
      if (p->result.ok && p->result.outcome.success &&
          CheckDifference(p->result.outcome.difference, spec.truth, {}) ==
              Verdict::kWrong) {
        ++wrong;
      }
    }
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      layer_ms[static_cast<size_t>(span.layer)] += NsToMs(self[i]);
      if (span.parent >= 0 && span.layer != Layer::kBenchAnalysis) {
        tag_ms[{span.role, span.in_op, span.out_op}] += NsToMs(self[i]);
      }
    }
    const double wall = NsToMs(timed.wall_ns);
    traced_ms += wall;
    untraced_ms += NsToMs(plain.wall_ns);
    auto& by = scheme_ms[spec.config.scheme_name];
    by.first += wall;
    by.second += 1;
    frames += timed.frames;
    frame_bytes += static_cast<double>(timed.frame_bytes);
    net_overhead_ms += rec->wall_ms - wall;
    if (spec.config.keyspace_shards >= 2) {
      ++sharded;
      if (!timed.estimate_ran) ++skipped;
      differing += timed.differing_shards;
      attempts += timed.shard_attempts;
    }
    // Replays: the bench calls the layer function itself on the
    // session's own inputs. Kept out of the closure sum.
    if (timed.estimate_ran && spec.config.keyspace_shards < 2) {
      pbs::TowSketch sketch(spec.config.options.pbs.ell,
                            spec.config.estimate_seed);
      const int64_t t0 = NowNs();
      sketch.AddAll(*spec.a);
      tow_ns += static_cast<double>(NowNs() - t0);
      tow_elements += static_cast<double>(spec.a->size());
    }
    const int64_t p0 = NowNs();
    for (const PlanUse& use : timed.plans) {
      plan_calls += ReplayPlan(spec.config.options, use);
    }
    plan_ms += NsToMs(NowNs() - p0);
    ++traced;
  }

  // Replayed store publishes: the writer's batches applied in order
  // (insert/delete pairs, so the store ends where it started).
  // The bytes each Apply allocates on this thread show the copies its
  // publish path makes (a full snapshot of the set, today).
  double apply_ms = 0.0;
  double alloc_bytes = 0.0;
  size_t applied = 0;
  if (auto store = w.store()) {
    const auto& batches = w.writer_batches();
    const size_t count = std::min<size_t>(batches.size() & ~size_t{1}, 200);
    for (size_t j = 0; j < count; ++j) {
      const uint64_t a0 = ThreadAllocatedBytes();
      const int64_t t0 = NowNs();
      store->Apply(batches[j]);
      apply_ms += NsToMs(NowNs() - t0);
      alloc_bytes += static_cast<double>(ThreadAllocatedBytes() - a0);
      ++applied;
    }
  }

  const size_t n = traced;
  double attributed = 0.0;
  for (size_t l = 0; l < layer_ms.size(); ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kSession && layer != Layer::kBenchAnalysis) {
      attributed += layer_ms[l];
    }
  }
  const double unattributed = layer_ms[static_cast<size_t>(Layer::kSession)];
  const double overhead_pct =
      untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms : 0.0;

  std::printf("\ntraced run: %zu of %zu sessions pumped in-process "
              "(initiator + responder SessionEngine, no sockets)\n",
              n, e2e_by_index.size());
  PrintLayerMap();
  std::printf("per-layer self time (ms/session, share of traced wall):\n");
  for (size_t l = 0; l < layer_ms.size(); ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kBenchAnalysis) continue;
    std::printf("  %-28s %12.4f  %6.2f%%\n", LayerName(layer),
                PerSession(layer_ms[l], n),
                traced_ms > 0 ? 100.0 * layer_ms[l] / traced_ms : 0.0);
  }
  std::printf("spans by tag (ms/session): role, fed op -> queued op => "
              "layer\n");
  for (const auto& [tag, ms] : tag_ms) {
    const auto& [role, in_op, out_op] = tag;
    std::printf("  %-9s %-14s -> %-14s %12.4f  => %s\n",
                role == Role::kInitiator ? "initiator" : "responder",
                OpName(in_op), out_op == kOpNone ? "(nothing)" : OpName(out_op),
                PerSession(ms, n),
                LayerName(ClassifyCall(role, in_op, out_op)));
  }
  std::printf("closure: traced session wall %.4f ms/session = spans %.4f + "
              "unattributed %.4f (%.3f%%)\n",
              PerSession(traced_ms, n), PerSession(attributed, n),
              PerSession(unattributed, n),
              traced_ms > 0 ? 100.0 * unattributed / traced_ms : 0.0);
  std::printf("tracing overhead: traced %.4f vs untraced %.4f ms/session "
              "(%+.3f%%)\n",
              PerSession(traced_ms, n), PerSession(untraced_ms, n),
              overhead_pct);
  std::printf("replayed spans (not in the closure sum): TowSketch::AddAll "
              "%.0f elements, PlanFor %d calls, MutableElementStore::Apply "
              "%zu batches\n",
              tow_elements, plan_calls, applied);

  std::vector<double> dhat;
  std::vector<double> dhat_error;
  for (const SessionRecord& rec : e2e.sessions) {
    if (IsSync(rec) && rec.ok && rec.estimated && rec.d_true > 0) {
      dhat.push_back(rec.d_hat / rec.d_true);
      dhat_error.push_back(std::fabs(dhat.back() - 1.0));
    }
  }
  if (!dhat.empty()) {
    std::printf("estimator d-hat/d over %zu sessions: quartiles %.4f / "
                "%.4f / %.4f\n",
                dhat.size(), Quantile(dhat, 0.25), Median(dhat),
                Quantile(dhat, 0.75));
  }
  std::vector<double> updates;
  std::vector<double> lags;
  uint64_t updates_ok = 0;
  for (const UpdateRecord& u : e2e.updates) {
    updates.push_back(u.latency_ms);
    lags.push_back(u.lag_ms);
    if (u.ok) ++updates_ok;
  }
  const auto layer = [&](Layer l) {
    return PerSession(layer_ms[static_cast<size_t>(l)], n);
  };
  const auto by_scheme = TallyBySchemes(e2e);
  std::vector<double> connects;
  std::vector<double> client_feeds;
  for (const SessionRecord& rec : e2e.sessions) {
    if (IsSync(rec) && rec.ok) {
      connects.push_back(rec.connect_ms);
      client_feeds.push_back(rec.feed_calls);
    }
  }
  const pbs::ServerStats& s = e2e.stats;
  std::vector<Metric>& m = run->metrics;
  m = {
      {"estimator.ms_per_session", layer(Layer::kEstimator), "ms"},
      {"estimator.tow_ns_per_element",
       tow_elements > 0 ? tow_ns / tow_elements : 0.0, "ns"},
      {"estimator.dhat_error", Median(dhat_error), "ratio"},
      {"estimator.dhat_over_d_iqr",
       dhat.empty() ? 0.0 : Quantile(dhat, 0.75) - Quantile(dhat, 0.25),
       "ratio"},
      {"markov.plan_ms_per_session", PerSession(plan_ms, n), "ms"},
      {"scheme.init_encode_ms", layer(Layer::kSchemeInitEncode), "ms"},
      {"scheme.respond_ms", layer(Layer::kSchemeRespond), "ms"},
      {"scheme.decode_ms", layer(Layer::kSchemeDecode), "ms"},
  };
  for (const char* scheme :
       {"pbs", "pinsketch", "pinsketch-wp", "ddigest", "graphene"}) {
    const auto it = scheme_ms.find(scheme);
    const auto jt = by_scheme.find(scheme);
    m.push_back({std::string("scheme.") + scheme + ".ms_per_session",
                 it == scheme_ms.end()
                     ? 0.0
                     : PerSession(it->second.first, it->second.second),
                 "ms"});
    m.push_back({std::string("scheme.") + scheme + ".failed_ratio",
                 jt == by_scheme.end()
                     ? 0.0
                     : static_cast<double>(jt->second.attempted -
                                           jt->second.correct) /
                           jt->second.attempted,
                 "ratio"});
  }
  const std::vector<Metric> rest = {
      {"sync.leaves_ms", layer(Layer::kSyncLeaves), "ms"},
      {"sync.digest_ms", layer(Layer::kSyncDigest), "ms"},
      {"sync.subsession_initiator_ms", layer(Layer::kSyncSubInitiator), "ms"},
      {"sync.subsession_responder_ms", layer(Layer::kSyncSubResponder), "ms"},
      {"sync.differing_shards", PerSession(differing, sharded), "count"},
      {"sync.attempts_per_differing_shard",
       differing > 0 ? attempts / differing : 0.0, "ratio"},
      {"sync.estimate_skipped_ratio",
       sharded > 0 ? static_cast<double>(skipped) / sharded : 0.0, "ratio"},
      {"engine.frames_per_session", PerSession(frames, n), "count"},
      {"engine.bytes_per_frame", frames > 0 ? frame_bytes / frames : 0.0,
       "B"},
      {"engine.feed_calls_per_session", Mean(client_feeds), "count"},
      {"engine.poll_ms_per_session", layer(Layer::kEnginePoll), "ms"},
      {"engine.control_ms_per_session", layer(Layer::kEngineControl), "ms"},
      {"net.connect_ms", Mean(connects), "ms"},
      {"net.overhead_ms_per_session", PerSession(net_overhead_ms, n), "ms"},
      {"server.accepted", static_cast<double>(s.accepted), "count"},
      {"server.completed", static_cast<double>(s.completed), "count"},
      {"server.failed", static_cast<double>(s.failed), "count"},
      {"server.timed_out", static_cast<double>(s.timed_out), "count"},
      {"server.rejected", static_cast<double>(s.rejected_capacity), "count"},
      {"process.cpu_util", e2e.cpu_util, "ratio"},
      {"store.apply_ms", PerSession(apply_ms, applied), "ms"},
      {"store.alloc_bytes_per_update", PerSession(alloc_bytes, applied),
       "B"},
      {"update.updates_per_s",
       e2e.update_wall_s > 0 ? updates_ok / e2e.update_wall_s : 0.0, "1/s"},
      {"update.p50_ms", Median(updates), "ms"},
      {"update.tail_ms", TailOf(updates).value, "ms"},
      {"update.generator_lag_ms", Median(lags), "ms"},
      {"trace.unattributed_ms", PerSession(unattributed, n), "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  if (wrong > 0) {
    std::printf("WRONG DIFFERENCE in %llu in-process sessions\n",
                static_cast<unsigned long long>(wrong));
    run->correct = false;
  }
}

// ------------------------------------------------------------------ runs --

RunResult RunWorkload(const std::string& name, uint64_t seed, double seconds,
                      bool trace, bool small) {
  auto w = MakeWorkload(name, seed, small);
  if (w == nullptr) throw std::runtime_error("unknown workload " + name);
  std::printf("pbsbench workload=%s seed=%llu seconds=%g mode=%s%s\n",
              w->name(), static_cast<unsigned long long>(seed), seconds,
              trace ? "traced" : "end-to-end", small ? " (self-test scale)" : "");
  std::printf("network: TCP over the host's loopback interface (127.0.0.1) "
              "to an in-process ReconcileServer\n");
  std::printf("load: %d client thread(s) + acceptor + %d server shard(s); "
              "nproc %ld\n",
              w->client_threads(), w->server_shards(),
              sysconf(_SC_NPROCESSORS_ONLN));

  // The session log is allocated before anything is timed.
  E2EResult e2e;
  e2e.sessions.Allocate();

  // Set-up (inputs + store + server start) is timed several times; the
  // last one is kept for the measurement. The traced run sets up once.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.empty() ||
         (!trace && setups.size() < kMaxSetups &&
          (setups.size() < kMinSetups || setup_total < kSetupBudgetS))) {
    if (!setups.empty()) w->Teardown();
    const int64_t t0 = NowNs();
    w->Setup();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setups.back();
  }
  std::printf("inputs: seed=%llu base_fingerprint=%016llx "
              "stream_fingerprint(first %zu sessions)=%016llx\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(w->BaseFingerprint()),
              Workload::kFingerprintSessions,
              static_cast<unsigned long long>(w->StreamFingerprint()));
  std::printf("setup_s: %zu set-ups, median %.6f s, min %.6f, max %.6f\n",
              setups.size(), Median(setups),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  w->RunE2E(seconds, &e2e);
  const double peak_rss_mb = PeakRssMb();
  CrossCheck(&e2e);
  w->Teardown();
  if (e2e.sessions.full()) {
    std::printf("note: the session log (%zu records) filled; the "
                "measurement ended after %.3f s\n",
                SessionLog::kCapacity, e2e.wall_s);
  }

  RunResult run;
  std::vector<Metric> e2e_metrics;
  ReportE2E(*w, e2e, Median(setups), peak_rss_mb, &run,
            trace ? nullptr : &e2e_metrics);
  ReportServer(e2e);
  if (!e2e.problems.empty()) run.correct = false;
  if (trace) {
    RunTraced(*w, e2e, seconds, &run);
  } else {
    run.metrics = e2e_metrics;
  }
  std::printf("\nmetrics:\n");
  PrintMetrics(run.metrics);
  return run;
}

// -------------------------------------------------------------- selftest --

int Fail(const char* what) {
  std::printf("SELFTEST FAILED: %s\n", what);
  return 1;
}

int SelfTest() {
  // The oracle accepts the truth and rejects every tampered difference.
  const Keys truth = {3, 5, 9, 12};
  const Keys batch = {100, 101};
  if (CheckDifference({12, 3, 9, 5}, truth, {}) != Verdict::kExact) {
    return Fail("oracle rejected the exact difference");
  }
  for (const Keys& bad : {Keys{3, 5, 9}, Keys{3, 5, 9, 13}, Keys{3, 5, 9, 12, 7},
                          Keys{3, 5, 9, 12, 100}, Keys{}}) {
    if (CheckDifference(bad, truth, {&batch}) != Verdict::kWrong) {
      return Fail("oracle accepted a tampered difference");
    }
  }
  if (CheckDifference({3, 5, 9, 12, 100, 101}, truth, {&batch}) !=
      Verdict::kConcurrent) {
    return Fail("oracle rejected a difference with one in-flight batch");
  }

  // Span self time = duration minus the union of its children.
  std::vector<Span> spans(5);
  spans[0] = {-1, Layer::kSession, Role::kInitiator, 0, 0, 0, 100};
  spans[1] = {0, Layer::kEstimator, Role::kInitiator, 0, 0, 10, 20};
  spans[2] = {0, Layer::kSchemeDecode, Role::kInitiator, 0, 0, 15, 30};
  spans[3] = {0, Layer::kEnginePoll, Role::kInitiator, 0, 0, 50, 60};
  spans[4] = {2, Layer::kEnginePoll, Role::kInitiator, 0, 0, 16, 18};
  const std::vector<int64_t> self = SelfTimes(spans);
  if (self != std::vector<int64_t>{70, 10, 13, 10, 2}) {
    return Fail("span self-time arithmetic");
  }

  // All three workloads at small scale, both modes: zero wrong
  // differences and every cross-check passing.
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      const RunResult run = RunWorkload(name, 7, 1.0, trace, /*small=*/true);
      if (!run.correct) return Fail(name.c_str());
      if (run.attempted == 0) return Fail("no session attempted");
      if (run.failed != 0) return Fail("a reconciliation failed");
    }
  }
  std::printf("SELFTEST PASSED\n");
  return 0;
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) return SelfTest();
  }
  const char* workload = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr) {
    std::fprintf(stderr,
                 "usage: pbsbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] | --selftest\n");
    return 2;
  }
  const RunResult run =
      RunWorkload(workload, std::strtoull(seed, nullptr, 10),
                  std::atof(seconds), trace != nullptr && std::atoi(trace) != 0,
                  /*small=*/false);
  std::fflush(stdout);
  PrintJson(run);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace pbsbench

int main(int argc, char** argv) {
  try {
    return pbsbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbsbench: %s\n", e.what());
    return 1;
  }
}
