// serve_mix: independent users in an open loop. Seeded arrivals go to an
// InspectionServer over loopback, one connection per core: first a long
// stretch at a nominal rate well below the server's capacity, then a
// ladder of rising rates that brackets the capacity. Jobs are small and
// interactive, so the scheduler, admission, caches and the wire set the
// latency. Most jobs ask for a hypothesis set not seen before (shared-scan
// fusion); fixed shares are concurrent duplicates of the previous request
// (in-flight dedup) or repeats of a request answered before the schedule
// started (result-cache hits).
//
// Every request is timed from when it was due, not when it was sent, and
// its completion is stamped by the sender thread that polls the handle,
// not by a waiter that reaches it later.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/server.h"
#include "world.h"

namespace perfbench {

namespace {

/// One arrival-rate step of the schedule.
struct Level {
  double rate = 0;      ///< jobs per second; 0 = a pause for draining
  double duration = 0;  ///< seconds
  bool nominal = false;
  int ladder = -1;      ///< which ladder pass the rung belongs to, if any
};

enum class Kind { kDistinct, kDuplicate, kRepeat };

struct Request {
  size_t level = 0;
  int64_t due_ns = 0;  ///< offset from the schedule start
  std::vector<size_t> hyps;
};

struct Outcome {
  JobObs obs;
  deepbase::RemoteJob job;
  bool done = false;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

// The schedule is set relative to the server's capacity on this job: the
// arrival rate above which its backlog grows. On the development host
// (4 vCPUs, client and server in this process) a ladder of 0.5 s rungs met
// the tail limit up to 2,040-2,240 jobs/s and missed it from 2,240-2,470
// jobs/s on, where completions levelled off at 1,830-2,250 jobs/s
// (perfbench/README.md). The host's speed varies about 2x in phases, so
// each ladder pass spans 0.2x to 2.15x of that; the run climbs it twice,
// with a pause between, so that one slow moment does not decide the
// figure.
constexpr double kCapacityPerS = 2300;
constexpr double kNominalShare = 0.5;  // share of the run at nominal rate
constexpr double kLadderShare = 0.2;   // share of the run per ladder pass
constexpr double kLadderFrom = 0.2;    // first rung, share of capacity
constexpr double kLadderStep = 1.15;   // rate ratio of adjacent rungs
constexpr int kLadderRungs = 18;       // up to 0.2 * 1.15^17 = 2.15 x capacity
constexpr int kLadderPasses = 2;

// Assumptions, not measurements: there is no public trace of inspection
// traffic to take the mix or the nominal load from. The nominal rate is a
// light load, where a job's latency is the service path's own and not
// queueing: 1/20 of capacity keeps well under one 3 ms job in flight on
// 4 cores, and its job_p50_s was no higher than at 1/160. It gives the
// nominal stretch about 860 samples at 15 s, in ~21 windows of 40
// consecutive jobs. job_tail_s is the median of the windows' tails (11th
// largest of 40, p75), the same tail of ~40 jobs that cold_scan (~38 per
// run) and cluster_sliced (~45) report. On a 4-vCPU VM whose hypervisor
// stole 2-10 % of CPU time in bursts, each burst adding 2-6 ms to the
// 3 ms jobs it hit, the steal of the moment and not the program set the
// tail of ~110-job windows (p90) or of the whole stretch (p99): over
// eight seeds they spread 39 % and 20 % of their medians, and 77 % when
// one 0.1 s stall held ten jobs. The median over 40-job windows spread
// 12 %. The tail limit is the 0.1 s response time a user still perceives
// as instantaneous (Nielsen, Usability Engineering, 1993, ch. 5).
constexpr double kNominalLoad = 1.0 / 20;  // share of capacity
constexpr size_t kTailWindow = 40;         // nominal jobs per tail window
// The server's watcher wakes on each submit and then every
// progress_poll_s, and hands a finished job back only when it wakes, so
// latency comes in steps of that interval. At the default 2 ms the steps
// are ~60 % of a 3 ms job, and a tail percentile jumps by a step when a
// slightly slower host pushes that share of jobs past 2 ms of service.
// 0.25 ms steps keep the percentiles continuous in the host's speed.
constexpr double kHandOffPollS = 0.00025;
constexpr double kTailLimitS = 0.1;
constexpr double kDuplicateShare = 0.15;
constexpr double kRepeatShare = 0.15;
constexpr size_t kHistory = 24;  // requests answered before the schedule
constexpr double kTraceSliceS = 0.5;  // traced / untraced alternation

deepbase::JobSummary FromWire(const deepbase::wire::ResultSummaryWire& w) {
  deepbase::JobSummary s;
  s.trace_id = w.trace_id;
  s.queue_s = w.queue_s;
  s.extract_s = w.extract_s;
  s.score_s = w.score_s;
  s.merge_s = w.merge_s;
  s.wire_s = w.wire_s;
  s.worker_hop_s = w.worker_hop_s;
  s.total_s = w.total_s;
  return s;
}

deepbase::SchedulerStats FromWire(const deepbase::wire::ServerStatsWire& w) {
  deepbase::SchedulerStats s;
  s.jobs_scheduled = w.jobs_scheduled;
  s.scan_extractions = w.scan_extractions;
  s.scan_shared_hits = w.scan_shared_hits;
  s.dedup_followers = w.dedup_followers;
  s.admission_rejections = w.admission_rejections;
  s.result_cache_hits = w.result_cache_hits;
  s.result_cache_misses = w.result_cache_misses;
  return s;
}

bool TracedAt(bool trace, int64_t due_ns) {
  return trace && static_cast<int64_t>(due_ns * 1e-9 / kTraceSliceS) % 2 == 1;
}

/// The nominal stretch, then the ladder passes with a drain pause before
/// each later pass.
std::vector<Level> MakeLevels(double seconds, bool smoke) {
  if (smoke) {
    return {{4, seconds * 0.5, true}, {8, seconds * 0.25, false, 0},
            {0, seconds * 0.05}, {8, seconds * 0.2, false, 1}};
  }
  std::vector<Level> levels = {
      {kNominalLoad * kCapacityPerS, seconds * kNominalShare, true}};
  const double rung_s = seconds * kLadderShare / kLadderRungs;
  const double pause_s = seconds * (1 - kNominalShare -
                                    kLadderPasses * kLadderShare) /
                         (kLadderPasses - 1);
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    if (pass > 0) levels.push_back({0, pause_s});
    for (int k = 0; k < kLadderRungs; ++k) {
      levels.push_back(
          {kLadderFrom * std::pow(kLadderStep, k) * kCapacityPerS, rung_s,
           false, pass});
    }
  }
  return levels;
}

size_t Arrivals(const Level& level) {
  return static_cast<size_t>(std::llround(level.rate * level.duration));
}

/// Seeded schedule: each level gets round(rate * duration) arrivals, one
/// in each 1/rate slot of its window at a seeded uniform position, so
/// every seed offers the same load with the same bounded burstiness. The
/// shares of duplicates and repeats hold exactly on every level; repeats
/// re-ask one of the `history` requests, answered before the schedule.
std::vector<Request> MakeSchedule(
    const std::vector<Level>& levels,
    const std::vector<std::vector<size_t>>& fresh,
    const std::vector<std::vector<size_t>>& history, deepbase::Rng* rng) {
  size_t next_fresh = 0;
  std::vector<Request> schedule;
  double start = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    const size_t n = Arrivals(levels[l]);
    std::vector<Kind> kinds(n, Kind::kDistinct);
    const size_t dups = static_cast<size_t>(std::llround(n * kDuplicateShare));
    const size_t repeats = static_cast<size_t>(std::llround(n * kRepeatShare));
    std::fill(kinds.begin(), kinds.begin() + dups, Kind::kDuplicate);
    std::fill(kinds.begin() + dups, kinds.begin() + dups + repeats,
              Kind::kRepeat);
    for (size_t i = n; i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng->UniformInt(i)]);
    }
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.level = l;
      r.due_ns = static_cast<int64_t>(
          (start + (static_cast<double>(i) + rng->Uniform()) / levels[l].rate) *
          1e9);
      if (kinds[i] == Kind::kDuplicate && !schedule.empty()) {
        r.hyps = schedule.back().hyps;
        r.due_ns = schedule.back().due_ns;
      } else if (kinds[i] == Kind::kRepeat) {
        r.hyps = history[rng->UniformInt(history.size())];
      } else {
        r.hyps = fresh[next_fresh++ % fresh.size()];
      }
      schedule.push_back(std::move(r));
    }
    start += levels[l].duration;
  }
  return schedule;
}

}  // namespace

RunResult RunServeMix(const RunArgs& args) {
  RunResult out;
  WorldSpec spec;
  spec.records = 1;  // x 64 symbols = 64 rows
  spec.hidden = args.smoke ? 16 : 32;  // 2 layers: 64 units
  spec.pool = args.smoke ? 8 : 48;
  const size_t hyps_per_request = 3;
  const std::vector<std::string> measures = {"pearson", "diff_means"};
  deepbase::InspectOptions options;
  options.early_stopping = false;  // full sweeps: the oracle is exact
  options.block_size = 1;
  const size_t connections = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<Level> levels = MakeLevels(args.seconds, args.smoke);

  std::unique_ptr<World> world;
  std::unique_ptr<deepbase::InspectionSession> session;
  std::unique_ptr<Registration> registration;
  std::unique_ptr<deepbase::InspectionServer> server;
  std::vector<std::unique_ptr<deepbase::InspectionClient>> clients;
  auto teardown = [&] {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    registration.reset();
    session.reset();
  };
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    const int64_t t0 = NowNs();
    world = BuildWorld(spec, args.seed);
    deepbase::SessionConfig config;
    config.options = options;
    session = std::make_unique<deepbase::InspectionSession>(std::move(config));
    registration = std::make_unique<Registration>(*world, &session->catalog(),
                                                  args.trace, measures);
    deepbase::ServerConfig server_config;
    server_config.progress_poll_s = kHandOffPollS;
    server = std::make_unique<deepbase::InspectionServer>(session.get(),
                                                          server_config);
    deepbase::Status st = server->Start();
    for (size_t c = 0; c < connections && st.ok(); ++c) {
      deepbase::ClientConfig client_config;
      client_config.port = server->port();
      clients.push_back(
          std::make_unique<deepbase::InspectionClient>(client_config));
      st = clients.back()->Connect();
    }
    setups.push_back(Seconds(t0, NowNs()));
    if (!st.ok()) {
      out.Fail("server set-up failed: " + st.ToString());
      teardown();
      return out;
    }
  }

  Oracle oracle(*world, connections);
  const deepbase::Status loaded = oracle.LoadPool(measures, options);
  if (!loaded.ok()) {
    out.Fail("oracle failed: " + loaded.ToString());
    teardown();
    return out;
  }
  deepbase::Rng rng(args.seed * 7919 + 3);
  size_t arrivals = 0;
  for (const Level& l : levels) arrivals += Arrivals(l);
  const auto sets = DistinctSubsets(&rng, spec.pool, hyps_per_request,
                                    kHistory + arrivals);
  const std::vector<std::vector<size_t>> history(
      sets.begin(), sets.begin() + std::min(kHistory, sets.size() / 2));
  const std::vector<std::vector<size_t>> fresh(sets.begin() + history.size(),
                                               sets.end());
  const std::vector<Request> schedule =
      MakeSchedule(levels, fresh, history, &rng);
  std::vector<Outcome> outcomes(schedule.size());

  // Answer the history before the schedule, so that repeats hit the
  // result cache from the first level on.
  for (const auto& hyps : history) {
    ++out.attempted;
    auto job = clients[0]->Submit(MakeRequest(*world, hyps, measures, options));
    if (!job.ok() || !job->Wait().ok() ||
        !oracle.Matches(hyps, *job->Wait())) {
      ++out.failed;
    }
  }

  auto stats_before = clients[0]->Stats();
  SpanLog::Get().Clear();
  TrimHeap();
  ResetPeakRss();
  double schedule_s = 0;
  for (const Level& l : levels) schedule_s += l.duration;
  const int64_t start = NowNs() + 20'000'000;  // 20 ms for threads to start
  const int64_t drain_until =
      start + static_cast<int64_t>((schedule_s + 30) * 1e9);

  // Sender k owns connection k and requests k, k+N, k+2N, ...: it sends
  // each when due and, while waiting, stamps completions of its own jobs.
  auto sender = [&](size_t k) {
    std::vector<size_t> pending;
    auto poll = [&] {
      for (size_t p = 0; p < pending.size();) {
        Outcome& o = outcomes[pending[p]];
        if (!o.job.Done()) {
          ++p;
          continue;
        }
        o.done_ns = NowNs();
        o.done = true;
        // Check the table and release it right away, so tables do not pile
        // up in memory the peak-RSS figure would charge to the server.
        const auto& result = o.job.Wait();
        o.obs.ok = result.ok() && oracle.Matches(schedule[pending[p]].hyps,
                                                 *result);
        o.obs.summary = FromWire(o.job.Summary());
        o.job = deepbase::RemoteJob();
        pending[p] = pending.back();
        pending.pop_back();
      }
    };
    for (size_t i = k; i < schedule.size(); i += connections) {
      const int64_t due = start + schedule[i].due_ns;
      while (NowNs() < due) {
        poll();
        std::this_thread::sleep_for(std::chrono::microseconds(250));
      }
      const deepbase::InspectRequest request =
          MakeRequest(*world, schedule[i].hyps, measures, options);
      Outcome& o = outcomes[i];
      o.sent_ns = NowNs();
      auto job = clients[k]->Submit(request);
      o.obs.submit_s = Seconds(o.sent_ns, NowNs());
      o.obs.traced = levels[schedule[i].level].nominal &&
                     TracedAt(args.trace, schedule[i].due_ns);
      if (!job.ok()) {
        o.obs.refused = true;
        o.done = true;
        o.done_ns = NowNs();
        continue;
      }
      o.job = std::move(*job);
      pending.push_back(i);
    }
    while (!pending.empty() && NowNs() < drain_until) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  };
  std::vector<std::thread> senders;
  for (size_t k = 0; k < connections; ++k) senders.emplace_back(sender, k);
  if (args.trace) {
    // Alternate the span log in time slices matching TracedAt(), over the
    // nominal stretch (the first level) that the latency metrics cover.
    for (int64_t t = 0;
         NowNs() < start + static_cast<int64_t>(levels[0].duration * 1e9);
         ++t) {
      const int64_t slice_end =
          start + static_cast<int64_t>((t + 1) * kTraceSliceS * 1e9);
      SpanLog::Get().SetEnabled(t % 2 == 1);
      while (NowNs() < slice_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    SpanLog::Get().SetEnabled(false);
  }
  for (auto& t : senders) t.join();
  // The schedule is a fixed amount of work, so its peak is comparable
  // across runs however fast they went.
  const double peak_rss_mb = PeakRssMb();
  auto stats_after = clients[0]->Stats();

  // --- Per-level accounting.
  std::vector<JobObs> jobs;
  std::vector<double> nominal_latency, lag, traced_lat, plain_lat;
  double sustained = 0;  // the highest rate that met the limit
  size_t refused = 0;
  // Per ladder pass: the level the server is saturated from, i.e. the
  // first rung above the pass's last passing one (its top rung if none).
  std::map<int, size_t> saturated_from;
  std::vector<int64_t> level_starts;
  int64_t level_start = start;
  for (size_t l = 0; l < levels.size(); ++l) {
    level_starts.push_back(level_start);
    const int64_t window_end =
        level_start + static_cast<int64_t>(levels[l].duration * 1e9);
    if (levels[l].rate == 0) {
      level_start = window_end;
      continue;
    }
    size_t sent = 0, ok = 0, failed = 0, level_refused = 0;
    std::vector<double> latency, level_lag;
    int64_t last_done = 0;
    size_t completions = 0;  // of any level's jobs, inside this window
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& done = outcomes[i];
      if (done.obs.ok && done.done_ns >= level_start &&
          done.done_ns < window_end) {
        ++completions;
      }
      if (schedule[i].level != l) continue;
      Outcome& o = outcomes[i];
      const int64_t due = start + schedule[i].due_ns;
      ++sent;
      level_lag.push_back(Seconds(due, o.sent_ns));
      if (o.obs.refused) {
        ++level_refused;
        latency.push_back(INFINITY);
      } else if (!o.done) {
        ++failed;
        latency.push_back(INFINITY);
      } else {
        o.obs.latency_s = Seconds(due, o.done_ns);
        o.obs.rows = o.obs.ok ? world->rows() : 0;
        o.obs.lanes = connections;
        o.obs.blocks = 0;
        (o.obs.ok ? ok : failed) += 1;
        latency.push_back(o.obs.ok ? o.obs.latency_s : INFINITY);
        last_done = std::max(last_done, o.done_ns);
        if (levels[l].nominal) {
          nominal_latency.push_back(o.obs.latency_s);
          (o.obs.traced ? traced_lat : plain_lat).push_back(o.obs.latency_s);
        }
      }
      jobs.push_back(o.obs);
    }
    refused += level_refused;
    out.attempted += sent;
    out.failed += failed + level_refused;
    const double tail = Tail(latency);
    const double drain_s = Seconds(window_end, std::max(last_done, window_end));
    const bool pass = failed + level_refused == 0 && tail <= kTailLimitS &&
                      drain_s <= kTailLimitS;
    // The level's own jobs per second, from its start to their last
    // completion; and every completion inside its window per second.
    const double achieved =
        ok > 0 ? static_cast<double>(ok) / Seconds(level_start, last_done) : 0;
    const double completions_per_s =
        static_cast<double>(completions) / levels[l].duration;
    if (pass) sustained = std::max(sustained, levels[l].rate);
    const int ladder = levels[l].ladder;
    if (ladder >= 0) {
      const bool top = l + 1 == levels.size() || levels[l + 1].ladder != ladder;
      if (pass && !top) {
        saturated_from[ladder] = l + 1;
      } else if (!saturated_from.count(ladder) || (pass && top)) {
        saturated_from[ladder] = l;
      }
    }
    // How late the generator sent, where the latency metrics come from.
    if (levels[l].nominal) lag = level_lag;
    std::printf(
        "level {\"rate\": %g, \"seconds\": %g, \"nominal\": %s, "
        "\"ladder\": %d, \"sent\": %zu, \"succeeded\": %zu, "
        "\"failed\": %zu, \"refused\": %zu, \"tail_s\": %.6f, "
        "\"drain_s\": %.6f, \"achieved_per_s\": %.4f, "
        "\"completions_per_s\": %.4f, \"lag_tail_s\": %.6f, "
        "\"meets_limit\": %s}\n",
        levels[l].rate, levels[l].duration, levels[l].nominal ? "true" : "false",
        ladder, sent, ok, failed, level_refused,
        std::isfinite(tail) ? tail : -1.0, drain_s, achieved,
        completions_per_s, Tail(level_lag), pass ? "true" : "false");
    level_start = window_end;
  }
  if (out.failed > 0) {
    out.Fail("serve_mix: failed, refused or wrong results");
  }
  // Throughput once the offered rate exceeds what the server sustains:
  // per ladder pass, completions per second of the pass's jobs from the
  // start of its saturated level to their last completion. The backlog
  // does not empty in that span, so this is the server's capacity, not
  // the offered load (unless even the top rung passes); the best pass
  // counts.
  double saturated_per_s = 0;
  for (const auto& [ladder, from] : saturated_from) {
    size_t done = 0;
    int64_t last_done = level_starts[from];
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (levels[schedule[i].level].ladder != ladder || !o.obs.ok ||
          o.done_ns < level_starts[from]) {
        continue;
      }
      ++done;
      last_done = std::max(last_done, o.done_ns);
    }
    const double span_s = Seconds(level_starts[from], last_done);
    if (span_s > 0) {
      saturated_per_s =
          std::max(saturated_per_s, static_cast<double>(done) / span_s);
    }
  }
  AddEndToEnd(nominal_latency, Median(setups),
              static_cast<double>(world->rows()) * saturated_per_s, sustained,
              peak_rss_mb, &out, kTailWindow);

  LayerContext ctx;
  ctx.remote = true;
  ctx.refused = refused;
  ctx.lag_s_tail = Tail(lag);
  if (stats_before.ok() && stats_after.ok()) {
    ctx.sched_before = FromWire(*stats_before);
    ctx.sched_after = FromWire(*stats_after);
  } else {
    out.Fail("stats RPC failed");
  }
  const double plain = Median(plain_lat);
  ctx.overhead_share = plain > 0 ? Median(traced_lat) / plain - 1.0 : 0;
  AddPerLayer(jobs, SpanLog::Get().Collect(), ctx, &out);
  teardown();
  return out;
}

}  // namespace perfbench
