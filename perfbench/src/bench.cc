#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <fstream>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Below 21 samples that percentile would not exceed the median.
  return v.size() > 20 ? v[v.size() - 11] : v.back();
}

double WindowedTail(const std::vector<double>& v, size_t window) {
  const size_t windows = window > 0 ? v.size() / window : 0;
  if (windows < 2) return Tail(v);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const auto end = w + 1 == windows ? v.end() : v.begin() + (w + 1) * window;
    tails.push_back(Tail(std::vector<double>(v.begin() + w * window, end)));
  }
  return Median(tails);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void TrimHeap() { malloc_trim(0); }

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"rows_per_s", "1/s"},
      {"job_p50_s", "s"},        {"job_tail_s", "s"},
      {"sustained_jobs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"nn.extract_s", "s"},
        {"nn.rows_extracted", "count"},
        {"hypothesis.eval_s", "s"},
        {"measures.process_s", "s"},
    };
    for (const std::string& name : kReportedMeasures) {
      m.push_back({"measures." + name + ".process_s", "s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"measures.merge_s", "s"},
        {"measures.scores_s", "s"},
        {"measures.gbytes_per_s", "GB/s"},
        {"core.engine_s", "s"},
        {"core.lane_busy_share", "share"},
        {"core.block_overhead_us", "us"},
        {"core.blocks", "count"},
        {"core.store.materialize_s", "s"},
        {"core.store.unit_hit_ratio", "share"},
        {"core.store.hyp_hit_ratio", "share"},
        {"service.submit_s", "s"},
        {"service.queue_s_p50", "s"},
        {"service.queue_s_tail", "s"},
        {"service.result_cache_hit_ratio", "share"},
        {"service.dedup_ratio", "share"},
        {"service.scan_shared_ratio", "share"},
        {"service.refused", "count"},
        {"service.unattributed_share", "share"},
        {"server.overhead_s_p50", "s"},
        {"server.wire_s", "s"},
        {"cluster.worker_hop_s", "s"},
        {"cluster.merge_s", "s"},
        {"cluster.assignments", "count"},
        {"cluster.reassignments", "count"},
        {"cluster.worker_busy_share", "share"},
        {"loadgen.lag_s_tail", "s"},
        {"trace.overhead_share", "share"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

void AddEndToEnd(const std::vector<double>& latencies, double setup_s,
                 double rows_per_s, double sustained_jobs_per_s,
                 double peak_rss_mb, RunResult* out, size_t tail_window) {
  out->Set("setup_s", setup_s, "s");
  out->Set("rows_per_s", rows_per_s, "1/s");
  out->Set("job_p50_s", Median(latencies), "s");
  out->Set("job_tail_s", WindowedTail(latencies, tail_window), "s");
  out->Set("sustained_jobs_per_s", sustained_jobs_per_s, "1/s");
  out->Set("peak_rss_mb", peak_rss_mb, "MB");
}

std::vector<JobObs> ClosedLoop(const RunArgs& args, size_t max_jobs,
                               const std::function<JobObs(size_t)>& job,
                               double* peak_rss_mb) {
  SpanLog& log = SpanLog::Get();
  const size_t min_jobs = args.trace ? 2 : 1;
  std::vector<JobObs> jobs;
  TrimHeap();
  ResetPeakRss();
  const int64_t stop = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0; i < max_jobs && (i < min_jobs || NowNs() < stop); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const uint64_t root = traced ? log.NewId() : 0;
    if (traced) {
      log.SetCurrentJob(i + 1, root);
      log.SetEnabled(true);
    }
    const int64_t begin = NowNs();
    JobObs obs = job(i);
    if (traced) {
      log.SetEnabled(false);
      log.SetCurrentJob(0, 0);
      log.RecordFull(
          Span{"bench.job", root, 0, i + 1, begin, NowNs(), obs.rows});
      obs.traced = true;
    }
    jobs.push_back(std::move(obs));
    if (jobs.size() == kRssJobs) *peak_rss_mb = PeakRssMb();
  }
  if (jobs.size() < kRssJobs) *peak_rss_mb = PeakRssMb();
  return jobs;
}

double TraceOverhead(const std::vector<JobObs>& jobs) {
  double traced = 0, plain = 0;
  size_t n_traced = 0, n_plain = 0;
  for (const JobObs& job : jobs) {
    (job.traced ? traced : plain) += job.latency_s;
    ++(job.traced ? n_traced : n_plain);
  }
  if (n_traced == 0 || n_plain == 0 || plain <= 0) return 0;
  return (traced / static_cast<double>(n_traced)) /
             (plain / static_cast<double>(n_plain)) -
         1.0;
}

JobObs RunLocalJob(deepbase::InspectionSession* session,
                   const deepbase::InspectRequest& request, uint64_t rows,
                   const std::function<bool(const deepbase::ResultTable&)>&
                       check) {
  JobObs obs;
  const int64_t t0 = NowNs();
  deepbase::JobHandle handle = session->Submit(request);
  const int64_t t1 = NowNs();
  const auto& result = handle.Wait();
  const int64_t t2 = NowNs();
  obs.submit_s = Seconds(t0, t1);
  obs.latency_s = Seconds(t0, t2);
  obs.ok = result.ok() && check(*result);
  obs.rows = obs.ok ? rows : 0;
  obs.summary = handle.Summary();
  const deepbase::RuntimeStats stats = handle.Stats();
  obs.lanes = std::max<size_t>(1, stats.shards.size());
  obs.blocks = stats.blocks_processed;
  obs.unit_hits =
      stats.store_mem_hits + stats.store_disk_hits + stats.store_mmap_hits;
  obs.unit_misses = stats.store_misses;
  obs.hyp_hits = stats.store_hyp_mem_hits + stats.store_hyp_disk_hits;
  obs.hyp_misses = stats.store_hyp_misses;
  for (const deepbase::TraceSpan& span : handle.TraceSpans()) {
    if (span.name == "worker.assign") {
      obs.worker_busy_s += static_cast<double>(span.duration_ns) * 1e-9;
    }
  }
  return obs;
}

void CountJobs(const std::vector<JobObs>& jobs, RunResult* out) {
  for (const JobObs& job : jobs) {
    ++out->attempted;
    if (!job.ok) ++out->failed;
  }
}

void AddClosedLoopEndToEnd(const std::vector<JobObs>& jobs,
                           uint64_t rows_per_job, double setup_s,
                           double peak_rss_mb, RunResult* out) {
  std::vector<double> latencies;
  double ok = 0, waited_s = 0;
  for (const JobObs& job : jobs) {
    latencies.push_back(job.latency_s);
    waited_s += job.latency_s;
    ok += job.ok ? 1 : 0;
  }
  const double p50 = Median(latencies);
  AddEndToEnd(latencies, setup_s,
              p50 > 0 ? static_cast<double>(rows_per_job) / p50 : 0,
              waited_s > 0 ? ok / waited_s : 0, peak_rss_mb, out);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool EndsWith(const char* s, const char* suffix) {
  const size_t n = std::strlen(s), m = std::strlen(suffix);
  return n >= m && std::strcmp(s + n - m, suffix) == 0;
}

/// Seconds of [lo, hi) covered by the union of `intervals`.
double CoveredSeconds(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0, cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace

void AddPerLayer(const std::vector<JobObs>& jobs,
                 const std::vector<Span>& spans, const LayerContext& ctx,
                 RunResult* out) {
  std::vector<const JobObs*> traced;
  for (const JobObs& job : jobs) {
    if (job.traced && !job.refused) traced.push_back(&job);
  }
  const double n = std::max<double>(1, static_cast<double>(traced.size()));

  // --- Decorator spans, summed per layer.
  double extract_s = 0, eval_s = 0, process_s = 0, merge_s = 0, scores_s = 0;
  double rows_extracted = 0, bytes = 0;
  std::map<std::string, double> per_measure;
  for (const Span& span : spans) {
    const double d = Seconds(span.start_ns, span.end_ns);
    if (std::strcmp(span.name, "nn.extract") == 0) {
      extract_s += d;
      rows_extracted += static_cast<double>(span.count);
    } else if (std::strcmp(span.name, "hypothesis.eval") == 0) {
      eval_s += d;
    } else if (StartsWith(span.name, "measures.")) {
      if (EndsWith(span.name, ".process")) {
        process_s += d;
        bytes += static_cast<double>(span.count);
        per_measure[span.name] += d;
      } else if (EndsWith(span.name, ".merge")) {
        merge_s += d;
      } else if (EndsWith(span.name, ".scores")) {
        scores_s += d;
      }
    }
  }
  out->Set("nn.extract_s", extract_s / n, "s");
  out->Set("nn.rows_extracted", rows_extracted / n, "count");
  out->Set("hypothesis.eval_s", eval_s / n, "s");
  out->Set("measures.process_s", process_s / n, "s");
  for (const std::string& name : kReportedMeasures) {
    out->Set("measures." + name + ".process_s",
             per_measure["measures." + name + ".process"] / n, "s");
  }
  out->Set("measures.merge_s", merge_s / n, "s");
  out->Set("measures.scores_s", scores_s / n, "s");
  out->Set("measures.gbytes_per_s", Ratio(bytes, process_s) * 1e-9, "GB/s");

  // --- core: engine wall, lane occupancy by layer work, per-block cost.
  double engine_s = 0, lane_capacity_s = 0, blocks = 0;
  size_t unit_hits = 0, unit_total = 0, hyp_hits = 0, hyp_total = 0;
  double submit_s = 0, phases_s = 0, latency_s = 0, wire_s = 0;
  double hop_s = 0, cluster_merge_s = 0, worker_busy_s = 0, worker_cap_s = 0;
  std::vector<double> queue, overhead;
  for (const JobObs* job : traced) {
    const deepbase::JobSummary& s = job->summary;
    engine_s += s.total_s;
    lane_capacity_s += s.total_s * static_cast<double>(job->lanes);
    blocks += static_cast<double>(job->blocks);
    unit_hits += job->unit_hits;
    unit_total += job->unit_hits + job->unit_misses;
    hyp_hits += job->hyp_hits;
    hyp_total += job->hyp_hits + job->hyp_misses;
    submit_s += job->submit_s;
    queue.push_back(s.queue_s);
    const double server_s = s.queue_s + s.total_s + s.wire_s;
    if (job->ok) {
      phases_s += server_s;
      latency_s += job->latency_s;
      overhead.push_back(job->latency_s - server_s);
    }
    wire_s += s.wire_s;
    hop_s += s.worker_hop_s;
    cluster_merge_s += s.merge_s;
    worker_busy_s += job->worker_busy_s;
    worker_cap_s += s.total_s * static_cast<double>(ctx.workers);
  }
  const double layer_work_s = extract_s + eval_s + process_s;
  out->Set("core.engine_s", engine_s / n, "s");
  out->Set("core.lane_busy_share", Ratio(layer_work_s, lane_capacity_s),
           "share");
  out->Set("core.block_overhead_us",
           Ratio(lane_capacity_s - layer_work_s, blocks) * 1e6, "us");
  out->Set("core.blocks", blocks / n, "count");
  out->Set("core.store.materialize_s", ctx.materialize_s, "s");
  out->Set("core.store.unit_hit_ratio",
           Ratio(static_cast<double>(unit_hits), static_cast<double>(unit_total)),
           "share");
  out->Set("core.store.hyp_hit_ratio",
           Ratio(static_cast<double>(hyp_hits), static_cast<double>(hyp_total)),
           "share");

  // --- service: scheduler counters over the measured phase.
  const auto& a = ctx.sched_after;
  const auto& b = ctx.sched_before;
  const double scheduled =
      static_cast<double>(a.jobs_scheduled - b.jobs_scheduled);
  const double scan_hits =
      static_cast<double>(a.scan_shared_hits - b.scan_shared_hits);
  const double scan_total =
      scan_hits + static_cast<double>(a.scan_extractions - b.scan_extractions);
  out->Set("service.submit_s", submit_s / n, "s");
  out->Set("service.queue_s_p50", Median(queue), "s");
  out->Set("service.queue_s_tail", Tail(queue), "s");
  out->Set("service.result_cache_hit_ratio",
           Ratio(static_cast<double>(a.result_cache_hits - b.result_cache_hits),
                 scheduled),
           "share");
  out->Set("service.dedup_ratio",
           Ratio(static_cast<double>(a.dedup_followers - b.dedup_followers),
                 scheduled),
           "share");
  out->Set("service.scan_shared_ratio", Ratio(scan_hits, scan_total), "share");
  out->Set("service.refused",
           static_cast<double>(ctx.refused + a.admission_rejections -
                               b.admission_rejections),
           "count");
  out->Set("service.unattributed_share",
           latency_s > 0 ? 1.0 - phases_s / latency_s : 0, "share");

  // --- server / cluster / validity.
  out->Set("server.overhead_s_p50", ctx.remote ? Median(overhead) : 0, "s");
  out->Set("server.wire_s", wire_s / n, "s");
  const bool cluster = ctx.workers > 0;
  const double all_jobs = std::max<double>(1, static_cast<double>(jobs.size()));
  out->Set("cluster.worker_hop_s", cluster ? hop_s / n : 0, "s");
  out->Set("cluster.merge_s", cluster ? cluster_merge_s / n : 0, "s");
  out->Set("cluster.assignments",
           static_cast<double>(ctx.assignments) / all_jobs, "count");
  out->Set("cluster.reassignments", static_cast<double>(ctx.reassignments),
           "count");
  out->Set("cluster.worker_busy_share", Ratio(worker_busy_s, worker_cap_s),
           "share");
  out->Set("loadgen.lag_s_tail", ctx.lag_s_tail, "s");
  out->Set("trace.overhead_share", ctx.overhead_share, "share");

  // --- Self time per layer (seconds per traced job). A job's own self
  // time is its root span minus the union of its children: the part of
  // the wait no decorated layer accounts for (core, service, server,
  // cluster plumbing).
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  double job_self_s = 0;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, "bench.job") != 0) continue;
    job_self_s += Seconds(span.start_ns, span.end_ns) -
                  CoveredSeconds(children[span.id], span.start_ns,
                                 span.end_ns);
  }
  out->self_time_s["nn"] = extract_s / n;
  out->self_time_s["hypothesis"] = eval_s / n;
  out->self_time_s["measures"] = (process_s + merge_s + scores_s) / n;
  out->self_time_s["job_outside_layers"] = job_self_s / n;
}

}  // namespace perfbench
