// Shared plumbing of the benchmark program: run arguments, the metric
// sink, per-job observations, and the per-layer metric derivation every
// workload reports in its traced run.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/inspection_session.h"
#include "service/scheduler.h"
#include "tracing.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs plus extra oracle cross-checks (the self-test).
  bool smoke = false;
  /// Working directory for behavior stores and span files.
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// \brief What one workload run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Per-layer self time (seconds per traced job), printed in trace runs.
  std::map<std::string, double> self_time_s;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// \brief One finished job, as the caller saw it.
struct JobObs {
  bool ok = false;         ///< succeeded and matched the oracle
  bool refused = false;    ///< rejected at submission (admission, wire)
  bool traced = false;     ///< recorded with spans on
  double latency_s = 0;    ///< call (or due time) -> final table
  double submit_s = 0;     ///< duration of the Submit call itself
  uint64_t rows = 0;       ///< behavior rows the job scored
  size_t lanes = 1;        ///< shard lanes of the engine run
  size_t blocks = 0;
  deepbase::JobSummary summary;
  // Behavior-store tiers (local runs with a store).
  size_t unit_hits = 0, unit_misses = 0, hyp_hits = 0, hyp_misses = 0;
  double worker_busy_s = 0;  ///< cluster: summed worker.assign spans
};

/// \brief Counters a workload reads around its measured phase.
struct LayerContext {
  deepbase::SchedulerStats sched_before, sched_after;
  double materialize_s = 0;      ///< median BehaviorStore materialization
  size_t refused = 0;
  double lag_s_tail = 0;         ///< open-loop generator lateness
  double overhead_share = 0;     ///< traced vs untraced cost - 1
  bool remote = false;           ///< jobs went through InspectionServer
  size_t workers = 0;            ///< cluster workers (0 = local)
  size_t assignments = 0, reassignments = 0;
};

// --- small statistics -------------------------------------------------------

double Median(std::vector<double> v);
/// The highest percentile with at least 10 samples beyond it (the maximum
/// when there are 20 or fewer samples, where that percentile would sit at
/// or below the median).
double Tail(std::vector<double> v);
/// The median, over consecutive windows of `window` samples in the order
/// given (the remainder joins the last window), of each window's Tail().
/// A host stall that delays a burst of consecutive jobs moves one window,
/// not the figure. Tail() of all samples when there are fewer than two
/// windows.
double WindowedTail(const std::vector<double>& v, size_t window);
/// Peak resident set since the last ResetPeakRss() (VmHWM), in MB.
double PeakRssMb();
/// Restart the peak-RSS count.
void ResetPeakRss();
/// Return memory freed by set-up and the oracle to the system before the
/// measured phase, so peak RSS counts live memory, not what the allocator
/// kept from earlier phases.
void TrimHeap();
double Seconds(int64_t start_ns, int64_t end_ns);

/// \brief End-to-end metrics of a finished run (every workload).
/// `latencies` are the jobs the latency percentiles are taken over;
/// job_tail_s is their WindowedTail() when `tail_window` > 0.
void AddEndToEnd(const std::vector<double>& latencies, double setup_s,
                 double rows_per_s, double sustained_jobs_per_s,
                 double peak_rss_mb, RunResult* out, size_t tail_window = 0);

/// \brief attempted / failed from the observations (refused counts as
/// failed).
void CountJobs(const std::vector<JobObs>& jobs, RunResult* out);

/// \brief End-to-end metrics of a closed loop whose jobs each score
/// `rows_per_job` rows: rows_per_s over the median job latency, sustained
/// jobs/s as succeeded jobs over the time the caller spent waiting (the
/// benchmark's own checks between calls are not counted).
void AddClosedLoopEndToEnd(const std::vector<JobObs>& jobs,
                           uint64_t rows_per_job, double setup_s,
                           double peak_rss_mb, RunResult* out);

/// \brief Per-layer metrics from the traced jobs and spans.
void AddPerLayer(const std::vector<JobObs>& jobs,
                 const std::vector<Span>& spans, const LayerContext& ctx,
                 RunResult* out);

/// \brief Runs `job(i)` back to back for `seconds`, at most `max_jobs`
/// times (one caller waiting for each reply: a closed loop). In trace
/// runs every second job is recorded under a "bench.job" root span with
/// the span log on; the others run with it off, so the two halves give
/// the tracing overhead (a trace run makes at least two jobs).
/// `*peak_rss_mb` is the peak resident set over the first kRssJobs jobs:
/// a fixed amount of work, so the figure does not grow with how many jobs
/// a faster or slower run fits in.
std::vector<JobObs> ClosedLoop(const RunArgs& args, size_t max_jobs,
                               const std::function<JobObs(size_t)>& job,
                               double* peak_rss_mb);

/// Mean traced over mean untraced latency, minus one.
double TraceOverhead(const std::vector<JobObs>& jobs);

/// \brief Submit `request` to a local session and wait: the observation
/// carries the Submit call time, call->table latency, the job's summary,
/// lane/block counts and store tiers. `check` judges the table.
JobObs RunLocalJob(deepbase::InspectionSession* session,
                   const deepbase::InspectRequest& request, uint64_t rows,
                   const std::function<bool(const deepbase::ResultTable&)>&
                       check);

/// Names of every end-to-end and per-layer metric with its unit, in
/// BENCHMARK.json order (the smoke test checks each is emitted).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Set-ups per run; setup_s is their median. A set-up of milliseconds is
/// mostly thread starts and connects, and differs from the next by up to
/// 3x (1.3-4.7 ms within one serve_mix run), so the median takes many.
/// Workloads whose set-up takes seconds repeat it fewer times.
inline constexpr int kSetupReps = 45;

/// Closed-loop jobs the peak-RSS figure covers.
inline constexpr size_t kRssJobs = 8;

/// Measures the per-measure process metrics are reported for.
inline const std::vector<std::string> kReportedMeasures = {
    "pearson", "diff_means", "jaccard", "mutual_info", "logreg_l1"};

// --- workloads --------------------------------------------------------------

RunResult RunColdScan(const RunArgs& args);
RunResult RunWarmReinspect(const RunArgs& args);
RunResult RunServeMix(const RunArgs& args);
RunResult RunClusterSliced(const RunArgs& args);

}  // namespace perfbench
