// Multi-query scheduler: the layer between InspectionSession::Submit()
// and the engine (paper §1/§5 — DeepBase's systems contribution is
// multi-query optimization for inspection workloads: concurrent
// hypotheses over the same (model, dataset) share one extraction scan
// and reuse cached behaviors instead of re-running the model per query).
//
// Five mechanisms, stacked:
//
//   1. Result cache — completed inspections are cached by
//      (InspectRequest fingerprint, catalog version); an identical
//      re-submission is answered without invoking the engine at all
//      (0 blocks processed). Any catalog mutation bumps the version,
//      invalidates older entries, and — synchronously, via the catalog's
//      mutation listener — raises the cache's admission floor, so a
//      result computed under an old version can never be admitted after
//      the Register* that invalidated it (the stale-admission window).
//      Only fully catalog-resolved requests (models/dataset/hypotheses/
//      measures referenced by name, or an inline dataset, which is
//      content-fingerprinted) are cacheable; requests with inline
//      extractors or hypothesis/measure objects run every time.
//   2. Persistent tier — with a session store, admitted entries are also
//      serialized into the BehaviorStore's blob tier under
//      "cache:<fingerprint>:<catalog version>:<dataset fingerprint>"
//      (its own namespace + disk quota), so a restarted session answers
//      repeat queries with zero engine work. Lookups revalidate against
//      the live catalog version and dataset fingerprint by construction
//      (they are part of the key), and stale-version blobs are purged
//      when the catalog mutates. Caveat (the same name-identity contract
//      as the store's unit/hypothesis tiers, see engine.h): hypothesis
//      *functions* and model *weights* are arbitrary code and cannot be
//      content-fingerprinted, so across restarts their catalog names are
//      their identity — a changed hypothesis or retrained model must be
//      registered under a fresh name (or in a different registration
//      order, which changes the version), or disable persist_result_cache
//      for definitions that churn under fixed names.
//   3. In-flight dedup — identical requests that are in flight at the
//      same time run the engine once: the first becomes the leader, the
//      rest attach as waiters on the running job and receive its
//      ResultTable (bit-identical scores). Cancelling a waiter resolves
//      only that waiter; cancelling the leader promotes the first live
//      waiter to re-run (on the leader's worker) or fails cleanly when
//      none remain.
//   4. Shared-scan job batching — queued jobs are grouped by
//      (model ids, dataset fingerprint, scan-shaping options) and their
//      block extraction is fused through one SharedScan: each block's
//      unit behaviors are extracted once and fanned out to every member
//      job's own measure set. Member jobs keep their own early stopping
//      and cancellation, and scores are bit-identical to isolated runs.
//   5. Admission control — per-tenant (SessionConfig) quotas on
//      concurrent jobs and queued extraction bytes; over-quota
//      submissions are rejected with kResourceExhausted instead of
//      queueing without bound.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/shared_scan.h"
#include "service/inspection_session.h"

namespace deepbase {

class BehaviorStore;

/// \brief Blob-tier key of one persisted result-cache entry.
std::string ResultCacheBlobKey(uint64_t fingerprint, uint64_t version,
                               uint64_t dataset_fingerprint);

/// \brief LRU-over-bytes cache of completed inspection results, keyed by
/// (request fingerprint, catalog version), with an optional persistent
/// tier through a BehaviorStore's "cache:" blob namespace. Thread-safe.
///
/// Stale-admission discipline (the Berkholz et al. rule: revalidate
/// against the update clock at admission, not only at lookup):
/// InvalidateBelow(v) both drops entries older than v and raises a
/// monotonic admission floor; Insert/Lookup reject versions below the
/// floor, so a result computed under catalog version V that finishes
/// after a Register* invalidated V is never admitted or served.
///
/// Persistent-tier I/O (blob read on a memory miss, blob write on
/// admission, directory purge on invalidation) runs under the cache
/// mutex by design: the floor check and the blob operation must be
/// atomic against a concurrent purge, or a racing Register* could sweep
/// the directory before a stale blob lands. The cost — concurrent
/// probes briefly serializing behind one disk read — is only paid on
/// memory-tier misses of store-backed sessions.
class ResultCache {
 public:
  /// \param store optional persistent tier (nullptr = memory only).
  ResultCache(size_t budget_bytes, BehaviorStore* store, bool persist)
      : budget_(budget_bytes), store_(store), persist_(persist && store) {}

  /// \brief Cached result for (fingerprint, version): memory tier first,
  /// then the persistent tier (re-admitted to memory on a hit). Counts
  /// hit/miss. `dataset_fingerprint` keys the persistent tier.
  std::optional<ResultTable> Lookup(uint64_t fingerprint, uint64_t version,
                                    uint64_t dataset_fingerprint);
  /// \brief Admit a completed result (replaces an existing entry) to both
  /// tiers. Rejected (counted in stale_rejections) when `version` is
  /// below the admission floor — i.e. the catalog has already moved on.
  void Insert(uint64_t fingerprint, uint64_t version,
              uint64_t dataset_fingerprint, ResultTable table);
  /// \brief Drop every entry older than `version` (both tiers) and raise
  /// the admission floor to `version`. No-op when the floor is already
  /// there, so per-request calls are cheap.
  void InvalidateBelow(uint64_t version);
  void Clear();

  /// \brief EXPLAIN's side-effect-free tier probe: "memory",
  /// "persistent", or "" (miss / below the admission floor). Unlike
  /// Lookup it counts nothing, never touches LRU order, and never
  /// re-admits a blob — a dry run leaves the cache byte-identical.
  std::string PeekTier(uint64_t fingerprint, uint64_t version,
                       uint64_t dataset_fingerprint) const;

  size_t hits() const;
  size_t misses() const;
  size_t evictions() const;
  size_t invalidations() const;
  /// \brief Entries admitted to / served from the persistent blob tier.
  size_t persistent_writes() const;
  size_t persistent_hits() const;
  /// \brief Insert attempts rejected because the catalog had already
  /// invalidated the entry's version (the closed stale-admission window).
  size_t stale_rejections() const;
  size_t bytes() const;
  size_t entries() const;

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    uint64_t version = 0;
    size_t bytes = 0;
    ResultTable table;
  };

  void EraseLocked(std::list<Entry>::iterator it);
  void AdmitLocked(uint64_t fingerprint, uint64_t version, ResultTable table);

  const size_t budget_;
  BehaviorStore* const store_;
  const bool persist_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::pair<uint64_t, uint64_t>, std::list<Entry>::iterator> index_;
  /// Admission floor: entries below this catalog version are neither
  /// admitted nor served. Raised by InvalidateBelow, never lowered.
  uint64_t floor_version_ = 0;
  size_t bytes_ = 0;
  size_t hits_ = 0, misses_ = 0, evictions_ = 0, invalidations_ = 0;
  size_t persistent_writes_ = 0, persistent_hits_ = 0;
  size_t stale_rejections_ = 0;
};

/// X-macro over SchedulerStats' cumulative counters: the one list that
/// generates Accumulate and the drift guards in scheduler.cc. A counter
/// added to the struct but not here changes sizeof and trips the
/// static_assert instead of silently not accumulating. Keep the order in
/// sync with the struct declaration below.
#define DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(X) \
  X(size_t, jobs_scheduled)                        \
  X(size_t, groups_formed)                         \
  X(size_t, jobs_coscheduled)                      \
  X(size_t, scan_extractions)                      \
  X(size_t, scan_shared_hits)                      \
  X(size_t, dedup_followers)                       \
  X(size_t, dedup_promotions)                      \
  X(size_t, admission_rejections)                  \
  X(size_t, result_cache_hits)                     \
  X(size_t, result_cache_misses)                   \
  X(size_t, result_cache_evictions)                \
  X(size_t, result_cache_invalidations)            \
  X(size_t, result_cache_persistent_hits)          \
  X(size_t, result_cache_persistent_writes)        \
  X(size_t, result_cache_stale_rejections)

/// \brief Aggregate scheduler counters. Two kinds of field, kept apart so
/// polling stats() repeatedly stays additive: the top-level counters are
/// cumulative over the session (Accumulate sums them); `snapshot` holds
/// point-in-time gauges (current cache bytes/entries, in-flight jobs)
/// that are NOT additive — Accumulate keeps the most recent snapshot
/// instead of summing, so folding a stats poll into a running total never
/// double-counts bytes.
struct SchedulerStats {
  // Cumulative counters (monotonic; sum across polls/sessions).
  size_t jobs_scheduled = 0;    ///< Submit() + sync Inspect() requests
  size_t groups_formed = 0;     ///< distinct shared-scan groups created
  size_t jobs_coscheduled = 0;  ///< jobs that joined an existing group
  size_t scan_extractions = 0;  ///< blocks extracted across all groups
  size_t scan_shared_hits = 0;  ///< blocks served from a group's scan
  size_t dedup_followers = 0;   ///< submissions attached to an in-flight job
  size_t dedup_promotions = 0;  ///< waiters promoted after a leader cancel
  size_t admission_rejections = 0;  ///< submissions rejected over quota
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;
  size_t result_cache_evictions = 0;
  size_t result_cache_invalidations = 0;
  size_t result_cache_persistent_hits = 0;
  size_t result_cache_persistent_writes = 0;
  size_t result_cache_stale_rejections = 0;

  /// Point-in-time gauges (NOT additive across polls).
  struct Snapshot {
    size_t result_cache_bytes = 0;
    size_t result_cache_entries = 0;
    size_t inflight_jobs = 0;  ///< dedup registry entries right now
    size_t active_jobs = 0;    ///< queued + running engine jobs right now
    size_t queued_bytes = 0;   ///< estimated bytes awaiting execution
  } snapshot;

  /// \brief Fold another poll into this one: cumulative counters sum,
  /// `snapshot` takes `other`'s (most recent wins).
  void Accumulate(const SchedulerStats& other);
};

/// \brief How the session's engine will run one job: the execution half
/// of a job's plan. The engine's own Run executes it, and EXPLAIN and
/// statusz render it.
struct EnginePlan {
  enum class Dispatch {
    kLocal,           ///< the in-process engine (no cluster installed)
    kInlineFallback,  ///< cluster engine, but the request cannot travel
    kNoWorkers,       ///< cluster engine with no live worker
    kSliced,          ///< shard ranges spread over the live workers
    kWhole,           ///< the whole job pinned to one worker
  };
  /// The shard count the run uses (RuntimeStats::num_shards reports it).
  size_t shards = 1;
  Dispatch dispatch = Dispatch::kLocal;
  bool degrade_to_local = false;  ///< kNoWorkers runs locally instead
  std::vector<std::string> live_workers;  ///< sorted live worker ids
  /// kSliced: the contiguous [lo, hi) shard range of each assignment.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  std::string placement;  ///< kWhole: the rendezvous-placed worker
};

/// \brief What runs a scheduled job. The scheduler's default is the
/// in-process engine; a cluster coordinator installs itself through
/// Scheduler::SetEngine. An engine plans and runs with the same code, so
/// what EXPLAIN renders is what Run does.
class InspectionEngine {
 public:
  virtual ~InspectionEngine() = default;
  /// \brief The shard count a run with `options` uses. Pure and cheap:
  /// every submission's JobPlan reads it (it keys early-stopping
  /// fingerprints).
  virtual size_t Shards(const InspectOptions& options) const = 0;
  /// \brief Where `request` (compiled as `compiled`) will run.
  virtual EnginePlan PlanDispatch(const InspectRequest& request,
                                  const InspectPlan& compiled) const = 0;
  /// \brief Run one request. `request.options` are the effective options
  /// (cancel/progress/tracer/substrate already threaded in).
  virtual Result<ResultTable> Run(const InspectRequest& request,
                                  const InspectOptions& default_options,
                                  RuntimeStats* stats) = 0;
};

/// \brief Everything the scheduler decides about a request that does not
/// depend on live scheduler state. Scheduler::Plan computes it once per
/// submission; Submit, RunSync and EXPLAIN all read the same value.
struct JobPlan {
  InspectOptions options;  ///< the request's options or the session's
  /// Admission gate: the deadline, then the scheduler.admit failpoint.
  Status gate;
  uint64_t catalog_version = 0;
  std::optional<uint64_t> fingerprint;  ///< nullopt = not cacheable
  uint64_t dataset_fingerprint = 0;
  /// Complete and clock-independent (no max_blocks, time budget or
  /// deadline): only such runs are cached or deduplicated.
  bool deterministic = false;
  bool cacheable = false;  ///< fingerprint && result cache enabled
  bool dedupable = false;  ///< fingerprint && dedup enabled && deterministic
  bool shared_scan = false;  ///< shared-scan batching enabled
  /// Shared-scan batching key (model ids + unit footprint + dataset
  /// fingerprint + scan-shaping options); nullopt when batching is off or
  /// the request does not resolve against the catalog.
  std::optional<std::string> group_key;
  /// Rough extraction footprint (rows × units × 4 B), the unit of the
  /// queued-bytes quota.
  size_t queued_bytes = 0;
  size_t shards = 1;  ///< the engine's resolved shard count
};

/// \brief A submission's role against live scheduler state (in-flight
/// registry and quotas), decided in Submit's order: dedup, then quota.
struct JobDecision {
  enum class Role { kLeader, kWaiter, kReject };
  Role role = Role::kLeader;
  Status reject;  ///< kReject: the quota that refused the job
  size_t active_jobs = 0;   ///< the quota state the decision read
  size_t queued_bytes = 0;
  bool group_exists = false;  ///< Decide only: the plan's group is live
};

/// \brief The session's scheduler. Owned by InspectionSession; every
/// Submit()/Inspect() routes through it. Thread-safe.
class Scheduler {
 public:
  explicit Scheduler(InspectionSession* session);

  /// \brief Async path: plan, result-cache probe, then in-flight dedup,
  /// admission and group attach, enqueue. Rejected submissions return a
  /// handle already resolved with the gate's or quota's error.
  /// `trace_id` threads an externally minted trace id (the serving
  /// layer's Submit frame) into the job's Tracer; 0 mints a fresh id.
  JobHandle Submit(InspectRequest request, uint64_t trace_id = 0);
  /// \brief Sync path: same plan, caching, dedup and admission, run on
  /// the caller thread (an identical in-flight job parks the caller until
  /// the leader's result is ready). Only the concurrent-job quota applies:
  /// nothing ever sits in a queue.
  Result<ResultTable> RunSync(const InspectRequest& request,
                              RuntimeStats* stats);

  /// \brief The read-only half of a submission: options, admission gate,
  /// fingerprints, catalog version, group key, queued-bytes estimate and
  /// the engine's shard count. Takes no scheduler lock and moves no
  /// counter (an armed scheduler.admit failpoint does count the hit).
  JobPlan Plan(const InspectRequest& request) const;
  /// \brief EXPLAIN's view of the role a submission of `plan` would get
  /// right now (the same DecideLocked Submit runs).
  JobDecision Decide(const JobPlan& plan) const;

  /// \brief Catalog mutation hook (wired by InspectionSession): raises
  /// the result cache's admission floor to `version` synchronously.
  void OnCatalogMutation(uint64_t version);

  /// \brief Pluggable engine: jobs that start after the call run on
  /// `engine` (nullptr restores the in-process engine); in-flight jobs
  /// keep the engine they started on. This is how the cluster coordinator
  /// slots in — "a scheduler whose engine is remote": result caching,
  /// in-flight dedup, admission control and progress plumbing keep
  /// working around it. The engine must outlive the jobs it runs.
  void SetEngine(InspectionEngine* engine);
  /// \brief The engine new jobs run on.
  const InspectionEngine& engine() const {
    return *engine_.load(std::memory_order_acquire);
  }

  SchedulerStats stats() const;
  ResultCache& result_cache() { return result_cache_; }
  /// \brief Shared-scan groups currently alive (fused jobs in flight).
  size_t active_groups() const;
  /// \brief Dedup registry entries currently alive.
  size_t inflight_jobs() const;

 private:
  /// The in-process engine: RunInspectRequest on the session substrate.
  class LocalEngine final : public InspectionEngine {
   public:
    explicit LocalEngine(InspectionSession* session);
    size_t Shards(const InspectOptions& options) const override;
    EnginePlan PlanDispatch(const InspectRequest& request,
                            const InspectPlan& compiled) const override;
    Result<ResultTable> Run(const InspectRequest& request,
                            const InspectOptions& default_options,
                            RuntimeStats* stats) override;

   private:
    InspectionSession* session_;
    /// The session pool's size (SessionConfig::num_threads resolved once:
    /// the 0 = hardware-concurrency rule costs a syscall).
    size_t pool_threads_;
  };

  /// One job's membership in a shared-scan group.
  struct GroupHandle {
    std::string key;
    std::shared_ptr<SharedScan> scan;
    std::shared_ptr<SharedScanClient> client;
  };

  /// One entry of the in-flight dedup registry: the leader's request and
  /// plan (for waiter promotion after a leader cancel) plus the waiters
  /// parked on it. `done` flips when the leader's terminal delivery has
  /// begun; a waiter that finds `done` missed the delivery and must run
  /// itself.
  struct InflightJob {
    JobPlan plan;
    InspectRequest request;
    bool done = false;                                       // guarded by mu_
    std::vector<std::shared_ptr<internal::JobState>> waiters;  // guarded by mu_
    /// The leader's live progress counter (its handle's own), shared into
    /// every waiter's JobState so polling a waiter (locally or over the
    /// wire) reports the leader's progress. Never null.
    std::shared_ptr<ProgressCounter> progress;
  };

  /// The shared front half of Submit and RunSync. `status` is the gate's
  /// or quota's error; `hit` a result-cache answer; otherwise the job is
  /// a waiter (parked on `inflight`) or the leader (`inflight` is its own
  /// registry entry when dedupable).
  struct Admission {
    JobPlan plan;
    Status status;
    std::optional<ResultTable> hit;
    bool waiter = false;
    std::shared_ptr<InflightJob> inflight;
  };

  /// Plan, then cache lookup, then DecideLocked plus registration in one
  /// critical section. A waiter parks `state` on the leader's entry; a
  /// leader shares `state->progress` with its entry. `queued` jobs
  /// (Submit) also count against the queued-bytes quota.
  Admission Admit(const InspectRequest& request, bool queued,
                  const std::shared_ptr<internal::JobState>& state);
  /// The job's role against the in-flight registry and quotas. Caller
  /// holds mu_. `leader` receives the in-flight entry a waiter attaches to.
  JobDecision DecideLocked(const JobPlan& plan, bool queued,
                           std::shared_ptr<InflightJob>* leader) const;

  std::optional<GroupHandle> AttachToGroup(
      const std::optional<std::string>& key);
  /// Fold the client's counters, detach, retire the group if empty.
  void ReleaseGroup(GroupHandle* group);
  /// Run one request on the calling thread (group already attached) and
  /// admit the result to the cache when the plan allows. `tracer`/
  /// `parent_span` thread the job's trace into the engine options (a
  /// request that already carries its own tracer keeps it).
  Result<ResultTable> Execute(const InspectRequest& request,
                              const JobPlan& plan,
                              std::optional<GroupHandle> group,
                              const std::atomic<bool>* cancel,
                              ProgressCounter* progress, RuntimeStats* stats,
                              Tracer* tracer = nullptr,
                              uint64_t parent_span = 0);

  /// Terminal observability bookkeeping for one async job, exactly once:
  /// records the "sched.job" root span, counts deepbase_jobs_total
  /// {status=...} + the latency histogram, and emits the slow-job span
  /// tree when the wall time crossed SessionConfig::slow_job_threshold_s.
  /// `status` is "ok", "error", or "cancelled". Never call holding
  /// state->mu.
  void FinalizeJob(const std::shared_ptr<internal::JobState>& state,
                   const char* status);

  /// Leader terminal path: deliver `result` to every live waiter (or,
  /// when the leader was cancelled, promote the first live waiter and
  /// re-run on this thread), then retire the registry entry.
  void FinishInflight(const std::shared_ptr<InflightJob>& job,
                      Result<ResultTable> result, const RuntimeStats& stats,
                      bool leader_cancelled);
  /// Waiter-side cancellation: detach `state` from `job` (if still
  /// parked) and resolve it as kCancelled. Never touches the leader.
  void CancelWaiter(const std::shared_ptr<InflightJob>& job,
                    const std::shared_ptr<internal::JobState>& state);
  /// Resolve a non-terminal state as kCancelled (no-op when already
  /// terminal); clears its on_cancel hook.
  static void ResolveCancelled(const std::shared_ptr<internal::JobState>& state,
                               std::string message);
  /// Resolve one waiter state with the leader's result.
  static void DeliverToWaiter(const std::shared_ptr<internal::JobState>& state,
                              const Result<ResultTable>& result,
                              const RuntimeStats& stats);

  void OnJobStarted(size_t queued_bytes);
  void OnJobFinished();

  InspectionSession* session_;
  ResultCache result_cache_;
  LocalEngine local_engine_;
  /// Never null: &local_engine_ unless a SetEngine override is installed.
  std::atomic<InspectionEngine*> engine_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<SharedScan>> groups_;
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<InflightJob>>
      inflight_;
  size_t jobs_scheduled_ = 0;
  size_t groups_formed_ = 0;
  size_t jobs_coscheduled_ = 0;
  size_t scan_extractions_ = 0;
  size_t scan_shared_hits_ = 0;
  size_t dedup_followers_ = 0;
  size_t dedup_promotions_ = 0;
  size_t admission_rejections_ = 0;
  size_t active_jobs_ = 0;
  /// Jobs admitted but not yet picked up by a worker (the queued-bytes
  /// quota keys on these, never on running jobs).
  size_t queued_jobs_ = 0;
  size_t queued_bytes_ = 0;
};

}  // namespace deepbase
