#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/behavior_store.h"
#include "core/block_pipeline.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace deepbase {

namespace {

// Drift guard for the SchedulerStats X-macro (see engine.cc for the
// RuntimeStats twin): every cumulative counter is a size_t, so a field
// added to the struct but not the macro changes sizeof and fails here.
#define DEEPBASE_COUNT_FIELD(type, name) +1
constexpr size_t kSchedulerCounterFieldCount =
    0 DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(DEEPBASE_COUNT_FIELD);
#undef DEEPBASE_COUNT_FIELD
static_assert(kSchedulerCounterFieldCount == 15,
              "SchedulerStats counter list changed; update the X-macro and "
              "this count together");
static_assert(sizeof(SchedulerStats) ==
                  kSchedulerCounterFieldCount * 8 +
                      sizeof(SchedulerStats::Snapshot),
              "SchedulerStats has a counter missing from "
              "DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS");

// Process-global job metrics, registered once and cached (handles are
// stable; every hit after that is a relaxed atomic add).
struct JobMetrics {
  Counter* submitted;
  Counter* ok;
  Counter* error;
  Counter* cancelled;
  Counter* slow;
  Counter* dedup_followers;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* admission_rejections;
  Counter* trace_spans_dropped;
  Gauge* queue_depth;
  Histogram* latency;
};

JobMetrics& Metrics() {
  static JobMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new JobMetrics();
    m->submitted = reg.GetCounter("deepbase_jobs_submitted_total");
    m->ok = reg.GetCounter("deepbase_jobs_total{status=\"ok\"}");
    m->error = reg.GetCounter("deepbase_jobs_total{status=\"error\"}");
    m->cancelled = reg.GetCounter("deepbase_jobs_total{status=\"cancelled\"}");
    m->slow = reg.GetCounter("deepbase_slow_jobs_total");
    m->dedup_followers = reg.GetCounter("deepbase_dedup_followers_total");
    m->cache_hits = reg.GetCounter("deepbase_result_cache_hits_total");
    m->cache_misses = reg.GetCounter("deepbase_result_cache_misses_total");
    m->admission_rejections =
        reg.GetCounter("deepbase_admission_rejections_total");
    m->trace_spans_dropped =
        reg.GetCounter("deepbase_trace_spans_dropped_total");
    m->queue_depth = reg.GetGauge("deepbase_queue_depth");
    m->latency = reg.GetHistogram("deepbase_job_latency_seconds",
                                  DefaultLatencyBounds());
    return m;
  }();
  return *metrics;
}

/// Count one job reaching a terminal state. `wall_s` < 0 skips the
/// latency histogram (callers without a submission timestamp).
void CountJobTerminal(const char* status, double wall_s) {
  JobMetrics& m = Metrics();
  if (std::strcmp(status, "ok") == 0) {
    m.ok->Inc();
  } else if (std::strcmp(status, "cancelled") == 0) {
    m.cancelled->Inc();
  } else {
    m.error->Inc();
  }
  if (wall_s >= 0) m.latency->Observe(wall_s);
}

void HashStr(const std::string& s, uint64_t* h) {
  *h = Fnv1a(s.data(), s.size(), *h);
  *h = Fnv1a(";", 1, *h);
}

template <typename T>
void HashPod(const T& value, uint64_t* h) {
  *h = Fnv1a(&value, sizeof(value), *h);
}

/// The option values that can change scores or row sets; pointers
/// (store, caches, pool, cancel) and purely observational fields never
/// participate.
void HashOptions(const InspectOptions& o, uint64_t* h) {
  HashPod(o.block_size, h);
  HashPod(o.shuffle_seed, h);
  HashPod(o.passes, h);
  HashPod(o.streaming, h);
  HashPod(o.early_stopping, h);
  HashPod(o.model_merging, h);
  HashPod(o.corr_epsilon, h);
  HashPod(o.logreg_epsilon, h);
  HashPod(o.default_epsilon, h);
  // The shard count participates only under early stopping. Full sweeps
  // are shard-count-invariant: every mergeable measure's shard merge is
  // kExact (integer counts) or kBitExact (canonical pairwise-tree
  // reduction of per-block moments), and non-mergeable measures run on
  // the sequential lane regardless of shard count — so one cached result
  // serves every shard count. Early stopping breaks the invariance (each
  // shard lane truncates at its own convergence point, so the set of
  // processed blocks depends on the dealing), hence those runs stay
  // keyed by the resolved count.
  if (o.early_stopping) HashPod(o.num_shards, h);
  HashPod(o.time_budget_s, h);
  HashPod(o.max_blocks, h);
}

/// Parse the catalog-version field out of a "cache:<fp>:<version>:<ds>"
/// blob key; false when the key is not a result-cache entry.
bool ParseBlobKeyVersion(const std::string& key, uint64_t* version) {
  constexpr char kPrefix[] = "cache:";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (key.rfind(kPrefix, 0) != 0) return false;
  const size_t fp_end = key.find(':', kPrefixLen);
  if (fp_end == std::string::npos) return false;
  const size_t version_end = key.find(':', fp_end + 1);
  if (version_end == std::string::npos) return false;
  uint64_t v = 0;
  for (size_t i = fp_end + 1; i < version_end; ++i) {
    const char c = key[i];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *version = v;
  return true;
}

/// Shared deadline gate for both admission paths: a request whose
/// deadline has already passed is rejected up front with the typed error
/// instead of occupying a queue slot it can never use.
Status CheckAdmissionDeadline(const InspectOptions& options) {
  if (options.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= options.deadline) {
    return Status::DeadlineExceeded(
        "job deadline expired before admission");
  }
  return Status::OK();
}

// Only complete, deterministic runs are cacheable/dedupable: a cancelled
// or budget-truncated result depends on wall-clock timing. A deadline is
// the same hazard as a finite time budget (whether the run completes
// depends on the clock), so deadline-bearing requests are excluded too —
// a no-deadline waiter must never inherit a leader's kDeadlineExceeded.
bool DeterministicOptions(const InspectOptions& options) {
  return options.max_blocks == std::numeric_limits<size_t>::max() &&
         std::isinf(options.time_budget_s) &&
         options.deadline == std::chrono::steady_clock::time_point::max();
}

/// Fingerprint of a fully catalog-resolved request plus the
/// score-affecting option values; nullopt when the request is not
/// cacheable (inline extractors / hypothesis / measure objects, or an
/// unresolvable dataset). `options.num_shards` must hold the engine's
/// resolved count: a raw 0 resolves per session, so a persisted result
/// must not be served to a session whose engine would deal (and
/// therefore truncate) blocks differently.
std::optional<uint64_t> RequestFingerprint(
    const InspectRequest& request, std::optional<uint64_t> dataset_fp,
    const InspectOptions& options) {
  // Cacheable requests are fully name-resolved: inline extractor,
  // hypothesis, or measure objects have no stable identity to key on.
  if (request.models.empty()) return std::nullopt;
  for (const InspectRequest::ModelRef& ref : request.models) {
    if (ref.extractor != nullptr || ref.name.empty()) return std::nullopt;
  }
  if (!request.hypotheses.empty()) return std::nullopt;
  if (!request.measures.empty()) return std::nullopt;

  uint64_t h = kFnvOffsetBasis;
  for (const InspectRequest::ModelRef& ref : request.models) {
    HashStr(ref.name, &h);
    HashPod(ref.group_by_layer, &h);
    for (const UnitGroupSpec& group : ref.groups) {
      HashStr(group.group_id, &h);
      h = Fnv1a(group.unit_ids.data(), group.unit_ids.size() * sizeof(int),
                h);
    }
  }
  for (const std::string& set : request.hypothesis_sets) HashStr(set, &h);
  HashStr("|filter", &h);
  for (const std::string& name : request.hypothesis_filter) HashStr(name, &h);
  if (!dataset_fp) return std::nullopt;
  HashPod(*dataset_fp, &h);
  HashStr("|measures", &h);
  for (const std::string& name : request.measure_names) HashStr(name, &h);
  const bool has_min = request.min_abs_unit_score.has_value();
  HashPod(has_min, &h);
  if (has_min) HashPod(*request.min_abs_unit_score, &h);
  HashOptions(options, &h);
  return h;
}

/// Batching key for shared-scan grouping: model ids + dataset fingerprint
/// + the options that shape the block sequence. nullopt when a model or
/// the dataset does not resolve (the job then runs solo and reports its
/// own compile error). `extractors` are the request's resolved models.
std::optional<std::string> BatchKey(
    const InspectRequest& request,
    const std::vector<const Extractor*>& extractors,
    std::optional<uint64_t> dataset_fp, const InspectOptions& options) {
  if (request.models.empty()) return std::nullopt;
  std::string key;
  for (size_t m = 0; m < request.models.size(); ++m) {
    const InspectRequest::ModelRef& ref = request.models[m];
    if (extractors[m] == nullptr) return std::nullopt;
    key += extractors[m]->model_id();
    key += '@';
    // The unit-group footprint: blocks are keyed by the unit *union* in
    // the scan, so only jobs with identical footprints can share cached
    // blocks — keeping different footprints in different groups stops a
    // layer-0 job's blocks from being held pending for a layer-1 job
    // that will never read them.
    uint64_t gh = kFnvOffsetBasis;
    gh = Fnv1a(&ref.group_by_layer, sizeof(ref.group_by_layer), gh);
    for (const UnitGroupSpec& group : ref.groups) {
      const uint64_t n = group.unit_ids.size();
      gh = Fnv1a(&n, sizeof(n), gh);
      gh = Fnv1a(group.unit_ids.data(), group.unit_ids.size() * sizeof(int),
                 gh);
    }
    key += std::to_string(gh);
    key += '|';
  }
  if (!dataset_fp) return std::nullopt;
  key += std::to_string(*dataset_fp);
  // Scan-shaping options: jobs with different block sequences would never
  // share cached blocks anyway, so keep their groups separate.
  key += '|';
  key += std::to_string(options.block_size);
  key += ':';
  key += std::to_string(options.shuffle_seed);
  key += ':';
  key += options.streaming ? 's' : 'm';
  key += ':';
  key += std::to_string(options.passes);
  return key;
}

/// Rough extraction footprint of a request (dataset rows × unit count),
/// the unit of the queued-bytes quota.
size_t EstimateQueuedBytes(const std::vector<const Extractor*>& extractors,
                           const Dataset* dataset) {
  size_t units = 0;
  for (const Extractor* extractor : extractors) {
    if (extractor != nullptr) units += extractor->num_units();
  }
  const size_t symbols =
      dataset != nullptr ? dataset->num_records() * dataset->ns() : 0;
  const size_t estimate =
      symbols * std::max<size_t>(units, 1) * sizeof(float);
  // Unresolvable requests still occupy a queue slot; charge a floor.
  return std::max<size_t>(estimate, size_t{1} << 10);
}

}  // namespace

std::string ResultCacheBlobKey(uint64_t fingerprint, uint64_t version,
                               uint64_t dataset_fingerprint) {
  return "cache:" + HexU64(fingerprint) + ":" + HexU64(version) + ":" +
         HexU64(dataset_fingerprint);
}

// ---------------------------------------------------------------------------
// ResultCache.
// ---------------------------------------------------------------------------

std::optional<ResultTable> ResultCache::Lookup(uint64_t fingerprint,
                                               uint64_t version,
                                               uint64_t dataset_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) {
    // Below the admission floor: the catalog has already invalidated this
    // version; never serve it even if a late admission slipped an entry in.
    ++misses_;
    return std::nullopt;
  }
  auto it = index_.find({fingerprint, version});
  if (it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->table;
  }
  if (persist_) {
    Result<std::string> blob = store_->GetBlob(
        ResultCacheBlobKey(fingerprint, version, dataset_fingerprint));
    if (blob.ok()) {
      Result<ResultTable> table = ResultTable::DeserializeFromString(*blob);
      if (table.ok()) {
        // Revalidated by construction: the blob key carries the catalog
        // version and dataset fingerprint this lookup asked for.
        ++hits_;
        ++persistent_hits_;
        ResultTable value = std::move(table).ValueOrDie();
        ResultTable copy = value;
        AdmitLocked(fingerprint, version, std::move(value));
        return copy;
      }
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::Insert(uint64_t fingerprint, uint64_t version,
                         uint64_t dataset_fingerprint, ResultTable table) {
  // Serialization does not depend on cache state; keep it off the lock.
  std::string serialized;
  if (persist_) serialized = table.SerializeToString();
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) {
    // The stale-admission window, closed: this result was computed under
    // a catalog version that a Register* has already invalidated. Had it
    // been admitted, no later InvalidateBelow would sweep it (the sweep
    // already ran) and a restarted session whose version counter re-
    // reaches `version` could be served a stale table.
    ++stale_rejections_;
    return;
  }
  if (persist_) {
    ++persistent_writes_;
    // Best-effort: a full disk fails the Put, the memory tier still
    // works. The write stays under mu_ deliberately — the floor check
    // above and the blob write must be atomic against InvalidateBelow's
    // purge, or a racing Register* could sweep the directory *before*
    // this stale blob lands and it would survive on disk.
    store_->PutBlob(
        ResultCacheBlobKey(fingerprint, version, dataset_fingerprint),
        serialized);
  }
  AdmitLocked(fingerprint, version, std::move(table));
}

void ResultCache::AdmitLocked(uint64_t fingerprint, uint64_t version,
                              ResultTable table) {
  auto it = index_.find({fingerprint, version});
  if (it != index_.end()) EraseLocked(it->second);
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.version = version;
  entry.bytes = table.EstimatedBytes();
  entry.table = std::move(table);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[{fingerprint, version}] = lru_.begin();
  while (bytes_ > budget_ && lru_.size() > 1) {
    ++evictions_;
    EraseLocked(std::prev(lru_.end()));
  }
  if (bytes_ > budget_ && lru_.size() == 1) {
    // A single oversized result never fits; don't pin it.
    ++evictions_;
    EraseLocked(lru_.begin());
  }
}

void ResultCache::InvalidateBelow(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version <= floor_version_) return;  // already invalidated up to here
  floor_version_ = version;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->version < version) {
      ++invalidations_;
      EraseLocked(it);
    }
    it = next;
  }
  if (persist_) {
    // Purge stale persisted entries too: a restarted session re-reaches
    // old version numbers (the counter starts at 0), so leaving them on
    // disk would let a different catalog at the same version be served a
    // stale table.
    for (const std::string& key : store_->BlobKeys()) {
      uint64_t blob_version = 0;
      if (!ParseBlobKeyVersion(key, &blob_version)) continue;
      if (blob_version < version) {
        store_->RemoveBlob(key);
        ++invalidations_;
      }
    }
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void ResultCache::EraseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase({it->fingerprint, it->version});
  lru_.erase(it);
}

std::string ResultCache::PeekTier(uint64_t fingerprint, uint64_t version,
                                  uint64_t dataset_fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version < floor_version_) return "";
  if (index_.count({fingerprint, version}) > 0) return "memory";
  if (persist_ && store_->ContainsBlob(ResultCacheBlobKey(
                      fingerprint, version, dataset_fingerprint))) {
    return "persistent";
  }
  return "";
}

size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
size_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
size_t ResultCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}
size_t ResultCache::persistent_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persistent_writes_;
}
size_t ResultCache::persistent_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persistent_hits_;
}
size_t ResultCache::stale_rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_rejections_;
}
size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}
size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

// ---------------------------------------------------------------------------
// SchedulerStats.
// ---------------------------------------------------------------------------

void SchedulerStats::Accumulate(const SchedulerStats& other) {
#define DEEPBASE_SUM_FIELD(type, name) name += other.name;
  DEEPBASE_SCHEDULER_STATS_COUNTER_FIELDS(DEEPBASE_SUM_FIELD)
#undef DEEPBASE_SUM_FIELD
  // Gauges are point-in-time, not additive: the most recent poll wins.
  snapshot = other.snapshot;
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

Scheduler::Scheduler(InspectionSession* session)
    : session_(session),
      result_cache_(session->config_.result_cache_budget_bytes,
                    session->store_.get(),
                    session->config_.persist_result_cache),
      local_engine_(session),
      engine_(&local_engine_) {
  if (session->store_ != nullptr && session->config_.persist_result_cache &&
      session->config_.result_cache_disk_quota_bytes > 0) {
    session->store_->SetBlobNamespaceQuota(
        "cache", session->config_.result_cache_disk_quota_bytes);
  }
}

void Scheduler::OnCatalogMutation(uint64_t version) {
  result_cache_.InvalidateBelow(version);
}

std::optional<Scheduler::GroupHandle> Scheduler::AttachToGroup(
    const std::optional<std::string>& key) {
  if (!key) return std::nullopt;
  GroupHandle handle;
  handle.key = *key;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<SharedScan>& scan = groups_[*key];
  if (scan == nullptr) {
    scan = std::make_shared<SharedScan>(
        session_->config_.shared_scan_budget_bytes);
    ++groups_formed_;
  } else {
    ++jobs_coscheduled_;
  }
  handle.scan = scan;
  handle.client = std::make_shared<SharedScanClient>(scan);
  return handle;
}

void Scheduler::ReleaseGroup(GroupHandle* group) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    scan_extractions_ += group->client->extractions();
    scan_shared_hits_ += group->client->shared_hits();
  }
  group->client.reset();  // detaches this job from the scan
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(group->key);
  if (it != groups_.end() && it->second == group->scan &&
      it->second->attached() == 0) {
    groups_.erase(it);
  }
  group->scan.reset();
}

void Scheduler::OnJobStarted(size_t queued_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queued_jobs_ > 0) --queued_jobs_;
  queued_bytes_ -= std::min(queued_bytes_, queued_bytes);
}

void Scheduler::OnJobFinished() {
  Metrics().queue_depth->Sub(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (active_jobs_ > 0) --active_jobs_;
}

void Scheduler::ResolveCancelled(
    const std::shared_ptr<internal::JobState>& state, std::string message) {
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->status == JobStatus::kDone ||
      state->status == JobStatus::kCancelled) {
    return;
  }
  state->on_cancel = nullptr;
  state->status = JobStatus::kCancelled;
  state->result = Status::Cancelled(std::move(message));
  state->cv.notify_all();
}

void Scheduler::DeliverToWaiter(
    const std::shared_ptr<internal::JobState>& state,
    const Result<ResultTable>& result, const RuntimeStats& stats) {
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->status == JobStatus::kDone ||
      state->status == JobStatus::kCancelled) {
    return;  // already resolved (e.g. a concurrent CancelWaiter)
  }
  // A waiter whose Cancel() hook lost the race with this delivery still
  // gets the result: it is complete, the same rule as a Cancel() racing
  // a leader's completion.
  state->on_cancel = nullptr;
  RuntimeStats waiter_stats;
  waiter_stats.dedup_hits = 1;
  waiter_stats.total_s = stats.total_s;  // the leader's wall clock
  state->stats = waiter_stats;
  state->status = JobStatus::kDone;
  state->result = result;
  state->cv.notify_all();
}

void Scheduler::CancelWaiter(const std::shared_ptr<InflightJob>& job,
                             const std::shared_ptr<internal::JobState>& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(job->waiters.begin(), job->waiters.end(), state);
    if (it == job->waiters.end()) {
      // Already delivered to, or promoted to leader (its run polls the
      // cancel flag): nothing to resolve here, and the leader is
      // untouched either way.
      return;
    }
    job->waiters.erase(it);
  }
  ResolveCancelled(state,
                   "job " + std::to_string(state->id) +
                       " cancelled while waiting on an identical in-flight "
                       "job");
  FinalizeJob(state, "cancelled");
}

void Scheduler::FinishInflight(const std::shared_ptr<InflightJob>& job,
                               Result<ResultTable> result,
                               const RuntimeStats& stats,
                               bool leader_cancelled) {
  RuntimeStats current_stats = stats;
  bool cancelled = leader_cancelled;
  // A promoted waiter whose run completed is resolved only after the
  // registry entry is retired, so "every handle resolved" implies "the
  // registry is clean" — no transiently observable in-flight entry.
  std::shared_ptr<internal::JobState> pending;
  RuntimeStats pending_stats;
  while (true) {
    std::vector<std::shared_ptr<internal::JobState>> to_cancel;
    std::vector<std::shared_ptr<internal::JobState>> to_deliver;
    std::shared_ptr<internal::JobState> promoted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled) {
        // The leader died without a complete result: promote the first
        // waiter that has not itself been cancelled; it re-runs the
        // request on this thread. Cancelled waiters resolve as cancelled.
        while (!job->waiters.empty()) {
          std::shared_ptr<internal::JobState> candidate =
              job->waiters.front();
          job->waiters.erase(job->waiters.begin());
          if (candidate->cancel.load(std::memory_order_relaxed)) {
            to_cancel.push_back(std::move(candidate));
          } else {
            promoted = std::move(candidate);
            break;
          }
        }
        if (promoted != nullptr) ++dedup_promotions_;
      }
      if (promoted == nullptr) {
        // Terminal: retire the registry entry, then deliver (the result
        // or the leader's cancellation) to every remaining waiter.
        job->done = true;
        to_deliver.swap(job->waiters);
        auto it =
            inflight_.find({*job->plan.fingerprint, job->plan.catalog_version});
        if (it != inflight_.end() && it->second == job) inflight_.erase(it);
      }
    }
    for (const auto& state : to_cancel) {
      ResolveCancelled(state,
                       "job " + std::to_string(state->id) +
                           " cancelled while waiting on an identical "
                           "in-flight job");
      FinalizeJob(state, "cancelled");
    }
    if (promoted == nullptr) {
      if (pending != nullptr) {
        // The promoted ex-waiter that produced `result`: its terminal
        // state was held back until the registry retirement above.
        {
          std::lock_guard<std::mutex> lock(pending->mu);
          pending->stats = pending_stats;
          pending->status = JobStatus::kDone;
          pending->result = result;
          pending->cv.notify_all();
        }
        FinalizeJob(pending, result.ok() ? "ok" : "error");
      }
      for (const auto& state : to_deliver) {
        if (cancelled) {
          ResolveCancelled(state,
                           "leader of the deduplicated job was cancelled "
                           "and no waiter could be promoted");
          FinalizeJob(state, "cancelled");
        } else {
          DeliverToWaiter(state, result, current_stats);
          FinalizeJob(state, result.ok() ? "ok" : "error");
        }
      }
      return;
    }
    // Promotion: the ex-waiter becomes the leader and re-runs on this
    // thread with its own cancellation; later waiters stay attached (the
    // registry entry survives) and are served by this run.
    std::shared_ptr<Tracer> promoted_tracer;
    uint64_t promoted_root = 0;
    {
      std::lock_guard<std::mutex> lock(promoted->mu);
      promoted->on_cancel = nullptr;
      promoted->status = JobStatus::kRunning;
      promoted_tracer = promoted->tracer;
      promoted_root = promoted->root_span;
    }
    RuntimeStats promoted_stats;
    Result<ResultTable> promoted_result =
        Execute(job->request, job->plan, AttachToGroup(job->plan.group_key),
                &promoted->cancel, promoted->progress.get(), &promoted_stats,
                promoted_tracer.get(), promoted_root);
    pending.reset();
    if (promoted_stats.cancelled) {
      // Cancelled promotions resolve immediately (the next loop turn may
      // promote someone else; this handle's fate is already sealed).
      {
        std::lock_guard<std::mutex> lock(promoted->mu);
        promoted->stats = promoted_stats;
        promoted->status = JobStatus::kCancelled;
        promoted->result = Status::Cancelled(
            "job " + std::to_string(promoted->id) + " cancelled after " +
            std::to_string(promoted_stats.blocks_processed) + " blocks");
        promoted->cv.notify_all();
      }
      FinalizeJob(promoted, "cancelled");
    } else {
      // Completed (or errored): defer resolution until the registry
      // entry is retired on the next loop turn.
      pending = promoted;
      pending_stats = promoted_stats;
    }
    result = std::move(promoted_result);
    current_stats = promoted_stats;
    cancelled = promoted_stats.cancelled;
  }
}

void Scheduler::SetEngine(InspectionEngine* engine) {
  engine_.store(engine != nullptr ? engine : &local_engine_,
                std::memory_order_release);
}

void Scheduler::FinalizeJob(const std::shared_ptr<internal::JobState>& state,
                            const char* status) {
  std::shared_ptr<Tracer> tracer;
  uint64_t root_span = 0;
  int64_t submit_ns = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->finalized) return;
    state->finalized = true;
    tracer = state->tracer;
    root_span = state->root_span;
    submit_ns = state->submit_ns;
  }
  const int64_t now_ns = TraceNowNs();
  const double wall_s =
      submit_ns > 0 ? static_cast<double>(now_ns - submit_ns) * 1e-9 : -1;
  CountJobTerminal(status, wall_s);
  if (tracer == nullptr) return;
  // The root span is recorded here, at the terminal transition, so the
  // slow-job dump below always sees a complete tree.
  TraceSpan root;
  root.span_id = root_span;
  root.parent_id = 0;
  root.name = "sched.job";
  root.start_ns = submit_ns;
  root.duration_ns = now_ns - submit_ns;
  root.tags = std::string("status=") + status;
  tracer->Record(std::move(root));
  // Per-job ring overflow, exported once at the terminal transition (the
  // `finalized` latch above guarantees exactly one count per job).
  if (tracer->dropped() > 0) {
    Metrics().trace_spans_dropped->Inc(tracer->dropped());
  }
  const double threshold = session_->config_.slow_job_threshold_s;
  if (threshold > 0 && wall_s > threshold) {
    Metrics().slow->Inc();
    DB_LOG(Warn) << "slow job trace=" << HexU64(tracer->trace_id())
                 << " wall_s=" << wall_s << " threshold_s=" << threshold
                 << " status=" << status << " dropped_spans="
                 << tracer->dropped() << " — span tree follows";
    for (const TraceSpan& span : tracer->Spans()) {
      DB_LOG(Warn) << FormatSpanLogLine(tracer->trace_id(), span, submit_ns);
    }
  }
}

Result<ResultTable> Scheduler::Execute(const InspectRequest& request,
                                       const JobPlan& plan,
                                       std::optional<GroupHandle> group,
                                       const std::atomic<bool>* cancel,
                                       ProgressCounter* progress,
                                       RuntimeStats* stats, Tracer* tracer,
                                       uint64_t parent_span) {
  InspectRequest effective = request;
  InspectOptions options = session_->EffectiveOptions(request);
  if (cancel != nullptr) options.cancel = cancel;
  if (progress != nullptr) options.progress = progress;
  if (group) options.shared_scan = group->client.get();
  if (options.tracer == nullptr && tracer != nullptr) {
    // A request that already carries its own tracer (a worker replaying
    // a coordinator assignment) keeps it; otherwise the job's tracer
    // rides into the engine here.
    options.tracer = tracer;
    options.trace_parent_span = parent_span;
  }
  effective.options = options;
  RuntimeStats local;
  InspectionEngine* engine = engine_.load(std::memory_order_acquire);
  Result<ResultTable> result =
      engine->Run(effective, session_->config_.options, &local);
  if (group) ReleaseGroup(&*group);
  // A fingerprint may exist purely for dedup; only admit to the cache
  // when the result cache itself is enabled.
  if (plan.cacheable) {
    local.result_cache_misses = 1;
    Metrics().cache_misses->Inc();
    // Only complete, deterministic runs are cacheable. Staleness is
    // handled inside Insert: its admission floor was raised synchronously
    // by any Register* that happened while this job ran, so a result
    // computed under an invalidated catalog version is rejected there —
    // no check-then-insert race against the catalog here.
    if (result.ok() && !local.cancelled && plan.deterministic) {
      result_cache_.Insert(*plan.fingerprint, plan.catalog_version,
                           plan.dataset_fingerprint, *result);
    }
  }
  if (stats != nullptr) *stats = local;
  return result;
}

// ---------------------------------------------------------------------------
// The plan and the decision: the one copy of every admission gate.
// ---------------------------------------------------------------------------

Scheduler::LocalEngine::LocalEngine(InspectionSession* session)
    : session_(session),
      pool_threads_(ThreadPool::ResolveThreads(session->config_.num_threads)) {}

size_t Scheduler::LocalEngine::Shards(const InspectOptions& options) const {
  // The pool EffectiveOptions will attach: the request's own, else the
  // session pool (num_shards == 1 runs resolve to 1 either way).
  return ResolveShards(options.num_shards, options.pool != nullptr
                                               ? options.pool->num_threads()
                                               : pool_threads_);
}

EnginePlan Scheduler::LocalEngine::PlanDispatch(
    const InspectRequest& /*request*/, const InspectPlan& compiled) const {
  EnginePlan plan;
  plan.shards = Shards(compiled.options);
  return plan;
}

Result<ResultTable> Scheduler::LocalEngine::Run(
    const InspectRequest& request, const InspectOptions& default_options,
    RuntimeStats* stats) {
  return RunInspectRequest(request, session_->catalog_, default_options,
                           stats);
}

JobPlan Scheduler::Plan(const InspectRequest& request) const {
  const SessionConfig& config = session_->config_;
  const Catalog& catalog = session_->catalog_;
  JobPlan plan;
  plan.options = request.options.value_or(config.options);
  plan.gate = CheckAdmissionDeadline(plan.options);
  if (plan.gate.ok() && failpoint::Armed()) {
    plan.gate = failpoint::Evaluate("scheduler.admit");
  }
  plan.catalog_version = catalog.version();
  plan.deterministic = DeterministicOptions(plan.options);
  plan.shards = engine().Shards(plan.options);

  // One catalog lookup per named model and dataset feeds the fingerprint,
  // the batching key and the queued-bytes estimate.
  std::vector<const Extractor*> extractors;
  extractors.reserve(request.models.size());
  for (const InspectRequest::ModelRef& ref : request.models) {
    const Extractor* extractor = ref.extractor;
    if (extractor == nullptr && !ref.name.empty()) {
      Result<CatalogModel> entry = catalog.GetModel(ref.name);
      if (entry.ok()) extractor = entry->extractor;
    }
    extractors.push_back(extractor);
  }
  // Named datasets use the catalog's registration snapshot, inline ones
  // a live content hash.
  const Dataset* dataset = request.dataset;
  std::optional<uint64_t> dataset_fp;
  if (dataset != nullptr) {
    dataset_fp = DatasetFingerprint(*dataset);
  } else if (!request.dataset_name.empty()) {
    Result<CatalogDataset> entry = catalog.GetDataset(request.dataset_name);
    if (entry.ok()) {
      dataset = entry->dataset;
      dataset_fp = entry->fingerprint;
    }
  }
  plan.queued_bytes = EstimateQueuedBytes(extractors, dataset);
  plan.shared_scan = config.enable_shared_scan;
  if (plan.shared_scan) {
    plan.group_key = BatchKey(request, extractors, dataset_fp, plan.options);
  }
  // The fingerprint keys both the result cache and the dedup registry;
  // either feature alone needs it. Bit-exact shard merges make full
  // sweeps shard-count-invariant, so HashOptions reads the engine's
  // resolved shard count only under early stopping.
  if (config.enable_result_cache || config.enable_inflight_dedup) {
    InspectOptions fp_options = plan.options;
    fp_options.num_shards = plan.shards;
    plan.fingerprint = RequestFingerprint(request, dataset_fp, fp_options);
    if (plan.fingerprint) plan.dataset_fingerprint = *dataset_fp;
  }
  plan.cacheable = plan.fingerprint.has_value() && config.enable_result_cache;
  plan.dedupable = plan.fingerprint.has_value() &&
                   config.enable_inflight_dedup && plan.deterministic;
  return plan;
}

JobDecision Scheduler::DecideLocked(
    const JobPlan& plan, bool queued,
    std::shared_ptr<InflightJob>* leader) const {
  JobDecision decision;
  decision.active_jobs = active_jobs_;
  decision.queued_bytes = queued_bytes_;
  // An identical in-flight job makes this one a waiter, bypassing
  // admission: it consumes no engine resources.
  if (plan.dedupable) {
    auto it = inflight_.find({*plan.fingerprint, plan.catalog_version});
    if (it != inflight_.end() && !it->second->done) {
      decision.role = JobDecision::Role::kWaiter;
      if (leader != nullptr) *leader = it->second;
      return decision;
    }
  }
  const SessionConfig& config = session_->config_;
  if (config.max_concurrent_jobs > 0 &&
      active_jobs_ >= config.max_concurrent_jobs) {
    decision.role = JobDecision::Role::kReject;
    decision.reject = Status::ResourceExhausted(
        "concurrent-job quota exhausted: " + std::to_string(active_jobs_) +
        " active, quota " + std::to_string(config.max_concurrent_jobs));
  } else if (queued && config.max_queued_bytes > 0 && queued_jobs_ > 0 &&
             queued_bytes_ + plan.queued_bytes > config.max_queued_bytes) {
    // Keyed on queued (not running) jobs: the first job into an empty
    // queue is always admitted, even over-size, so a single large
    // request cannot wedge the session.
    decision.role = JobDecision::Role::kReject;
    decision.reject = Status::ResourceExhausted(
        "queued-bytes quota exhausted: " + std::to_string(queued_bytes_) +
        " queued + " + std::to_string(plan.queued_bytes) +
        " requested > quota " + std::to_string(config.max_queued_bytes));
  }
  return decision;
}

JobDecision Scheduler::Decide(const JobPlan& plan) const {
  std::lock_guard<std::mutex> lock(mu_);
  JobDecision decision = DecideLocked(plan, /*queued=*/true, nullptr);
  decision.group_exists = plan.group_key && groups_.count(*plan.group_key) > 0;
  return decision;
}

Scheduler::Admission Scheduler::Admit(
    const InspectRequest& request, bool queued,
    const std::shared_ptr<internal::JobState>& state) {
  Metrics().submitted->Inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++jobs_scheduled_;
  }
  Admission admission;
  admission.plan = Plan(request);
  const JobPlan& plan = admission.plan;
  if (!plan.gate.ok()) {
    admission.status = plan.gate;
    return admission;
  }
  if (plan.cacheable) {
    result_cache_.InvalidateBelow(plan.catalog_version);
    admission.hit = result_cache_.Lookup(*plan.fingerprint,
                                         plan.catalog_version,
                                         plan.dataset_fingerprint);
    if (admission.hit) {
      Metrics().cache_hits->Inc();
      return admission;
    }
  }
  // One critical section decides the role and registers it, so a
  // rejected request leaves no registry entry behind.
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<InflightJob> leader;
  const JobDecision decision = DecideLocked(plan, queued, &leader);
  switch (decision.role) {
    case JobDecision::Role::kWaiter:
      state->progress = leader->progress;  // poll the leader's run
      leader->waiters.push_back(state);
      ++dedup_followers_;
      Metrics().dedup_followers->Inc();
      admission.waiter = true;
      admission.inflight = std::move(leader);
      break;
    case JobDecision::Role::kReject:
      ++admission_rejections_;
      Metrics().admission_rejections->Inc();
      admission.status = decision.reject;
      break;
    case JobDecision::Role::kLeader:
      ++active_jobs_;
      Metrics().queue_depth->Add(1);
      if (queued) {
        ++queued_jobs_;
        queued_bytes_ += plan.queued_bytes;
      }
      if (plan.dedupable) {
        admission.inflight = std::make_shared<InflightJob>();
        admission.inflight->plan = plan;
        admission.inflight->request = request;
        // The leader's own counter, so waiters poll this run's progress.
        admission.inflight->progress = state->progress;
        inflight_[{*plan.fingerprint, plan.catalog_version}] =
            admission.inflight;
      }
      break;
  }
  return admission;
}

Result<ResultTable> Scheduler::RunSync(const InspectRequest& request,
                                       RuntimeStats* stats) {
  const int64_t submit_ns = TraceNowNs();
  auto waiter = std::make_shared<internal::JobState>();
  waiter->submit_ns = submit_ns;
  Admission admission = Admit(request, /*queued=*/false, waiter);
  if (admission.hit) {
    if (stats != nullptr) {
      *stats = RuntimeStats{};
      stats->result_cache_hits = 1;
    }
    CountJobTerminal("ok",
                     static_cast<double>(TraceNowNs() - submit_ns) * 1e-9);
    return std::move(*admission.hit);
  }
  if (!admission.status.ok()) {
    // A gate failure returns before the job exists; a quota rejection
    // counts as an errored job.
    if (admission.plan.gate.ok()) CountJobTerminal("error", -1);
    return admission.status;
  }
  if (admission.waiter) {
    std::unique_lock<std::mutex> lock(waiter->mu);
    waiter->cv.wait(lock, [&waiter] {
      return waiter->status == JobStatus::kDone ||
             waiter->status == JobStatus::kCancelled;
    });
    if (stats != nullptr) *stats = waiter->stats;
    return *waiter->result;
  }

  const std::shared_ptr<InflightJob>& inflight = admission.inflight;
  RuntimeStats local;
  Result<ResultTable> result = Execute(
      request, admission.plan, AttachToGroup(admission.plan.group_key),
      /*cancel=*/nullptr, inflight ? inflight->progress.get() : nullptr,
      &local);
  if (inflight) {
    FinishInflight(inflight, result, local, /*leader_cancelled=*/false);
  }
  OnJobFinished();
  CountJobTerminal(local.cancelled ? "cancelled"
                                   : (result.ok() ? "ok" : "error"),
                   static_cast<double>(TraceNowNs() - submit_ns) * 1e-9);
  if (stats != nullptr) *stats = local;
  return result;
}

JobHandle Scheduler::Submit(InspectRequest request, uint64_t trace_id) {
  const int64_t submit_ns = TraceNowNs();
  // The job's tracer exists before any admission decision, so even
  // born-terminal handles carry a (tiny) trace. An inbound trace_id (the
  // serving layer) is adopted; 0 mints a fresh one.
  std::shared_ptr<Tracer> tracer;
  uint64_t root_span = 0;
  if (session_->config_.enable_tracing) {
    tracer = std::make_shared<Tracer>(
        trace_id != 0 ? trace_id : NewTraceId(),
        session_->config_.trace_ring_capacity);
    root_span = NewSpanId();
  }
  auto state = session_->NewJobState();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->tracer = tracer;
    state->root_span = root_span;
    state->submit_ns = submit_ns;
  }
  Admission admission = Admit(request, /*queued=*/true, state);
  if (admission.hit || !admission.status.ok()) {
    // Born terminal: served from the cache without touching the engine,
    // or rejected (Submit has no Status channel).
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->status = JobStatus::kDone;
      if (admission.hit) {
        state->stats.result_cache_hits = 1;
        state->result = std::move(*admission.hit);
      } else {
        state->result = admission.status;
      }
      state->cv.notify_all();
    }
    FinalizeJob(state, admission.hit ? "ok" : "error");
    return JobHandle(state);
  }
  if (admission.waiter) {
    // Cancel on a waiter resolves the waiter, never the leader. Installed
    // only while the state is still parked: a delivery or promotion that
    // already ran owns the state from here on.
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->status == JobStatus::kQueued) {
      std::weak_ptr<internal::JobState> weak_state = state;
      state->on_cancel = [this, job = admission.inflight, weak_state] {
        if (auto locked = weak_state.lock()) CancelWaiter(job, locked);
      };
    }
    return JobHandle(state);
  }

  if (tracer != nullptr) {
    // Admission is over: one span covers the deadline gate, fingerprint,
    // cache probe, and the dedup/quota critical section.
    TraceSpan admit_span;
    admit_span.span_id = NewSpanId();
    admit_span.parent_id = root_span;
    admit_span.name = "sched.admit";
    admit_span.start_ns = submit_ns;
    admit_span.duration_ns = TraceNowNs() - submit_ns;
    if (admission.inflight != nullptr) admit_span.tags = "dedup=leader";
    tracer->Record(std::move(admit_span));
  }

  ThreadPool* pool = session_->EnsurePool();
  // Group membership is claimed at submit time (not when the worker picks
  // the job up), so every job queued in one burst lands in one group.
  std::optional<GroupHandle> group = AttachToGroup(admission.plan.group_key);
  pool->Submit([this, state, plan = std::move(admission.plan),
                inflight = std::move(admission.inflight), submit_ns,
                group = std::move(group),
                request = std::move(request)]() mutable {
    OnJobStarted(plan.queued_bytes);
    const int64_t start_ns = TraceNowNs();
    std::shared_ptr<Tracer> job_tracer;
    uint64_t job_root = 0;
    bool dropped = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->queue_s = static_cast<double>(start_ns - submit_ns) * 1e-9;
      job_tracer = state->tracer;
      job_root = state->root_span;
      if (state->cancel.load(std::memory_order_relaxed)) {
        state->status = JobStatus::kCancelled;
        state->result =
            Status::Cancelled("job " + std::to_string(state->id) +
                              " cancelled before execution");
        state->cv.notify_all();
        dropped = true;
      } else {
        state->status = JobStatus::kRunning;
      }
    }
    if (job_tracer != nullptr) {
      TraceSpan queue_span;
      queue_span.span_id = NewSpanId();
      queue_span.parent_id = job_root;
      queue_span.name = "sched.queue";
      queue_span.start_ns = submit_ns;
      queue_span.duration_ns = start_ns - submit_ns;
      job_tracer->Record(std::move(queue_span));
    }
    if (dropped) {
      // Detach so the fused group's pending-block accounting does not
      // wait on a job that will never read anything.
      if (group) ReleaseGroup(&*group);
      if (inflight) {
        // The leader never ran: promote a waiter (it re-runs here, on
        // the thread the leader would have used) or fail them cleanly.
        FinishInflight(inflight, Status::Cancelled("leader cancelled"),
                       RuntimeStats{}, /*leader_cancelled=*/true);
      }
      OnJobFinished();
      FinalizeJob(state, "cancelled");
      return;
    }
    RuntimeStats stats;
    Result<ResultTable> result =
        Execute(request, plan, std::move(group), &state->cancel,
                state->progress.get(), &stats, job_tracer.get(), job_root);
    auto resolve_leader = [&] {
      std::lock_guard<std::mutex> lock(state->mu);
      state->stats = stats;
      // Key off what the engine actually observed (stats.cancelled), not a
      // re-read of the atomic: a Cancel() racing with completion must not
      // discard a fully computed result.
      if (stats.cancelled) {
        state->status = JobStatus::kCancelled;
        state->result =
            Status::Cancelled("job " + std::to_string(state->id) +
                              " cancelled after " +
                              std::to_string(stats.blocks_processed) +
                              " blocks");
      } else {
        state->status = JobStatus::kDone;
        state->result = result;
      }
      state->cv.notify_all();
    };
    const char* final_status =
        stats.cancelled ? "cancelled" : (result.ok() ? "ok" : "error");
    if (inflight && stats.cancelled) {
      // A cancelled leader resolves promptly — FinishInflight may spend a
      // while re-running the request for a promoted waiter.
      resolve_leader();
      FinalizeJob(state, final_status);
      FinishInflight(inflight, std::move(result), stats, true);
    } else if (inflight) {
      // Retire the registry entry before the leader's own handle resolves
      // so "all handles done" always implies "registry clean".
      FinishInflight(inflight, result, stats, false);
      resolve_leader();
      FinalizeJob(state, final_status);
    } else {
      resolve_leader();
      FinalizeJob(state, final_status);
    }
    OnJobFinished();
  });
  return JobHandle(state);
}


SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.jobs_scheduled = jobs_scheduled_;
    s.groups_formed = groups_formed_;
    s.jobs_coscheduled = jobs_coscheduled_;
    s.scan_extractions = scan_extractions_;
    s.scan_shared_hits = scan_shared_hits_;
    s.dedup_followers = dedup_followers_;
    s.dedup_promotions = dedup_promotions_;
    s.admission_rejections = admission_rejections_;
    s.snapshot.inflight_jobs = inflight_.size();
    s.snapshot.active_jobs = active_jobs_;
    s.snapshot.queued_bytes = queued_bytes_;
  }
  s.result_cache_hits = result_cache_.hits();
  s.result_cache_misses = result_cache_.misses();
  s.result_cache_evictions = result_cache_.evictions();
  s.result_cache_invalidations = result_cache_.invalidations();
  s.result_cache_persistent_hits = result_cache_.persistent_hits();
  s.result_cache_persistent_writes = result_cache_.persistent_writes();
  s.result_cache_stale_rejections = result_cache_.stale_rejections();
  s.snapshot.result_cache_bytes = result_cache_.bytes();
  s.snapshot.result_cache_entries = result_cache_.entries();
  return s;
}

size_t Scheduler::active_groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

size_t Scheduler::inflight_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

}  // namespace deepbase
