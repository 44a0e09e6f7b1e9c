#include "core/block_pipeline.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "core/behavior_store.h"
#include "core/cache.h"
#include "core/shared_scan.h"
#include "util/logging.h"
#include "util/trace.h"

namespace deepbase {

namespace {

// Error threshold for a measure family (paper §6.2 defaults).
double EpsilonFor(const MeasureFactory& factory, const InspectOptions& opts) {
  const std::string& name = factory.name();
  if (name.rfind("correlation", 0) == 0) return opts.corr_epsilon;
  if (name.rfind("logreg", 0) == 0) return opts.logreg_epsilon;
  return opts.default_epsilon;
}

}  // namespace

size_t ResolveShards(size_t num_shards, size_t default_shards) {
  const size_t shards = num_shards != 0 ? num_shards : default_shards;
  return std::clamp<size_t>(shards, 1, kMaxShards);
}

LaneDecision DecideLane(const MeasureFactory& factory,
                        const HypothesisFn& hypothesis,
                        const InspectOptions& options) {
  if (options.model_merging && factory.mergeable() &&
      hypothesis.num_classes() == 2) {
    return {LaneKind::kMergedComposite, MergeExactness::kNone};
  }
  // Merge exactness is a property of the measure kind; a one-unit probe
  // reads it.
  const std::unique_ptr<Measure> probe =
      factory.Create(1, hypothesis.num_classes());
  const MergeExactness exactness =
      probe == nullptr ? MergeExactness::kNone : probe->merge_exactness();
  return {exactness == MergeExactness::kNone ? LaneKind::kSequential
                                             : LaneKind::kShard,
          exactness};
}

bool Sliceable(const std::vector<MeasureFactoryPtr>& measures,
               const std::vector<HypothesisPtr>& hypotheses,
               const InspectOptions& options, size_t total_shards) {
  if (options.streaming || total_shards < 2) return false;
  for (const MeasureFactoryPtr& factory : measures) {
    for (const HypothesisPtr& hyp : hypotheses) {
      if (DecideLane(*factory, *hyp, options).kind != LaneKind::kShard) {
        return false;
      }
    }
  }
  return true;
}

BlockPipeline::BlockPipeline(const std::vector<ModelSpec>& models,
                             const Dataset& dataset,
                             const std::vector<MeasureFactoryPtr>& scores,
                             const std::vector<HypothesisPtr>& hypotheses,
                             const InspectOptions& options)
    : models_(models),
      dataset_(dataset),
      scores_(scores),
      hypotheses_(hypotheses),
      options_(options) {
  num_shards_ = ResolveShards(options.num_shards,
                              options.pool != nullptr
                                  ? options.pool->num_threads()
                                  : 1);
  if (options.num_shards > kMaxShards) {
    // Clamping changes the effective shard count and therefore the
    // (seed, shards)-keyed determinism contract — say so out loud.
    DB_LOG(Warn) << "num_shards " << options.num_shards << " clamped to "
                 << kMaxShards << " (see InspectOptions::num_shards); "
                 << "scores follow the clamped count";
  }
  pool_ = options.pool;
  if (num_shards_ > 1 && pool_ == nullptr) {
    owned_pool_ =
        std::make_unique<ThreadPool>(std::min<size_t>(num_shards_, 16));
    pool_ = owned_pool_.get();
  }

  // --- Plan extraction: per model, the union of its groups' units, and per
  // group the column indices into that union. Groups that cover the whole
  // extracted union in order are flagged for the zero-copy fast path (no
  // per-block gather at all — the block matrix is used directly).
  model_units_.resize(models_.size());
  group_cols_.resize(models_.size());
  group_identity_.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    std::vector<int> units;
    for (const auto& group : models_[m].groups) {
      units.insert(units.end(), group.unit_ids.begin(), group.unit_ids.end());
    }
    std::sort(units.begin(), units.end());
    units.erase(std::unique(units.begin(), units.end()), units.end());
    model_units_[m] = units;
    group_cols_[m].resize(models_[m].groups.size());
    group_identity_[m].resize(models_[m].groups.size());
    for (size_t g = 0; g < models_[m].groups.size(); ++g) {
      for (int uid : models_[m].groups[g].unit_ids) {
        auto it = std::lower_bound(units.begin(), units.end(), uid);
        DB_DCHECK(it != units.end() && *it == uid);
        group_cols_[m][g].push_back(static_cast<size_t>(it - units.begin()));
      }
      const auto& cols = group_cols_[m][g];
      bool identity = cols.size() == units.size();
      for (size_t j = 0; identity && j < cols.size(); ++j) {
        identity = cols[j] == j;
      }
      group_identity_[m][g] = identity;
    }
  }

  // --- Plan measures (DecideLane per (measure, hypothesis)): merged
  // states for merged composites, individual Measure instances for
  // everything else. Shard-lane pairs ride the shard lanes when
  // num_shards > 1; everything else is pinned to the sequential lane.
  for (size_t m = 0; m < models_.size(); ++m) {
    for (size_t g = 0; g < models_[m].groups.size(); ++g) {
      const size_t nu = models_[m].groups[g].unit_ids.size();
      for (size_t s = 0; s < scores.size(); ++s) {
        const MeasureFactory& factory = *scores[s];
        const double eps = EpsilonFor(factory, options_);
        std::vector<size_t> mergeable_hyps;
        for (size_t h = 0; h < hypotheses_.size(); ++h) {
          const LaneKind kind =
              DecideLane(factory, *hypotheses_[h], options_).kind;
          if (kind == LaneKind::kMergedComposite) {
            mergeable_hyps.push_back(h);
            continue;
          }
          PipelinePair pair;
          pair.model_i = m;
          pair.group_i = g;
          pair.score_i = s;
          pair.hyp_i = h;
          pair.measure = factory.Create(nu, hypotheses_[h]->num_classes());
          pair.epsilon = eps;
          pair.shardable = num_shards_ > 1 && kind == LaneKind::kShard;
          if (pair.shardable) {
            have_shardable_ = true;
          } else {
            have_sequential_ = true;
          }
          pairs_.push_back(std::move(pair));
        }
        if (!mergeable_hyps.empty()) {
          PipelineMerged ms;
          ms.model_i = m;
          ms.group_i = g;
          ms.score_i = s;
          ms.merged = factory.CreateMerged(nu, mergeable_hyps.size());
          DB_DCHECK(ms.merged != nullptr);
          ms.hyp_indices = std::move(mergeable_hyps);
          ms.head_converged.assign(ms.hyp_indices.size(), false);
          ms.epsilon = eps;
          merged_.push_back(std::move(ms));
          have_sequential_ = true;
        }
      }
    }
  }
  // S == 1: the sequential lane is the only lane, even with no work.
  if (num_shards_ == 1) have_sequential_ = true;

  warned_bad_size_ =
      std::make_unique<std::atomic<bool>[]>(hypotheses_.size());

  // --- Hypothesis store tier: materialize/load each hypothesis's full
  // behaviors once per (hypothesis name, dataset fingerprint); blocks are
  // then served by row copies instead of HypothesisFn::Eval — reused
  // across jobs sharing the store and across restarts, like the unit
  // tier. Any store failure falls back to live evaluation.
  if (options_.behavior_store != nullptr && options_.hypothesis_store_tier) {
    Stopwatch prelude_watch;
    hyp_stored_.resize(hypotheses_.size());
    for (size_t h = 0; h < hypotheses_.size(); ++h) {
      if (CancelRequested() || DeadlinePassed()) break;
      bool materialized_now = false;
      Result<std::string> key =
          options_.behavior_store->EnsureHypothesisBehaviors(
              *hypotheses_[h], dataset_, &materialized_now);
      if (!key.ok()) {
        DB_LOG(Warn) << "hypothesis store tier unavailable for '"
                     << hypotheses_[h]->name()
                     << "', evaluating live: " << key.status().ToString();
        continue;
      }
      BehaviorStore::Tier tier = BehaviorStore::Tier::kMiss;
      Result<std::shared_ptr<const Matrix>> stored =
          options_.behavior_store->GetShared(*key, &tier);
      if (!stored.ok() || (*stored)->rows() != dataset_.num_records() ||
          (*stored)->cols() != dataset_.ns()) {
        DB_LOG(Warn) << "cannot serve stored hypothesis behaviors for '"
                     << hypotheses_[h]->name() << "', evaluating live";
        continue;
      }
      hyp_stored_[h] = std::move(*stored);
      if (materialized_now) {
        ++store_hyp_misses_;
      } else if (tier == BehaviorStore::Tier::kMemory) {
        ++store_hyp_mem_hits_;
      } else if (tier == BehaviorStore::Tier::kDisk ||
                 tier == BehaviorStore::Tier::kMmap) {
        // Hypothesis matrices are small (records × ns); an mmap handout
        // is still a disk-tier serve for the hyp counter pair.
        ++store_hyp_disk_hits_;
      }
    }
    hyp_tier_prelude_s_ = prelude_watch.Seconds();
  }
}

BlockPipeline::~BlockPipeline() = default;

Status BlockPipeline::RestrictShards(size_t shard_lo, size_t shard_hi) {
  if (!Sliceable(scores_, hypotheses_, options_, num_shards_)) {
    return Status::Invalid(
        "slice mode requires a materialized run with num_shards > 1 and no "
        "sequential-lane measures; run the job whole on a single worker "
        "instead");
  }
  if (shard_lo >= shard_hi || shard_hi > num_shards_) {
    return Status::Invalid("shard range [" + std::to_string(shard_lo) + ", " +
                           std::to_string(shard_hi) + ") out of bounds for " +
                           std::to_string(num_shards_) + " shards");
  }
  sliced_ = true;
  slice_lo_ = shard_lo;
  slice_hi_ = shard_hi;
  return Status::OK();
}

std::vector<std::unique_ptr<Measure>> BlockPipeline::TakeShardStates() {
  DB_DCHECK(sliced_);
  std::vector<std::unique_ptr<Measure>> out;
  out.reserve(pairs_.size());
  for (auto& pair : pairs_) {
    std::unique_ptr<Measure> state;
    if (slice_lo_ == 0 || pair.replicas.empty()) {
      // Range owners starting at shard 0 hand out the primary (it carries
      // block 0's accumulation plus shard 0's blocks). A pair with no
      // replicas (run cancelled before cloning) degrades the same way.
      state = std::move(pair.measure);
    } else {
      state = std::move(pair.replicas[slice_lo_]);
    }
    if (state != nullptr) {
      // Fold the rest of the owned range in ascending shard order — the
      // same order the coordinator then applies across ranges, so the
      // global merge order is shard 0..S-1 exactly as in-process.
      for (size_t s = std::max<size_t>(slice_lo_, 1);
           s < slice_hi_ && s < pair.replicas.size(); ++s) {
        if (pair.replicas[s] != nullptr) state->MergeFrom(*pair.replicas[s]);
      }
    }
    pair.replicas.clear();
    out.push_back(std::move(state));
  }
  return out;
}

bool BlockPipeline::CancelRequested() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

bool BlockPipeline::OverBudget(const Stopwatch& watch) const {
  // The deadline rides every budget check: both stop the loop at the
  // next block boundary, but a deadline stop is latched (deadline_hit_)
  // so the run surfaces as kDeadlineExceeded instead of a partial table.
  if (DeadlinePassed()) return true;
  return watch.Seconds() >= options_.time_budget_s;
}

bool BlockPipeline::DeadlinePassed() const {
  if (options_.deadline == std::chrono::steady_clock::time_point::max()) {
    return false;
  }
  if (deadline_hit_.load(std::memory_order_relaxed)) return true;
  if (std::chrono::steady_clock::now() < options_.deadline) return false;
  deadline_hit_.store(true, std::memory_order_relaxed);
  return true;
}

void BlockPipeline::ParallelDo(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

BlockPipeline::LaneScratch BlockPipeline::MakeScratch() const {
  LaneScratch scratch;
  scratch.buf.resize(models_.size());
  scratch.tag.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    scratch.buf[m].resize(models_[m].groups.size());
    scratch.tag[m].assign(models_[m].groups.size(), 0);
  }
  return scratch;
}

// Extraction of one block: unit behaviors for every model, then hypothesis
// behaviors in column-major layout (with optional caching). Output formats
// are checked during execution (paper §4.1): a hypothesis emitting the
// wrong number of behaviors is normalized (zero-pad / truncate) with a
// one-time warning, so a misbehaving user function cannot silently corrupt
// neighboring rows. InspectQuery::Execute additionally pre-flights this as
// a hard error.
void BlockPipeline::ExtractInto(const std::vector<size_t>& block,
                                size_t serial, BlockData* data) {
  const size_t ns = dataset_.ns();
  data->serial = serial;
  data->records = block.size();
  data->rows = block.size() * ns;
  Stopwatch watch;
  data->unit_behaviors.clear();
  data->unit_behaviors.reserve(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    const Extractor* extractor = models_[m].extractor;
    auto extract = [&] {
      return extractor->ExtractBlock(dataset_, block, model_units_[m]);
    };
    if (options_.shared_scan != nullptr) {
      // Fused job group: the first member to need this block extracts it;
      // everyone else shares the same immutable matrix.
      data->unit_behaviors.push_back(options_.shared_scan->GetOrExtract(
          extractor->model_id(), model_units_[m], block, extract));
    } else {
      data->unit_behaviors.push_back(
          std::make_shared<const Matrix>(extract()));
    }
  }
  data->unit_s = watch.Seconds();
  watch.Restart();
  data->hyp_cols.Resize(hypotheses_.size(), data->rows);
  // Hoisted out of the loops so cache hits reuse its capacity instead of
  // allocating per record.
  std::vector<float> behaviors;
  for (size_t h = 0; h < hypotheses_.size(); ++h) {
    const HypothesisFn& hyp = *hypotheses_[h];
    float* const out = data->hyp_cols.row_data(h);
    if (h < hyp_stored_.size() && hyp_stored_[h] != nullptr &&
        !hyp_stored_[h]->empty()) {
      // Hypothesis store tier: row copies from the stored matrix (already
      // normalized to ns behaviors per record).
      const Matrix& stored = *hyp_stored_[h];
      for (size_t i = 0; i < block.size(); ++i) {
        const float* const src = stored.row_data(block[i]);
        std::copy(src, src + ns, out + i * ns);
      }
      continue;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      // Lookup copies out of the cache so concurrent jobs sharing one
      // cache cannot observe an entry being evicted mid-read.
      const bool cached =
          options_.hypothesis_cache != nullptr &&
          options_.hypothesis_cache->Lookup(hyp.name(), block[i], &behaviors);
      if (!cached) {
        behaviors = hyp.Eval(dataset_.record(block[i]));
        if (behaviors.size() != ns) {
          if (!warned_bad_size_[h].exchange(true,
                                            std::memory_order_relaxed)) {
            DB_LOG(Warn)
                << "hypothesis '" << hyp.name() << "' emitted "
                << behaviors.size() << " behaviors for a record of " << ns
                << " symbols; normalizing (zero-pad/truncate)";
          }
          behaviors.resize(ns, 0.0f);
        }
        if (options_.hypothesis_cache != nullptr) {
          options_.hypothesis_cache->Put(hyp.name(), block[i], behaviors);
        }
      }
      std::copy(behaviors.begin(), behaviors.end(), out + i * ns);
    }
  }
  data->hyp_s = watch.Seconds();
}

const Matrix& BlockPipeline::GroupMatrix(const BlockData& data, size_t m,
                                         size_t g, LaneScratch* scratch) {
  if (group_identity_[m][g]) return *data.unit_behaviors[m];
  Matrix& buf = scratch->buf[m][g];
  if (scratch->tag[m][g] != data.serial + 1) {
    const Matrix& src = *data.unit_behaviors[m];
    const auto& cols = group_cols_[m][g];
    buf.Resize(src.rows(), cols.size());
    for (size_t r = 0; r < src.rows(); ++r) {
      const float* const srow = src.row_data(r);
      float* const drow = buf.row_data(r);
      for (size_t j = 0; j < cols.size(); ++j) drow[j] = srow[cols[j]];
    }
    scratch->tag[m][g] = data.serial + 1;
  }
  return buf;
}

std::span<const float> BlockPipeline::HypSpan(const BlockData& data,
                                              size_t h) const {
  return {data.hyp_cols.row_data(h), data.hyp_cols.cols()};
}

bool BlockPipeline::Converged(const Measure& measure, double epsilon) const {
  return options_.early_stopping && measure.SupportsConvergence() &&
         measure.ErrorEstimate() < epsilon;
}

void BlockPipeline::InspectShardBlock(const BlockData& data, size_t shard,
                                      LaneScratch* scratch) {
  for (auto& pair : pairs_) {
    if (!pair.shardable) continue;
    if (!pair.shard_converged.empty() && pair.shard_converged[shard]) {
      continue;
    }
    Measure* measure = (shard == 0 || pair.replicas.empty())
                           ? pair.measure.get()
                           : pair.replicas[shard].get();
    const Matrix& units = GroupMatrix(data, pair.model_i, pair.group_i,
                                      scratch);
    // The serial is shard-count-invariant (shuffle position), so the
    // (occurrence, serial) keys a kBitExact measure derives from it are
    // identical no matter which lane or worker consumed the block.
    measure->BeginBlock(data.serial);
    measure->ProcessBlock(units, HypSpan(data, pair.hyp_i));
    // Before EnsureReplicas (the calibration block) there are no shard
    // flags yet; EnsureReplicas reads the primary's convergence itself.
    if (!pair.shard_converged.empty() && Converged(*measure, pair.epsilon)) {
      pair.shard_converged[shard] = 1;
    }
  }
}

void BlockPipeline::InspectSequentialBlock(const BlockData& data,
                                           LaneScratch* scratch) {
  for (auto& pair : pairs_) {
    if (pair.shardable || pair.converged) continue;
    const Matrix& units = GroupMatrix(data, pair.model_i, pair.group_i,
                                      scratch);
    pair.measure->BeginBlock(data.serial);
    pair.measure->ProcessBlock(units, HypSpan(data, pair.hyp_i));
    pair.converged = Converged(*pair.measure, pair.epsilon);
  }
  for (auto& ms : merged_) {
    if (ms.all_converged) continue;
    const Matrix& units = GroupMatrix(data, ms.model_i, ms.group_i, scratch);
    // Reused head-column gather (one buffer per merged state, resized in
    // place — no per-block allocation, satellite of the zero-copy rework).
    Matrix& hyp_sub = ms.hyp_sub_buf;
    hyp_sub.Resize(data.rows, ms.hyp_indices.size());
    float* const dst0 = hyp_sub.row_data(0);
    const size_t stride = hyp_sub.lda();
    for (size_t j = 0; j < ms.hyp_indices.size(); ++j) {
      const float* const src = data.hyp_cols.row_data(ms.hyp_indices[j]);
      float* const dst = dst0 + j;
      for (size_t r = 0; r < data.rows; ++r) dst[r * stride] = src[r];
    }
    ms.merged->ProcessBlock(units, hyp_sub);
    if (options_.early_stopping) {
      bool all_heads = true;
      for (size_t j = 0; j < ms.hyp_indices.size(); ++j) {
        if (!ms.head_converged[j]) {
          ms.head_converged[j] = ms.merged->ErrorEstimate(j) < ms.epsilon;
        }
        all_heads = all_heads && ms.head_converged[j];
      }
      ms.all_converged = all_heads;
    }
  }
}

bool BlockPipeline::LaneConverged(size_t lane) const {
  const bool shard = lane < ShardLanes();
  for (const auto& pair : pairs_) {
    if (pair.shardable != shard) continue;
    if (shard ? pair.shard_converged.empty() || !pair.shard_converged[lane]
              : !pair.converged) {
      return false;
    }
  }
  for (const auto& ms : merged_) {
    if (!shard && !ms.all_converged) return false;
  }
  return true;
}

bool BlockPipeline::AllConverged() const {
  if (pairs_.empty() && merged_.empty()) return false;
  // Shard lanes, then the sequential lane (trivially converged when empty).
  for (size_t lane = 0; lane <= ShardLanes(); ++lane) {
    if (!LaneConverged(lane)) return false;
  }
  return true;
}

void BlockPipeline::EnsureReplicas() {
  for (auto& pair : pairs_) {
    if (!pair.shardable || !pair.replicas.empty()) continue;
    pair.replicas.resize(num_shards_);  // [0] stays null: primary stands in
    for (size_t s = 1; s < num_shards_; ++s) {
      if (!OwnsShard(s)) continue;  // slice mode: clone only owned shards
      pair.replicas[s] = pair.measure->CloneState();
      DB_DCHECK(pair.replicas[s] != nullptr);
    }
    pair.shard_converged.assign(num_shards_, 0);
    pair.shard_converged[0] = Converged(*pair.measure, pair.epsilon);
  }
}

void BlockPipeline::MergeReplicas() {
  for (auto& pair : pairs_) {
    if (pair.replicas.empty()) continue;
    // Ascending shard order: deterministic for a fixed shard count.
    for (size_t s = 1; s < pair.replicas.size(); ++s) {
      pair.measure->MergeFrom(*pair.replicas[s]);
    }
    pair.replicas.clear();
  }
}

void BlockPipeline::TickProgress(size_t records) const {
  if (options_.progress == nullptr) return;
  options_.progress->blocks_done.fetch_add(1, std::memory_order_relaxed);
  options_.progress->records_done.fetch_add(records,
                                            std::memory_order_relaxed);
}

BlockPipeline::Totals BlockPipeline::Run(const Stopwatch& watch) {
  Totals totals;
  totals.num_shards = num_shards_;
  const size_t passes = std::max<size_t>(1, options_.passes);
  // Plan the progress denominator up front: a full sweep is one dispatch
  // per block per pass (materialized runs re-dispatch the same blocks on
  // every pass; streaming runs re-extract, capped by max_blocks overall).
  {
    const size_t block_size = std::max<size_t>(1, options_.block_size);
    const size_t per_pass =
        (dataset_.num_records() + block_size - 1) / block_size;
    auto saturating_mul = [](size_t a, size_t b) {
      return a != 0 && b > std::numeric_limits<size_t>::max() / a
                 ? std::numeric_limits<size_t>::max()
                 : a * b;
    };
    const size_t planned =
        options_.streaming
            ? std::min(saturating_mul(per_pass, passes), options_.max_blocks)
            : saturating_mul(std::min(per_pass, options_.max_blocks), passes);
    totals.blocks_planned = planned;
    if (options_.progress != nullptr) {
      options_.progress->blocks_done.store(0, std::memory_order_relaxed);
      options_.progress->records_done.store(0, std::memory_order_relaxed);
      options_.progress->blocks_total.store(planned,
                                            std::memory_order_relaxed);
    }
  }
  const size_t seq_lane = ShardLanes();
  const size_t n_lanes = seq_lane + (have_sequential_ ? 1 : 0);
  totals.lanes.assign(n_lanes, {});
  totals.store_hyp_mem_hits = store_hyp_mem_hits_;
  totals.store_hyp_disk_hits = store_hyp_disk_hits_;
  totals.store_hyp_misses = store_hyp_misses_;
  totals.lanes[0].hyp_extraction_s += hyp_tier_prelude_s_;

  // --- The block loop (§5.2): the source hands out waves, the first block
  // calibrates the primaries on the caller, and every lane consumes its
  // share of each wave. Lane state is private, so the only
  // synchronization is the per-wave join; early stopping is checked there.
  {
    std::vector<LaneScratch> scratch;
    scratch.reserve(n_lanes);
    for (size_t t = 0; t < n_lanes; ++t) scratch.push_back(MakeScratch());
    // One span over a streaming run: per-wave spans would flood the trace
    // ring on long runs without adding timeline structure.
    TraceContext stream_trace = Trace(options_.streaming);
    DB_SPAN_NAMED(stream_span, stream_trace, "pipeline.stream");
    Source source{BlockIterator(&dataset_, options_.block_size,
                                options_.shuffle_seed)};
    Wave wave;
    bool calibrated = false;
    while (!totals.stopped_early &&
           NextWave(watch, &source, &wave, &totals)) {
      if (!calibrated) {
        // Pass 0, position 0 calibrates the primary states (thresholds,
        // bin edges) that CloneState() then hands to every replica.
        const BlockData& first = wave.blocks[0];
        if (first.rows == 0) break;  // cancelled before anything ran
        Stopwatch inspect_watch;
        InspectSequentialBlock(first, &scratch[0]);
        InspectShardBlock(first, 0, &scratch[0]);
        RuntimeStats::Shard& lane0 = totals.lanes[0];
        lane0.inspection_s += inspect_watch.Seconds();
        lane0.blocks_processed += 1;
        lane0.records_processed += first.records;
        if (have_sequential_ && seq_lane != 0) {
          totals.lanes[seq_lane].blocks_processed += 1;
          totals.lanes[seq_lane].records_processed += first.records;
        }
        // In slice mode every worker runs the calibration block, but only
        // the shard-0 owner counts it toward progress — the coordinator
        // sums the per-range counters, so it must tick once cluster-wide.
        if (OwnsShard(0)) TickProgress(first.records);
        EnsureReplicas();
        calibrated = true;
        wave.skip = 1;
      }
      if (wave.sweeps > 1 || wave.blocks.size() > wave.skip) {
        ParallelDo(n_lanes, [&](size_t t) {
          RunLane(t, wave, watch, &scratch[t], &totals.lanes[t]);
        });
      }
      totals.stopped_early = options_.early_stopping && AllConverged();
    }
    stream_span.Tag("blocks", static_cast<uint64_t>(source.serial));
  }
  size_t shard_dispatch = 0;
  for (size_t s = 0; s < seq_lane; ++s) {
    shard_dispatch += totals.lanes[s].blocks_processed;
  }
  const size_t seq_dispatch =
      have_sequential_ ? totals.lanes[seq_lane].blocks_processed : 0;
  totals.blocks_processed = std::max(shard_dispatch, seq_dispatch);

  if (num_shards_ > 1 && !sliced_) {
    // Slice mode skips the merge: the owned range's states leave through
    // TakeShardStates() and recombine on the coordinator. Merge time is
    // its own phase (Totals::merge_s), not block inspection.
    TraceContext trace = Trace(true);
    DB_SPAN(trace, "pipeline.merge");
    Stopwatch merge_watch;
    MergeReplicas();
    totals.merge_s = merge_watch.Seconds();
  }
  totals.deadline_exceeded = deadline_hit_.load(std::memory_order_relaxed);
  return totals;
}

bool BlockPipeline::NextWave(const Stopwatch& watch, Source* src,
                             Wave* wave, Totals* totals) {
  std::vector<std::vector<size_t>> idx;
  if (options_.streaming) {
    // Online extraction (§5.2.3): every pass re-shuffles and re-extracts.
    // A pass's position 0 is a wave of its own, then waves of up to S
    // fresh blocks, one per shard lane; max_blocks caps the dispatches
    // over all passes.
    if (!src->it.HasNext() &&
        ++src->pass < std::max<size_t>(1, options_.passes)) {
      src->it = BlockIterator(&dataset_, options_.block_size,
                              options_.shuffle_seed + src->pass);
      src->pos = 0;
    }
    const size_t wave_size = src->pos == 0 ? 1 : num_shards_;
    while (idx.size() < wave_size && src->it.HasNext() &&
           src->serial + idx.size() < options_.max_blocks) {
      idx.push_back(src->it.NextBlock());
    }
  } else if (src->serial == 0) {
    // Full materialization (§5.1.2), as the run's only wave: every
    // behavior is extracted once, regardless of convergence; the lanes
    // sweep the blocks once per pass (the §6.3 multi-pass pattern).
    while (src->it.HasNext() && idx.size() < options_.max_blocks &&
           !OverBudget(watch) && !CancelRequested()) {
      idx.push_back(src->it.NextBlock());
    }
  }
  if (idx.empty() || OverBudget(watch) || CancelRequested()) return false;

  // Block buffers are reused wave to wave, so each extraction frees its
  // predecessor's matrices just before allocating the same shapes;
  // freeing a whole wave up front made cold_scan's LSTM extraction ~35%
  // slower on a 4-vCPU Xeon VM.
  const size_t n = idx.size();
  if (src->blocks.size() < n) src->blocks.resize(n);
  {
    TraceContext trace = Trace(!options_.streaming);
    DB_SPAN_NAMED(extract_span, trace, "pipeline.extract");
    extract_span.Tag("blocks", static_cast<uint64_t>(n));
    // Budget/cancel are re-checked per block; a truncated block stays
    // empty (rows == 0) and every lane skips it (nondeterministic only in
    // the ways budget/cancel always were).
    ParallelDo(n, [&](size_t i) {
      BlockData& data = src->blocks[i];
      data.rows = 0;
      if (!OwnsBlock(src->pos + i)) return;  // slice mode: another worker's
      if (OverBudget(watch) || CancelRequested()) return;
      ExtractInto(idx[i], src->serial + i, &data);
    });
  }
  for (size_t i = 0; i < n; ++i) {
    const BlockData& data = src->blocks[i];
    if (data.rows == 0) continue;  // not extracted here
    RuntimeStats::Shard& lane = totals->lanes[LaneOf(src->pos + i)];
    lane.unit_extraction_s += data.unit_s;
    lane.hyp_extraction_s += data.hyp_s;
    totals->records_processed += data.records;
  }
  *wave = Wave{std::span<const BlockData>(src->blocks.data(), n), src->pos,
               options_.streaming ? 1 : std::max<size_t>(1, options_.passes)};
  src->pos += n;
  src->serial += n;
  return true;
}

void BlockPipeline::RunLane(size_t lane, const Wave& wave,
                            const Stopwatch& watch, LaneScratch* scratch,
                            RuntimeStats::Shard* acc) {
  const bool shard = lane < ShardLanes();
  if (shard && !OwnsShard(lane)) return;  // slice mode: not our shard
  // Materialized lanes carry a span each, on a private TraceContext (the
  // shared Tracer's ring is internally locked) so they parent to the
  // pipeline caller without racing on a shared parent cursor. Streaming
  // lanes are covered by the one pipeline.stream span.
  TraceContext trace = Trace(!options_.streaming);
  DB_SPAN_NAMED(lane_span, trace,
                shard ? "pipeline.lane" : "pipeline.seq_lane");
  if (shard) lane_span.Tag("shard", static_cast<uint64_t>(lane));
  // Progress counts each block once per pass: the shard lanes' dispatches
  // when shardable work exists, else the sequential lane's.
  const bool ticks = shard == have_shardable_;
  for (size_t sweep = 0; sweep < wave.sweeps; ++sweep) {
    for (size_t i = sweep == 0 ? wave.skip : 0; i < wave.blocks.size();
         ++i) {
      if (shard && LaneOf(wave.first_pos + i) != lane) continue;
      if (OverBudget(watch) || CancelRequested()) return;
      if (options_.early_stopping && LaneConverged(lane)) return;
      const BlockData& data = wave.blocks[i];
      if (data.rows == 0) continue;  // truncated by budget/cancel
      Stopwatch inspect_watch;
      if (shard) {
        InspectShardBlock(data, lane, scratch);
      } else {
        InspectSequentialBlock(data, scratch);
      }
      acc->inspection_s += inspect_watch.Seconds();
      acc->blocks_processed += 1;
      acc->records_processed += data.records;
      if (ticks) TickProgress(data.records);
    }
  }
}

}  // namespace deepbase
