// BlockPipeline: the engine's block-loop executor, and the codebase's
// first intra-job scale axis. One inspection job's blocks are fanned out
// over the session ThreadPool (extraction in parallel, inspection across
// shard lanes), with per-shard measure-state replicas recombined through
// the Measure::CloneState()/MergeFrom() API.
//
// Determinism contract: every behavior depends only on (dataset, shuffle
// seed, num_shards) — never on the thread count or scheduling. Blocks are
// assigned to shards by index (block 0 calibrates the primary state, block
// b > 0 belongs to shard (b-1) % S), each shard consumes its blocks in
// ascending order, and partials merge in ascending shard order. Measures
// whose MergeFrom is exact (integer counters) therefore produce identical
// scores at any shard count; FP moment-sum measures agree up to rounding;
// measures without merge support (SGD-trained) are pinned to a sequential
// lane that consumes all blocks in global order and thus stay bit-exact at
// every shard count.
//
// One block loop (paper §5.2, Figure 4) serves every configuration; the
// optimisations are flags on it. A block source yields waves of extracted
// blocks: streaming runs extract up to S fresh blocks per wave (a pass's
// position 0 is a wave of its own), materialized runs extract every block
// once up front and hand all passes to the lanes as one wave. Dispatch:
//   pass 0, position 0 — the calibration block, inspected on the caller by
//                        the sequential states and the primaries before
//                        the replicas are cloned
//   position 0, later passes — shard lane 0
//   position p >= 1    — shard lane (p-1) % S
//   sequential lane    — non-mergeable pairs + merged (composite) measures,
//                        every position in global order
// With S == 1 there are no shard lanes: the sequential lane holds every
// pair, which is the pre-pipeline engine exactly.

#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace deepbase {

/// \brief Where a (measure, hypothesis) pair runs in the block loop.
enum class LaneKind {
  kMergedComposite,  // in a model-merged composite (§5.2.1): sequential lane
  kShard,       // own state, replicated per shard lane and merged (S > 1)
  kSequential,  // own state without merge support: sequential lane
};

struct LaneDecision {
  LaneKind kind = LaneKind::kSequential;
  /// The pair's own state's merge exactness (kNone for merged composites).
  MergeExactness exactness = MergeExactness::kNone;
};

/// \brief The lane decision for one (measure, hypothesis) pair: the one
/// rule the pipeline executes and the coordinator and EXPLAIN predict.
LaneDecision DecideLane(const MeasureFactory& factory,
                        const HypothesisFn& hypothesis,
                        const InspectOptions& options);

/// \brief The shard count a run uses: an explicit `num_shards` wins, 0
/// takes `default_shards` (the attached pool's size for the pipeline, the
/// cluster's total_shards for the coordinator), clamped to
/// [1, kMaxShards]. The one resolution rule the pipeline executes and
/// every engine plan predicts.
size_t ResolveShards(size_t num_shards, size_t default_shards);

/// \brief True when a job can be sliced over workers at `total_shards`:
/// a materialized run with at least 2 shards whose every pair rides the
/// shard lanes (BlockPipeline::RestrictShards accepts it).
bool Sliceable(const std::vector<MeasureFactoryPtr>& measures,
               const std::vector<HypothesisPtr>& hypotheses,
               const InspectOptions& options, size_t total_shards);

/// \brief Incremental state for one (model, group, measure, hypothesis)
/// pair. `measure` is the primary (shard-0) state; `replicas[s]` (s >= 1)
/// are the shard clones of a sharded run, merged back into `measure` when
/// the pipeline finishes.
struct PipelinePair {
  size_t model_i = 0, group_i = 0, score_i = 0, hyp_i = 0;
  std::unique_ptr<Measure> measure;
  std::vector<std::unique_ptr<Measure>> replicas;  // [0] unused (= primary)
  double epsilon = 0;
  bool shardable = false;
  /// Sequential-lane convergence flag.
  bool converged = false;
  /// Per-shard convergence flags (bytes, not vector<bool>: shards write
  /// their own element concurrently).
  std::vector<unsigned char> shard_converged;
};

/// \brief Incremental state for one merged (composite-model) measure over
/// several binary hypotheses. Always runs on the sequential lane: merged
/// training is SGD-ordered. `hyp_sub_buf` is the reused per-block gather
/// of the heads' hypothesis columns (no per-block allocation).
struct PipelineMerged {
  size_t model_i = 0, group_i = 0, score_i = 0;
  std::unique_ptr<MergedMeasure> merged;
  std::vector<size_t> hyp_indices;  // indices into the hypothesis list
  std::vector<bool> head_converged;
  double epsilon = 0;
  bool all_converged = false;
  Matrix hyp_sub_buf;
};

/// \brief Executes the block loop of one inspection (streaming or
/// materialized) across extraction + shard lanes. Owns the measure states;
/// the engine assembles the result relation from pairs()/merged_states()
/// after Run().
class BlockPipeline {
 public:
  /// \brief Per-lane runtime totals, plus overall flags.
  struct Totals {
    /// One entry per shard lane; when a sequential lane ran (non-mergeable
    /// or merged measures present at S > 1), one extra trailing entry
    /// carries it. With S == 1 there is exactly one entry: the sequential
    /// lane.
    std::vector<RuntimeStats::Shard> lanes;
    size_t num_shards = 1;
    size_t blocks_processed = 0;   // block-inspection dispatches (see engine.h)
    size_t records_processed = 0;  // records pulled from the iterator
    /// Planned dispatches of a full run (per-pass blocks × passes, capped
    /// by max_blocks) — the progress denominator; set before any block
    /// runs, so pollers see it while the loop is in flight.
    size_t blocks_planned = 0;
    /// Wall time of the final replica merge (S > 1 full runs). Kept out
    /// of the lanes' inspection_s: merging is a distinct phase of the
    /// critical path, not block inspection.
    double merge_s = 0;
    bool stopped_early = false;
    /// True when InspectOptions::deadline passed during the run: the
    /// block loop stopped at the first boundary after the deadline, so
    /// the accumulated states cover only a prefix of the plan.
    bool deadline_exceeded = false;
    /// Hypothesis-tier store counters (InspectOptions::hypothesis_store_tier)
    /// for this run — how each hypothesis's stored behaviors were obtained.
    size_t store_hyp_mem_hits = 0;
    size_t store_hyp_disk_hits = 0;
    size_t store_hyp_misses = 0;
  };

  BlockPipeline(const std::vector<ModelSpec>& models, const Dataset& dataset,
                const std::vector<MeasureFactoryPtr>& scores,
                const std::vector<HypothesisPtr>& hypotheses,
                const InspectOptions& options);
  ~BlockPipeline();

  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  /// \brief Effective shard count (options.num_shards resolved against the
  /// pool; see InspectOptions::num_shards).
  size_t num_shards() const { return num_shards_; }

  /// \brief Run the full block loop. `total_watch` is the job's wall clock
  /// (shared with the engine's time-budget enforcement).
  Totals Run(const Stopwatch& total_watch);

  /// \brief Slice mode (distributed workers): restrict this run to shards
  /// [shard_lo, shard_hi) of num_shards(). Block 0 is still extracted and
  /// inspected (it calibrates the primary states exactly as in a full
  /// run), but only the owned shards' blocks are extracted and consumed,
  /// and Run() skips the final replica merge — the partial states are
  /// handed out through TakeShardStates() instead. Because the block→shard
  /// map and per-shard consumption order are unchanged, a worker's shard-s
  /// state is bit-identical to the in-process shard-s replica for the same
  /// (seed, num_shards). Must be called before Run(). Fails unless the job
  /// is Sliceable() (the cluster pins other jobs to a single worker as a
  /// whole job instead).
  Status RestrictShards(size_t shard_lo, size_t shard_hi);

  /// \brief Move out the owned range's partial states, one per pairs()
  /// entry: the states of shards [shard_lo, shard_hi) merged in ascending
  /// shard order (for shard_lo == 0 this includes the primary's block-0
  /// accumulation). Valid once, after Run() in slice mode; entries may be
  /// null if the run was cancelled before any state accumulated.
  std::vector<std::unique_ptr<Measure>> TakeShardStates();

  /// \brief True when every measure converged (valid after Run()).
  bool AllConverged() const;

  const std::vector<PipelinePair>& pairs() const { return pairs_; }
  const std::vector<PipelineMerged>& merged_states() const { return merged_; }

 private:
  /// One extracted block: unit behaviors per model plus the hypothesis
  /// behaviors in column-major layout (row h = hypothesis h's behaviors,
  /// contiguous — the zero-copy span handed to Measure::ProcessBlock).
  /// Unit matrices are held by shared pointer so a fused job group
  /// (InspectOptions::shared_scan) serves every member from one
  /// allocation; solo runs own their matrices through the same handle.
  struct BlockData {
    std::vector<std::shared_ptr<const Matrix>> unit_behaviors;
    Matrix hyp_cols;  // |H| × rows
    size_t rows = 0;
    size_t records = 0;
    size_t serial = 0;  // unique per extracted block (scratch-cache tag)
    double unit_s = 0, hyp_s = 0;
  };

  /// Per-lane scratch: reused (model, group) gather buffers, tagged by the
  /// block serial they were last filled for. Each lane owns its scratch, so
  /// gathers are race-free and allocation-free across blocks.
  struct LaneScratch {
    std::vector<std::vector<Matrix>> buf;
    std::vector<std::vector<size_t>> tag;  // serial + 1; 0 = empty
  };

  /// One wave of the block loop: `blocks` sit at pass positions
  /// first_pos, first_pos + 1, ... and are swept `sweeps` times in order
  /// (a materialized run hands every pass over as one wave). The first
  /// `skip` dispatches of the first sweep already ran (calibration).
  struct Wave {
    std::span<const BlockData> blocks;
    size_t first_pos = 0;
    size_t sweeps = 1;
    size_t skip = 0;
  };

  /// Block-source cursor (see NextWave).
  struct Source {
    BlockIterator it;  // the current pass's shuffle
    std::vector<BlockData> blocks;  // the current wave's extractions
    size_t pass = 0;
    size_t pos = 0;     // next block's position within its pass
    size_t serial = 0;  // blocks extracted so far (= dispatches, streaming)
  };

  bool CancelRequested() const;
  bool OverBudget(const Stopwatch& watch) const;
  /// True once options_.deadline has passed; latches deadline_hit_ so the
  /// run is reported as deadline-truncated even if later checks race.
  bool DeadlinePassed() const;
  void ParallelDo(size_t n, const std::function<void(size_t)>& fn);
  /// Bump the live progress sink (InspectOptions::progress) by one block
  /// dispatch. Called from whichever lane dispatches the block, so it is
  /// relaxed-atomic; progress counts each block once per pass (the shard
  /// lanes' dispatch set, or the sequential lane's when no pair shards).
  void TickProgress(size_t records) const;

  LaneScratch MakeScratch() const;
  void ExtractInto(const std::vector<size_t>& block, size_t serial,
                   BlockData* data);
  const Matrix& GroupMatrix(const BlockData& data, size_t m, size_t g,
                            LaneScratch* scratch);
  std::span<const float> HypSpan(const BlockData& data, size_t h) const;

  /// Feed one block to a shardable pair's shard-`s` replica (s == 0 is the
  /// primary). Returns via flags; respects early stopping.
  void InspectShardBlock(const BlockData& data, size_t shard,
                         LaneScratch* scratch);
  /// Feed one block to the sequential-lane states (non-shardable pairs and
  /// merged measures).
  void InspectSequentialBlock(const BlockData& data, LaneScratch* scratch);
  /// Early-stopping test for one measure state.
  bool Converged(const Measure& measure, double epsilon) const;
  /// True when every state lane `lane` feeds has converged.
  bool LaneConverged(size_t lane) const;

  void EnsureReplicas();
  void MergeReplicas();

  /// Shard lanes of the run (0 at S == 1); the sequential lane, when
  /// present, follows them in Totals::lanes.
  size_t ShardLanes() const { return num_shards_ > 1 ? num_shards_ : 0; }
  /// The shard lane owning pass position `pos` (0 at S == 1).
  size_t LaneOf(size_t pos) const {
    return pos == 0 ? 0 : (pos - 1) % num_shards_;
  }
  /// The pipeline's trace context; disabled (no spans) when `on` is false.
  TraceContext Trace(bool on) const {
    return {on ? options_.tracer : nullptr, options_.trace_parent_span};
  }

  /// Block source: extract the next wave into `src` (billing extraction to
  /// the owning lanes); false once the run has no more blocks to dispatch.
  bool NextWave(const Stopwatch& watch, Source* src, Wave* wave,
                Totals* totals);
  /// Lane body: lane `lane`'s share of `wave` (shard lanes their own
  /// positions, the sequential lane every position).
  void RunLane(size_t lane, const Wave& wave, const Stopwatch& watch,
               LaneScratch* scratch, RuntimeStats::Shard* acc);

  const std::vector<ModelSpec>& models_;
  const Dataset& dataset_;
  const std::vector<MeasureFactoryPtr>& scores_;
  const std::vector<HypothesisPtr>& hypotheses_;
  const InspectOptions& options_;

  // Extraction plan: per model the union of its groups' units; per group
  // the column indices into that union, with identity gathers detected so
  // whole-model groups are served zero-copy from the block matrix.
  std::vector<std::vector<int>> model_units_;
  std::vector<std::vector<std::vector<size_t>>> group_cols_;
  std::vector<std::vector<bool>> group_identity_;

  std::vector<PipelinePair> pairs_;
  std::vector<PipelineMerged> merged_;
  bool have_shardable_ = false;
  bool have_sequential_ = false;

  /// Slice-mode ownership tests (full runs own everything).
  bool OwnsShard(size_t shard) const {
    return !sliced_ || (shard >= slice_lo_ && shard < slice_hi_);
  }
  bool OwnsBlock(size_t block) const {
    return block == 0 || OwnsShard(LaneOf(block));
  }

  size_t num_shards_ = 1;
  bool sliced_ = false;
  size_t slice_lo_ = 0, slice_hi_ = 0;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;

  // Hypothesis store tier: per hypothesis, a shared read-only handle on
  // its full stored behavior matrix (num_records × ns; null = served
  // live). Loaded once in the constructor via BehaviorStore::GetShared —
  // fused jobs over one dataset all read the store's single allocation
  // instead of holding per-job deep copies — then every block copies row
  // slices instead of calling HypothesisFn::Eval.
  std::vector<std::shared_ptr<const Matrix>> hyp_stored_;
  size_t store_hyp_mem_hits_ = 0;
  size_t store_hyp_disk_hits_ = 0;
  size_t store_hyp_misses_ = 0;
  double hyp_tier_prelude_s_ = 0;

  std::unique_ptr<std::atomic<bool>[]> warned_bad_size_;

  /// Set by any lane that observes the deadline passing (relaxed: the
  /// flag only ever flips false→true and is read after the lanes join).
  mutable std::atomic<bool> deadline_hit_{false};
};

}  // namespace deepbase
