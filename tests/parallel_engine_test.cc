// Intra-job parallelism tests: the Measure CloneState/MergeFrom API,
// bit-exact score equality between num_shards=1 and num_shards=8 (integer
// counts merge exactly; the moment-sum measures reduce through a
// canonical pairwise tree, so full sweeps are shard-count-invariant too),
// determinism across repeated sharded runs, early stopping and
// cancellation under sharding, and pool sharing between concurrent jobs
// and their shards.
// The whole file is TSan-relevant: scripts/check.sh runs it under
// -DDEEPBASE_TSAN=ON.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <tuple>

#include "core/engine.h"
#include "core/extractors.h"
#include "measures/independent.h"
#include "measures/multivariate_mi.h"
#include "measures/scores.h"
#include "service/inspection_session.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepbase {
namespace {

// Deterministic fake model (pure const Eval — safe for parallel
// extraction): unit 0 tracks "is the symbol 'a'" plus jitter, unit 1 is
// pseudo-random noise, unit 2 the negated indicator, unit 3 tracks 'b'.
class SyntheticExtractor : public Extractor {
 public:
  SyntheticExtractor() : Extractor("synthetic") {}
  size_t num_units() const override { return 4; }

  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const bool is_a = rec.tokens[t] == "a";
      const float jitter =
          0.01f * static_cast<float>((rec.ids[t] * 31 + t * 7) % 13);
      const float noise =
          static_cast<float>(((rec.ids[t] * 2654435761u + t * 40503u) %
                              1000)) /
              500.0f -
          1.0f;
      float all[4] = {(is_a ? 1.0f : 0.0f) + jitter, noise,
                      (is_a ? -1.0f : 1.0f) + jitter,
                      (is_a ? 0.0f : 1.0f) - jitter};
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        out(t, j) = all[unit_ids[j]];
      }
    }
    return out;
  }
};

class TokenHypothesis : public HypothesisFn {
 public:
  explicit TokenHypothesis(std::string token)
      : HypothesisFn("is_" + token), token_(std::move(token)) {}
  std::vector<float> Eval(const Record& rec) const override {
    std::vector<float> out(rec.size(), 0.0f);
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec.tokens[i] == token_) out[i] = 1.0f;
    }
    return out;
  }

 private:
  std::string token_;
};

Dataset MakeAbDataset(size_t n_records, size_t ns = 8) {
  Dataset ds(Vocab::FromChars("ab"), ns);
  Rng rng(99);
  for (size_t i = 0; i < n_records; ++i) {
    std::string text;
    for (size_t t = 0; t < ns; ++t) {
      text += rng.Bernoulli(0.4) ? 'a' : 'b';
    }
    ds.AddText(text);
  }
  return ds;
}

std::vector<HypothesisPtr> MakeHypotheses() {
  return {std::make_shared<TokenHypothesis>("a"),
          std::make_shared<TokenHypothesis>("b")};
}

// Two unit groups: "all" takes the zero-copy identity path, "front" the
// gather path.
std::vector<ModelSpec> MakeModels(const Extractor* ex) {
  ModelSpec spec = AllUnitsGroup(ex);
  UnitGroupSpec front;
  front.group_id = "front";
  front.unit_ids = {0, 1};
  spec.groups.push_back(front);
  return {spec};
}

void ExpectScoreEq(float x, float y, bool exact, float tol,
                   const std::string& context) {
  if (std::isnan(x) && std::isnan(y)) return;
  if (exact) {
    EXPECT_EQ(x, y) << context;
  } else {
    EXPECT_NEAR(x, y, tol) << context;
  }
}

// Bit-exact equality for every measure. Integer-count merges (jaccard,
// MI) and sequential-lane measures (Spearman's sample buffer, the SGD
// measures) were always exact; the moment-sum measures (pearson,
// diff_means) are now kBitExact through the pairwise-tree merge, so a
// full sweep's scores never depend on the shard count.
void ExpectTablesEqual(const ResultTable& a, const ResultTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const ResultRow& ra = a.row(i);
    const ResultRow& rb = b.row(i);
    ASSERT_EQ(ra.measure, rb.measure);
    ASSERT_EQ(ra.hypothesis, rb.hypothesis);
    ASSERT_EQ(ra.group_id, rb.group_id);
    ASSERT_EQ(ra.unit, rb.unit);
    const std::string context = ra.measure + "/" + ra.hypothesis + "/" +
                                ra.group_id + "/u" + std::to_string(ra.unit);
    ExpectScoreEq(ra.unit_score, rb.unit_score, /*exact=*/true, 0.0f,
                  context);
    ExpectScoreEq(ra.group_score, rb.group_score, /*exact=*/true, 0.0f,
                  context);
  }
}

std::vector<MeasureFactoryPtr> AllMeasures() {
  std::vector<MeasureFactoryPtr> measures = StandardScores();
  measures.push_back(std::make_shared<MultivariateMiScore>());
  return measures;
}

InspectOptions BaseOptions() {
  InspectOptions options;
  options.block_size = 8;  // records per block -> 12 blocks of 64 rows
  options.early_stopping = false;
  options.passes = 1;
  return options;
}

// ------------------------------------------------------ merge API units

TEST(MeasureMergeApiTest, PearsonMergesBitExactly) {
  Rng rng(7);
  Matrix b0 = Matrix::RandomNormal(40, 3, &rng);
  Matrix b1 = Matrix::RandomNormal(40, 3, &rng);
  std::vector<float> h0(40), h1(40);
  for (auto& v : h0) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;

  PearsonMeasure seq(3);
  seq.ProcessBlock(b0, h0);
  seq.ProcessBlock(b1, h1);

  PearsonMeasure primary(3);
  primary.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> replica = primary.CloneState();
  ASSERT_NE(replica, nullptr);
  replica->ProcessBlock(b1, h1);
  primary.MergeFrom(*replica);

  // Per-block entries reduce through the canonical pairwise tree in
  // Scores(), so the merged replica is bit-identical to sequential
  // accumulation — not merely tolerance-equal.
  EXPECT_EQ(primary.merge_exactness(), MergeExactness::kBitExact);
  const MeasureScores s = seq.Scores(), p = primary.Scores();
  for (size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(s.unit_scores[u], p.unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, JaccardMergesExactlyWithSharedCalibration) {
  Rng rng(11);
  Matrix b0 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b1 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b2 = Matrix::RandomNormal(64, 4, &rng);
  std::vector<float> h0(64), h1(64), h2(64);
  for (auto& v : h0) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto& v : h2) v = rng.Bernoulli(0.3) ? 1.0f : 0.0f;

  JaccardMeasure seq(4);
  seq.ProcessBlock(b0, h0);
  seq.ProcessBlock(b1, h1);
  seq.ProcessBlock(b2, h2);

  // Calibrate on the first block, then shard the rest across two replicas.
  JaccardMeasure primary(4);
  primary.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> r1 = primary.CloneState();
  std::unique_ptr<Measure> r2 = primary.CloneState();
  r1->ProcessBlock(b1, h1);
  r2->ProcessBlock(b2, h2);
  primary.MergeFrom(*r1);
  primary.MergeFrom(*r2);

  EXPECT_EQ(primary.merge_exactness(), MergeExactness::kExact);
  const MeasureScores s = seq.Scores(), p = primary.Scores();
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(s.unit_scores[u], p.unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, MutualInfoAndMultivariateMiMergeExactly) {
  Rng rng(13);
  Matrix b0 = Matrix::RandomNormal(64, 4, &rng);
  Matrix b1 = Matrix::RandomNormal(64, 4, &rng);
  std::vector<float> h0(64), h1(64);
  for (auto& v : h0) v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  for (auto& v : h1) v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;

  MutualInfoMeasure mi_seq(4, 2);
  mi_seq.ProcessBlock(b0, h0);
  mi_seq.ProcessBlock(b1, h1);
  MutualInfoMeasure mi(4, 2);
  mi.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> mi_rep = mi.CloneState();
  mi_rep->ProcessBlock(b1, h1);
  mi.MergeFrom(*mi_rep);
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(mi_seq.Scores().unit_scores[u], mi.Scores().unit_scores[u]);
  }

  MultivariateMiMeasure mv_seq(4, 2);
  mv_seq.ProcessBlock(b0, h0);
  mv_seq.ProcessBlock(b1, h1);
  MultivariateMiMeasure mv(4, 2);
  mv.ProcessBlock(b0, h0);
  std::unique_ptr<Measure> mv_rep = mv.CloneState();
  mv_rep->ProcessBlock(b1, h1);
  mv.MergeFrom(*mv_rep);
  EXPECT_EQ(mv_seq.Scores().group_score, mv.Scores().group_score);
  for (size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(mv_seq.Scores().unit_scores[u], mv.Scores().unit_scores[u]);
  }
}

TEST(MeasureMergeApiTest, SgdMeasuresDeclineMerging) {
  LogRegOptions lr_opts;
  BinaryLogRegMeasure logreg(4, lr_opts);
  EXPECT_EQ(logreg.merge_exactness(), MergeExactness::kNone);
  EXPECT_EQ(logreg.CloneState(), nullptr);
}

// ------------------------------------------- shard-count score equality

TEST(ParallelEngineTest, MaterializedShardsMatchSequential) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = false;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = 8;
  RuntimeStats stats;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts, &stats);

  EXPECT_EQ(stats.num_shards, 8u);
  EXPECT_GE(stats.shards.size(), 8u);
  ExpectTablesEqual(seq, par);
}

TEST(ParallelEngineTest, StreamingShardsMatchSequential) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = true;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = 8;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts);

  ExpectTablesEqual(seq, par);
}

// Multi-pass runs at S shards, materialized and streaming (streaming
// re-extracts every pass, so shard lane 0 takes each later pass's
// position 0).
class MultiPassShardsTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {};

TEST_P(MultiPassShardsTest, MultiPassShardsMatchSequential) {
  const auto [streaming, num_shards] = GetParam();
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(64);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions seq_opts = BaseOptions();
  seq_opts.streaming = streaming;
  seq_opts.passes = 2;
  seq_opts.num_shards = 1;
  ResultTable seq = Inspect(models, ds, measures, hyps, seq_opts);

  InspectOptions par_opts = seq_opts;
  par_opts.num_shards = num_shards;
  ResultTable par = Inspect(models, ds, measures, hyps, par_opts);

  ExpectTablesEqual(seq, par);
}

INSTANTIATE_TEST_SUITE_P(
    StreamingAndShards, MultiPassShardsTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(size_t{2}, size_t{3}, size_t{4})));

// A max_blocks cap against S = 1: 3 blocks per pass make the 2-pass
// streaming cap cut a wave short (pass 1's second wave), 7 blocks make the
// cap truncate materialized extraction mid-pass. Tables and dispatch
// counts must match the sequential run in every configuration.
TEST(ParallelEngineTest, MaxBlocksCapMatchesSequential) {
  SyntheticExtractor ex;
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();
  for (size_t records : {size_t{24}, size_t{56}}) {
    Dataset ds = MakeAbDataset(records);
    for (bool streaming : {false, true}) {
      for (size_t passes : {size_t{1}, size_t{2}}) {
        InspectOptions seq_opts = BaseOptions();
        seq_opts.streaming = streaming;
        seq_opts.passes = passes;
        seq_opts.max_blocks = 5;
        seq_opts.num_shards = 1;
        RuntimeStats seq_stats;
        ResultTable seq =
            Inspect(models, ds, measures, hyps, seq_opts, &seq_stats);
        for (size_t num_shards : {size_t{2}, size_t{4}}) {
          SCOPED_TRACE("records=" + std::to_string(records) +
                       " streaming=" + std::to_string(streaming) +
                       " passes=" + std::to_string(passes) +
                       " shards=" + std::to_string(num_shards));
          InspectOptions par_opts = seq_opts;
          par_opts.num_shards = num_shards;
          RuntimeStats par_stats;
          ResultTable par =
              Inspect(models, ds, measures, hyps, par_opts, &par_stats);
          ExpectTablesEqual(seq, par);
          EXPECT_EQ(par_stats.blocks_processed, seq_stats.blocks_processed);
        }
      }
    }
  }
}

TEST(ParallelEngineTest, ShardedRunsAreDeterministic) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions options = BaseOptions();
  options.streaming = true;
  options.early_stopping = true;  // flags exercised, determinism must hold
  options.num_shards = 4;
  ResultTable run1 = Inspect(models, ds, measures, hyps, options);
  ResultTable run2 = Inspect(models, ds, measures, hyps, options);

  // Bit-for-bit: same seed + same shard count, any thread interleaving.
  ASSERT_EQ(run1.size(), run2.size());
  for (size_t i = 0; i < run1.size(); ++i) {
    const ResultRow& a = run1.row(i);
    const ResultRow& b = run2.row(i);
    EXPECT_EQ(a.measure, b.measure);
    EXPECT_EQ(a.hypothesis, b.hypothesis);
    EXPECT_EQ(a.unit, b.unit);
    ExpectScoreEq(a.unit_score, b.unit_score, /*exact=*/true, 0, a.measure);
    ExpectScoreEq(a.group_score, b.group_score, /*exact=*/true, 0, a.measure);
  }
}

// ------------------------------------------------- early stop + cancel

TEST(ParallelEngineTest, EarlyStoppingConvergesUnderSharding) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(512);  // 32 blocks of 16 records (128 rows)
  std::vector<ModelSpec> models = {AllUnitsGroup(&ex)};
  std::vector<HypothesisPtr> hyps = {std::make_shared<TokenHypothesis>("a")};
  std::vector<MeasureFactoryPtr> measures = {
      std::make_shared<CorrelationScore>("pearson")};

  InspectOptions options;
  options.block_size = 16;
  options.streaming = true;
  options.early_stopping = true;
  // Each shard's replica must converge on its own slice (~1/4 of the
  // rows), so the threshold is scaled for per-shard sample sizes.
  options.corr_epsilon = 0.1;
  options.num_shards = 4;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);
  EXPECT_TRUE(stats.all_converged);
  // Early stopping actually saved extraction work.
  EXPECT_LT(stats.blocks_processed, 32u);
  EXPECT_GT(stats.blocks_processed, 0u);
}

TEST(ParallelEngineTest, PreCancelledShardedJobStopsImmediately) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  std::atomic<bool> cancel{true};
  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 8;
  options.cancel = &cancel;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.blocks_processed, 0u);
}

TEST(ParallelEngineTest, MidRunCancelStopsShardedJob) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(256);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  std::atomic<bool> cancel{false};
  InspectOptions options = BaseOptions();
  options.streaming = true;
  options.passes = 64;  // far more work than the cancel allows
  options.num_shards = 4;
  options.cancel = &cancel;
  RuntimeStats stats;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true, std::memory_order_relaxed);
  });
  Inspect(models, ds, measures, hyps, options, &stats);
  canceller.join();
  EXPECT_TRUE(stats.cancelled);
}

// -------------------------------------------------- pool / session wiring

TEST(ParallelEngineTest, ConcurrentJobsShareThePoolWithoutDeadlock) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();

  SessionConfig config;
  config.num_threads = 2;  // fewer threads than jobs: fan-out must not hang
  config.hypothesis_cache_values = 0;
  InspectionSession session(std::move(config));
  session.catalog().RegisterModel("synthetic", &ex);
  session.catalog().RegisterDataset("ab", &ds);

  InspectRequest request;
  request.models.push_back({.name = "synthetic"});
  request.hypotheses = hyps;
  request.dataset_name = "ab";
  request.measures = {std::make_shared<CorrelationScore>("pearson")};
  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 3;
  request.options = options;

  // Sequential reference.
  InspectOptions seq_options = options;
  seq_options.num_shards = 1;
  InspectRequest seq_request = request;
  seq_request.options = seq_options;
  Result<ResultTable> reference = session.Inspect(seq_request);
  ASSERT_TRUE(reference.ok());

  // Three sharded jobs race on a two-thread pool; each job's block loop
  // fans out over the same pool its job body runs on.
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(session.Submit(request));
  for (auto& job : jobs) {
    const Result<ResultTable>& result = job.Wait();
    ASSERT_TRUE(result.ok());
    ExpectTablesEqual(*reference, *result);
    EXPECT_EQ(job.Stats().num_shards, 3u);
  }
}

TEST(ThreadPoolTest, NestedParallelForFromPoolTasksDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> tasks;
  for (int j = 0; j < 4; ++j) {
    tasks.push_back(pool.Submit([&pool, &total] {
      pool.ParallelFor(16, [&total](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }));
  }
  for (auto& t : tasks) t.get();
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelEngineTest, PerShardStatsCoverTheWork) {
  SyntheticExtractor ex;
  Dataset ds = MakeAbDataset(96);
  std::vector<ModelSpec> models = MakeModels(&ex);
  std::vector<HypothesisPtr> hyps = MakeHypotheses();
  std::vector<MeasureFactoryPtr> measures = AllMeasures();

  InspectOptions options = BaseOptions();
  options.streaming = false;
  options.num_shards = 4;
  RuntimeStats stats;
  Inspect(models, ds, measures, hyps, options, &stats);

  ASSERT_EQ(stats.num_shards, 4u);
  // 4 shard lanes + 1 sequential lane (SGD measures present).
  ASSERT_EQ(stats.shards.size(), 5u);
  size_t shard_blocks = 0;
  double lane_unit_s = 0, lane_insp_s = 0;
  for (size_t s = 0; s < 4; ++s) {
    shard_blocks += stats.shards[s].blocks_processed;
    lane_unit_s += stats.shards[s].unit_extraction_s;
    lane_insp_s += stats.shards[s].inspection_s;
  }
  EXPECT_EQ(shard_blocks, 12u);  // 96 records / 8 per block
  EXPECT_EQ(stats.shards[4].blocks_processed, 12u);  // sequential lane
  EXPECT_EQ(stats.blocks_processed, 12u);
  EXPECT_EQ(stats.records_processed, 96u);
  // Phase totals are the lane sums (plus the sequential lane's inspection).
  EXPECT_NEAR(stats.unit_extraction_s, lane_unit_s, 1e-9);
  EXPECT_GE(stats.inspection_s, lane_insp_s);
}

}  // namespace
}  // namespace deepbase
