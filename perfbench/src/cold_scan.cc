// cold_scan: one analyst inspects a model nothing has cached yet. Every
// job is a fresh InspectionSession with no behavior store, running the
// default streaming engine with one shard lane per core: the LSTM forward
// pass (nn) does most of the work, and logreg_l1 trains on the sequential
// lane beside the sharded pearson lanes.

#include <thread>

#include "bench.h"
#include "world.h"

namespace perfbench {

RunResult RunColdScan(const RunArgs& args) {
  RunResult out;
  WorldSpec spec;
  spec.records = args.smoke ? 64 : 160;  // x 64 symbols = 10,240 rows
  spec.hidden = args.smoke ? 16 : 96;     // 2 layers: 192 units
  spec.pool = args.smoke ? 6 : 16;
  const std::vector<std::string> measures = {"pearson", "logreg_l1"};
  deepbase::InspectOptions options;
  options.num_shards = std::max(1u, std::thread::hardware_concurrency());
  options.early_stopping = false;  // full sweeps: the oracle is exact
  options.block_size = args.smoke ? 8 : 10;

  // Set-up, repeated: generate the corpus, the model and the request.
  std::unique_ptr<World> world;
  deepbase::InspectRequest request;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    world = BuildWorld(spec, args.seed);
    deepbase::Rng rng(args.seed * 7919 + 1);
    request = MakeRequest(*world, DistinctSubsets(&rng, spec.pool, 4, 1)[0],
                          measures, options);
    setups.push_back(Seconds(t0, NowNs()));
  }

  // Oracle (untimed): the same request, sequential and local.
  const Oracle oracle(*world, std::max(1u, std::thread::hardware_concurrency()));
  auto reference = oracle.Sequential(request);
  if (!reference.ok()) {
    out.Fail("oracle failed: " + reference.status().ToString());
    return out;
  }
  const std::string expected = reference->SerializeToString();
  if (args.smoke) {
    auto live = oracle.Sequential(request, /*live=*/true);
    if (!live.ok() || live->SerializeToString() != expected) {
      out.Fail("oracle: stored behaviors differ from live extraction");
    }
  }

  deepbase::SchedulerStats sched;
  auto job = [&](size_t) {
    deepbase::SessionConfig config;
    config.options = options;
    deepbase::InspectionSession session(std::move(config));
    Registration registration(*world, &session.catalog(), args.trace,
                              measures);
    JobObs obs = RunLocalJob(&session, request, world->rows(),
                             [&](const deepbase::ResultTable& table) {
                               return table.SerializeToString() == expected;
                             });
    sched.Accumulate(session.scheduler().stats());
    return obs;
  };
  SpanLog::Get().Clear();
  double peak_rss_mb = 0;
  const std::vector<JobObs> jobs =
      ClosedLoop(args, SIZE_MAX, job, &peak_rss_mb);

  CountJobs(jobs, &out);
  if (out.failed > 0) out.Fail("cold_scan: a table differed from the oracle");
  AddClosedLoopEndToEnd(jobs, world->rows(), Median(setups), peak_rss_mb,
                        &out);
  LayerContext ctx;
  ctx.sched_after = sched;
  ctx.overhead_share = TraceOverhead(jobs);
  AddPerLayer(jobs, SpanLog::Get().Collect(), ctx, &out);
  return out;
}

}  // namespace perfbench
