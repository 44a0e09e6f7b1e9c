// warm_reinspect: the §6.3 / Figure 9 sweep. The model's unit behaviors
// already sit in the BehaviorStore memory tier (set-up materializes them,
// so that serial cost lands in setup_s); the analyst then re-inspects the
// same model with a closed loop of distinct hypothesis sets under four
// measures. Measure kernels and hypothesis evaluation do the work; the
// hypothesis store tier sees first-sight writes beside re-reads.

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "core/behavior_store.h"
#include "world.h"

namespace perfbench {

RunResult RunWarmReinspect(const RunArgs& args) {
  RunResult out;
  WorldSpec spec;
  spec.records = args.smoke ? 32 : 512;  // x 64 symbols = 32,768 rows
  spec.hidden = args.smoke ? 16 : 96;    // 2 layers: 192 units
  spec.pool = args.smoke ? 6 : 16;
  const size_t hyps_per_request = 2;
  const std::vector<std::string> measures = {"pearson", "diff_means",
                                             "jaccard", "mutual_info"};
  deepbase::InspectOptions options;
  options.early_stopping = false;  // full sweeps: the oracle is exact
  options.block_size = args.smoke ? 8 : 64;  // large blocks: 4,096 rows
  const std::string store_dir =
      args.work_dir + "/warm-" + std::to_string(::getpid());

  // Set-up, repeated (3 times: it takes seconds): inputs, a session with a
  // store, and the unit behaviors materialized into its memory tier.
  std::unique_ptr<World> world;
  std::unique_ptr<deepbase::InspectionSession> session;
  std::unique_ptr<Registration> registration;
  std::vector<double> setups, materialize;
  for (int rep = 0; rep < 3; ++rep) {
    registration.reset();
    session.reset();
    std::filesystem::remove_all(store_dir);
    const int64_t t0 = NowNs();
    world = BuildWorld(spec, args.seed);
    deepbase::SessionConfig config;
    config.options = options;
    config.store_dir = store_dir;
    session = std::make_unique<deepbase::InspectionSession>(std::move(config));
    registration = std::make_unique<Registration>(*world, &session->catalog(),
                                                  args.trace, measures);
    const int64_t m0 = NowNs();
    bool materialized = false;
    auto key = session->store()->EnsureUnitBehaviors(
        *registration->extractor(), world->dataset, &materialized);
    materialize.push_back(Seconds(m0, NowNs()));
    setups.push_back(Seconds(t0, NowNs()));
    if (!key.ok() || !materialized) {
      out.Fail("materialization failed");
      return out;
    }
  }

  Oracle oracle(*world, std::max(1u, std::thread::hardware_concurrency()));
  const deepbase::Status loaded = oracle.LoadPool(measures, options);
  if (!loaded.ok()) {
    out.Fail("oracle failed: " + loaded.ToString());
    return out;
  }
  deepbase::Rng rng(args.seed * 7919 + 2);
  const size_t pairs = spec.pool * (spec.pool - 1) / 2;
  const auto sets = DistinctSubsets(&rng, spec.pool, hyps_per_request, pairs);

  auto job = [&](size_t i) {
    const deepbase::InspectRequest request =
        MakeRequest(*world, sets[i], measures, options);
    return RunLocalJob(session.get(), request, world->rows(),
                       [&](const deepbase::ResultTable& table) {
                         if (!oracle.Matches(sets[i], table)) return false;
                         // Smoke mode also checks the pool oracle against
                         // the sequential run of this very request.
                         if (!args.smoke || i >= 2) return true;
                         auto direct = oracle.Sequential(request);
                         return direct.ok() && SameBytes(*direct, table);
                       });
  };
  LayerContext ctx;
  ctx.sched_before = session->scheduler().stats();
  SpanLog::Get().Clear();
  double peak_rss_mb = 0;
  const std::vector<JobObs> jobs =
      ClosedLoop(args, sets.size(), job, &peak_rss_mb);
  ctx.sched_after = session->scheduler().stats();

  CountJobs(jobs, &out);
  if (out.failed > 0) {
    out.Fail("warm_reinspect: a table differed from the oracle");
  }
  AddClosedLoopEndToEnd(jobs, world->rows(), Median(setups), peak_rss_mb,
                        &out);
  ctx.materialize_s = Median(materialize);
  ctx.overhead_share = TraceOverhead(jobs);
  AddPerLayer(jobs, SpanLog::Get().Collect(), ctx, &out);
  registration.reset();
  session.reset();
  std::filesystem::remove_all(store_dir);
  return out;
}

}  // namespace perfbench
