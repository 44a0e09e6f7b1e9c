// cluster_sliced: a closed loop of full, non-streaming passes sliced
// across two in-process InspectionWorkers by a ClusterCoordinator, with
// the `inspect_server --cluster` defaults (streaming off, early stopping
// off, 4 shards, 32-record blocks) and exact-merge measures only. The one
// workload that runs coordinator dispatch, measure-state serialization and
// merge, and the materialized sharded lane loop.

#include <thread>

#include "bench.h"
#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr size_t kWorkers = 2;
constexpr uint32_t kShards = 4;

/// A coordinator session plus its workers, each with its own session and
/// catalog over the same world.
struct Cluster {
  std::unique_ptr<deepbase::InspectionSession> session;
  std::unique_ptr<Registration> registration;
  std::unique_ptr<deepbase::cluster::ClusterCoordinator> coordinator;
  std::vector<std::unique_ptr<deepbase::InspectionSession>> worker_sessions;
  std::vector<std::unique_ptr<Registration>> worker_registrations;
  std::vector<std::unique_ptr<deepbase::cluster::InspectionWorker>> workers;

  ~Cluster() {
    for (auto& worker : workers) worker->Shutdown();
    if (coordinator != nullptr) coordinator->Shutdown();
  }
};

deepbase::Status StartCluster(const World& world,
                              const deepbase::InspectOptions& options,
                              bool traced,
                              const std::vector<std::string>& measures,
                              Cluster* c) {
  deepbase::SessionConfig config;
  config.options = options;
  c->session = std::make_unique<deepbase::InspectionSession>(config);
  c->registration = std::make_unique<Registration>(world, &c->session->catalog(),
                                                   traced, measures);
  deepbase::cluster::CoordinatorConfig coord_config;
  coord_config.total_shards = kShards;
  c->coordinator = std::make_unique<deepbase::cluster::ClusterCoordinator>(
      c->session.get(), coord_config);
  DB_RETURN_NOT_OK(c->coordinator->Start());
  // Each worker stands in for a host with an equal share of the cores.
  deepbase::SessionConfig worker_config_base = config;
  worker_config_base.num_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency() / kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    c->worker_sessions.push_back(
        std::make_unique<deepbase::InspectionSession>(worker_config_base));
    c->worker_registrations.push_back(std::make_unique<Registration>(
        world, &c->worker_sessions.back()->catalog(), traced, measures));
    deepbase::cluster::WorkerConfig worker_config;
    worker_config.worker_id = "w" + std::to_string(w);
    worker_config.coordinator_port = c->coordinator->port();
    c->workers.push_back(std::make_unique<deepbase::cluster::InspectionWorker>(
        c->worker_sessions.back().get(), worker_config));
    DB_RETURN_NOT_OK(c->workers.back()->Connect());
  }
  for (int i = 0; i < 5000 && c->coordinator->num_workers() < kWorkers; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (c->coordinator->num_workers() < kWorkers) {
    return deepbase::Status::IOError("workers did not register");
  }
  return deepbase::Status::OK();
}

}  // namespace

RunResult RunClusterSliced(const RunArgs& args) {
  RunResult out;
  WorldSpec spec;
  spec.records = args.smoke ? 32 : 192;  // x 64 symbols = 12,288 rows
  spec.hidden = args.smoke ? 16 : 96;    // 2 layers: 192 units
  spec.pool = args.smoke ? 6 : 16;
  const size_t hyps_per_request = 2;
  const std::vector<std::string> measures = {"pearson", "diff_means",
                                             "jaccard"};
  deepbase::InspectOptions options;
  options.streaming = false;
  options.early_stopping = false;
  options.num_shards = kShards;
  options.block_size = args.smoke ? 4 : 32;

  std::unique_ptr<World> world;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    const int64_t t0 = NowNs();
    world = BuildWorld(spec, args.seed);
    cluster = std::make_unique<Cluster>();
    const deepbase::Status started =
        StartCluster(*world, options, args.trace, measures, cluster.get());
    setups.push_back(Seconds(t0, NowNs()));
    if (!started.ok()) {
      out.Fail("cluster start failed: " + started.ToString());
      return out;
    }
  }

  Oracle oracle(*world, std::max(1u, std::thread::hardware_concurrency()));
  const deepbase::Status loaded = oracle.LoadPool(measures, options);
  if (!loaded.ok()) {
    out.Fail("oracle failed: " + loaded.ToString());
    return out;
  }
  deepbase::Rng rng(args.seed * 7919 + 4);
  const size_t pairs = spec.pool * (spec.pool - 1) / 2;
  const auto sets = DistinctSubsets(&rng, spec.pool, hyps_per_request, pairs);

  auto job = [&](size_t i) {
    const deepbase::InspectRequest request =
        MakeRequest(*world, sets[i], measures, options);
    JobObs obs = RunLocalJob(
        cluster->session.get(), request, world->rows(),
        [&](const deepbase::ResultTable& table) {
          if (!oracle.Matches(sets[i], table)) return false;
          if (!args.smoke || i >= 2) return true;
          auto direct = oracle.Sequential(request);
          return direct.ok() && SameBytes(*direct, table);
        });
    obs.lanes = kShards;
    return obs;
  };
  LayerContext ctx;
  ctx.workers = kWorkers;
  ctx.sched_before = cluster->session->scheduler().stats();
  const deepbase::cluster::CoordinatorStats before =
      cluster->coordinator->stats();
  SpanLog::Get().Clear();
  double peak_rss_mb = 0;
  const std::vector<JobObs> jobs =
      ClosedLoop(args, sets.size(), job, &peak_rss_mb);
  const deepbase::cluster::CoordinatorStats after =
      cluster->coordinator->stats();
  ctx.sched_after = cluster->session->scheduler().stats();
  ctx.assignments = after.assignments_sent - before.assignments_sent;
  ctx.reassignments = after.reassignments - before.reassignments;

  CountJobs(jobs, &out);
  if (out.failed > 0) {
    out.Fail("cluster_sliced: a table differed from the oracle");
  }
  if (after.jobs_sliced - before.jobs_sliced != jobs.size()) {
    out.Fail("cluster_sliced: not every job was sliced across the workers");
  }
  AddClosedLoopEndToEnd(jobs, world->rows(), Median(setups), peak_rss_mb,
                        &out);
  ctx.overhead_share = TraceOverhead(jobs);
  AddPerLayer(jobs, SpanLog::Get().Collect(), ctx, &out);
  cluster.reset();
  return out;
}

}  // namespace perfbench
