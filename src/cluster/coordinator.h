// ClusterCoordinator: the coordinator half of the distributed inspection
// cluster. It accepts worker registrations over the wire protocol,
// installs itself as the session scheduler's engine (Scheduler::SetEngine)
// — so every existing front door (InspectionSession::Submit/Inspect, the
// network InspectionServer, the SQL layer) transparently executes on the
// cluster while result caching, in-flight dedup, and admission control
// keep working — and runs each job as block-range assignments:
//
//   sliced — jobs whose measures all support exact-or-reassociated
//     merging are split into min(total_shards, workers) contiguous shard
//     ranges (partition.h), one assignment per range. Workers return
//     serialized partial measure states; the coordinator deserializes and
//     folds them in ascending shard order, which equals the in-process
//     merge order, then assembles the result rows exactly as the engine
//     does. Integer-count measures are bit-identical at any worker count;
//     FP moment-sum measures agree up to rounding (bit-identical at one
//     worker).
//   whole — jobs with sequential-lane work (SGD-trained measures, model
//     merging, streaming runs) are pinned to a single worker, which runs
//     the full request and returns the serialized ResultTable.
//
// Determinism: the shard partition depends only on (total_shards, live
// worker count); scores depend only on (shuffle seed, total_shards) —
// the coordinator pins its resolved shard count into every assignment,
// sliced or whole, and into local fallback and degraded runs, so the
// *same table* comes back however many workers (of however many cores)
// share the work.
//
// Planning: PlanDispatch is the coordinator's one dispatch decision
// (shard count, remotability, sliced vs whole, ranges, placement).
// DistributedRun executes it and EXPLAIN renders it.
//
// Failure semantics: workers heartbeat; a missed-heartbeat or dead-socket
// worker has its in-flight assignments reassigned to live workers with
// bounded attempts and doubling backoff. Duplicate results (a slow worker
// answering after its range was reassigned) are ignored — first result
// wins, and determinism makes both byte-identical anyway. When no live
// worker remains, or an assignment exhausts its attempts, the job fails
// with a typed kUnavailable status — unless degrade_to_local is set, in
// which case the coordinator falls back to the local engine (counted in
// stats().jobs_degraded_local); determinism makes the degraded table
// identical to the distributed one.
//
// Deadlines: a job's InspectOptions::deadline travels inside every
// assignment (encoded as a relative remaining budget, re-anchored on the
// worker — no cross-host clock trust) and clamps each assignment's
// completion watchdog, so a straggling or reassigned worker can never
// spend past the job's budget. A run whose deadline passes fails with
// kDeadlineExceeded (never degraded: the local engine would be just as
// late).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "server/wire.h"
#include "service/inspection_session.h"
#include "service/scheduler.h"

namespace deepbase {
namespace cluster {

/// \brief Coordinator construction knobs.
struct CoordinatorConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  uint16_t port = 0;
  int listen_backlog = 16;
  /// Shard count of jobs that did not pin their own
  /// (InspectOptions::num_shards 0). This is the determinism key: a job's
  /// scores depend on (seed, total_shards), never on worker count.
  uint32_t total_shards = 8;
  /// A worker this long without a heartbeat is declared dead and its
  /// assignments are reassigned.
  double heartbeat_timeout_s = 2.0;
  /// Per-assignment completion watchdog; an assignment over this deadline
  /// is treated like a dead worker's (reassigned, attempts permitting).
  double assign_timeout_s = 120.0;
  /// Max delivery attempts per assignment (first send + reassignments)
  /// before the job fails with kUnavailable.
  int max_attempts = 3;
  /// Base reassignment backoff; doubles per attempt.
  double reassign_backoff_s = 0.02;
  size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// When false, Start() does not hook the session scheduler (tests drive
  /// DistributedRun directly).
  bool install_engine = true;
  /// When true, a job that would fail kUnavailable (no live workers, or an
  /// assignment out of attempts) runs on the local engine instead —
  /// availability over scale-out. Deterministic jobs return the same table
  /// either way. Deadline and compile errors are never degraded.
  bool degrade_to_local = false;
};

/// \brief Coordinator counters.
struct CoordinatorStats {
  size_t workers_registered = 0;
  size_t workers_lost = 0;
  size_t assignments_sent = 0;  ///< including reassignment resends
  size_t assignments_completed = 0;
  size_t reassignments = 0;
  size_t duplicate_results = 0;  ///< late answers after first-result-wins
  size_t jobs_sliced = 0;
  size_t jobs_whole = 0;
  size_t jobs_local_fallback = 0;  ///< inline-pointer requests run locally
  size_t jobs_degraded_local = 0;  ///< kUnavailable rescued by local engine
  size_t jobs_failed = 0;
  size_t keymap_pushes = 0;
};

/// \brief The coordinator. The session is not owned and must outlive it;
/// call Shutdown() (or destroy the coordinator) before the session dies.
class ClusterCoordinator : public InspectionEngine {
 public:
  explicit ClusterCoordinator(InspectionSession* session,
                              CoordinatorConfig config = {});
  ~ClusterCoordinator() override;

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// \brief Bind + listen + start the accept/monitor threads, and (by
  /// default) install the cluster as the scheduler's engine.
  Status Start();

  /// \brief Restore the local engine, fail in-flight distributed runs
  /// with kUnavailable, disconnect all workers, join all threads.
  /// Idempotent.
  void Shutdown();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// \brief Live (heartbeating) workers, sorted by id.
  std::vector<std::string> worker_ids() const;
  size_t num_workers() const;

  /// \brief Rendezvous owner of a behavior-store key among live workers
  /// (empty when none). The same map is pushed to workers as kStoreKeymap
  /// on every membership change.
  std::string PlaceStoreKey(const std::string& key) const;

  CoordinatorStats stats() const;

  /// \brief Execute one request on the cluster: the engine Run the
  /// scheduler calls (options already carry cancel/progress); exposed
  /// publicly so tests can drive it without a session round-trip.
  Result<ResultTable> DistributedRun(const InspectRequest& request,
                                     const InspectOptions& default_options,
                                     RuntimeStats* stats);

  // --- InspectionEngine.
  /// \brief The job's own num_shards, else total_shards (clamped).
  size_t Shards(const InspectOptions& options) const override;
  /// \brief The dispatch DistributedRun will execute for `request` with
  /// the live workers right now.
  EnginePlan PlanDispatch(const InspectRequest& request,
                          const InspectPlan& compiled) const override;
  Result<ResultTable> Run(const InspectRequest& request,
                          const InspectOptions& default_options,
                          RuntimeStats* stats) override {
    return DistributedRun(request, default_options, stats);
  }

 private:
  struct Worker {
    int fd = -1;
    std::string id;
    uint32_t num_threads = 0;
    std::thread reader;
    std::mutex write_mu;
    bool alive = true;  ///< guarded by coordinator mu_
    std::chrono::steady_clock::time_point last_heartbeat;  ///< mu_
  };

  /// One unit of distributed work inside one run. The same assignment id
  /// (and encoded payload) is reused across reassignment attempts, so a
  /// late answer from a presumed-dead worker is either the first result
  /// (accepted) or a duplicate of one (ignored) — never ambiguous.
  struct Assignment {
    uint64_t id = 0;
    uint32_t shard_lo = 0;
    std::string payload;  ///< encoded AssignmentWire
    std::string owner;    ///< current worker id ("" = awaiting dispatch)
    int attempts = 0;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point retry_at;
    bool done = false;
    wire::AssignResultWire result;
    uint64_t live_blocks = 0;   ///< latest in-flight progress report
    uint64_t live_records = 0;
    /// Tracing: the dispatch span id baked into the payload (the worker
    /// parents its local root to it) and the local dispatch timeline —
    /// first send to done, the anchor for re-basing worker clocks.
    uint64_t dispatch_span = 0;
    int64_t dispatch_ns = 0;  ///< 0 until the first send
    int64_t done_ns = 0;      ///< 0 until the result lands
  };

  /// One DistributedRun in flight; guarded by coordinator mu_.
  struct RunState {
    std::vector<Assignment> assignments;
    bool failed = false;
    Status fail_status;
  };

  void AcceptLoop();
  void ServeWorker(const std::shared_ptr<Worker>& worker);
  void MonitorLoop();

  bool SendToWorker(const std::shared_ptr<Worker>& worker,
                    wire::MsgType type, uint64_t request_id,
                    const std::string& payload);
  /// Mark dead under mu_ (idempotent) and wake waiting runs.
  void MarkWorkerDeadLocked(const std::shared_ptr<Worker>& worker);
  std::shared_ptr<Worker> FindWorkerLocked(const std::string& id) const;
  std::vector<std::shared_ptr<Worker>> LiveWorkersLocked() const;

  /// Recompute the store key → worker placement over live workers and
  /// push it to every live worker. Called on membership changes.
  void PushStoreKeymap();

  /// Merge a completed sliced run into the final table (ascending
  /// shard_lo = ascending shard id = the in-process merge order).
  Result<ResultTable> MergeSliced(const InspectPlan& plan,
                                  const RunState& run);

  InspectionSession* session_;
  CoordinatorConfig config_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::thread monitor_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> closing_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;  ///< fails new/waiting runs (guarded by mu_)
  std::vector<std::shared_ptr<Worker>> workers_;
  uint64_t next_assignment_id_ = 1;
  uint64_t next_run_id_ = 1;
  std::map<uint64_t, std::shared_ptr<RunState>> active_runs_;
  /// assignment id → (owning run, index into its assignments).
  std::map<uint64_t, std::pair<std::shared_ptr<RunState>, size_t>>
      assignment_index_;
  std::vector<std::pair<std::string, std::string>> keymap_;
  CoordinatorStats stats_;
};

}  // namespace cluster
}  // namespace deepbase
