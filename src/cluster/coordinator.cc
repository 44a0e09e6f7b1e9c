#include "cluster/coordinator.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/block_pipeline.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace deepbase {
namespace cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Cluster-layer metrics (handles cached once; see util/metrics.h).
struct ClusterMetrics {
  Counter* assignments = nullptr;
  Counter* reassignments = nullptr;
  Counter* degraded = nullptr;
  Gauge* workers = nullptr;
};

ClusterMetrics& Metrics() {
  static ClusterMetrics* metrics = [] {
    auto* m = new ClusterMetrics();
    MetricsRegistry& reg = MetricsRegistry::Global();
    m->assignments = reg.GetCounter("deepbase_cluster_assignments_total");
    m->reassignments =
        reg.GetCounter("deepbase_cluster_reassignments_total");
    m->degraded = reg.GetCounter("deepbase_cluster_jobs_degraded_total");
    m->workers = reg.GetGauge("deepbase_cluster_workers");
    return m;
  }();
  return *metrics;
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Rendezvous key of a whole-job assignment: stable across repeats, so
/// the chosen worker's behavior store warms up.
std::string WholeJobKey(const InspectRequest& request) {
  return "job:" + request.dataset_name;
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(InspectionSession* session,
                                       CoordinatorConfig config)
    : session_(session), config_(std::move(config)) {}

ClusterCoordinator::~ClusterCoordinator() { Shutdown(); }

Status ClusterCoordinator::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("coordinator already running");
  }
  // Misconfigured timeouts fail loudly at startup instead of declaring
  // every worker dead (or no worker ever dead) at runtime.
  if (!(config_.heartbeat_timeout_s > 0)) {
    return Status::Invalid("CoordinatorConfig.heartbeat_timeout_s must be "
                           "positive, got " +
                           std::to_string(config_.heartbeat_timeout_s));
  }
  if (!(config_.assign_timeout_s > 0)) {
    return Status::Invalid("CoordinatorConfig.assign_timeout_s must be "
                           "positive, got " +
                           std::to_string(config_.assign_timeout_s));
  }
  if (!(config_.reassign_backoff_s >= 0)) {
    return Status::Invalid("CoordinatorConfig.reassign_backoff_s must be "
                           "non-negative, got " +
                           std::to_string(config_.reassign_backoff_s));
  }
  if (config_.max_attempts < 1) {
    return Status::Invalid("CoordinatorConfig.max_attempts must be at least "
                           "1, got " + std::to_string(config_.max_attempts));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Invalid("bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, config_.listen_backlog) < 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = false;
  }
  closing_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  if (config_.install_engine) {
    session_->scheduler().SetEngine(this);
  }
  return Status::OK();
}

void ClusterCoordinator::AcceptLoop() {
  while (!closing_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      break;  // listener shut down (or fatal error)
    }
    if (closing_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto worker = std::make_shared<Worker>();
    worker->fd = fd;
    worker->alive = false;  // not live until the kWorkerHello handshake
    {
      std::lock_guard<std::mutex> lock(mu_);
      workers_.push_back(worker);
    }
    worker->reader = std::thread([this, worker] { ServeWorker(worker); });
  }
}

bool ClusterCoordinator::SendToWorker(const std::shared_ptr<Worker>& worker,
                                      wire::MsgType type, uint64_t request_id,
                                      const std::string& payload) {
  std::lock_guard<std::mutex> lock(worker->write_mu);
  return wire::WriteFrame(worker->fd, type, request_id, payload).ok();
}

void ClusterCoordinator::MarkWorkerDeadLocked(
    const std::shared_ptr<Worker>& worker) {
  if (!worker->alive) return;
  worker->alive = false;
  ++stats_.workers_lost;
  Metrics().workers->Sub(1);
  // Unblock a reader parked on the dead connection and wake every run
  // waiting on cv_ so its reassignment scan sees the death promptly.
  ::shutdown(worker->fd, SHUT_RDWR);
  cv_.notify_all();
}

std::shared_ptr<ClusterCoordinator::Worker>
ClusterCoordinator::FindWorkerLocked(const std::string& id) const {
  std::shared_ptr<Worker> found;
  for (const auto& worker : workers_) {
    if (worker->id != id) continue;
    if (worker->alive) return worker;  // alive entry wins over a stale one
    found = worker;
  }
  return found;
}

std::vector<std::shared_ptr<ClusterCoordinator::Worker>>
ClusterCoordinator::LiveWorkersLocked() const {
  std::vector<std::shared_ptr<Worker>> live;
  for (const auto& worker : workers_) {
    if (worker->alive) live.push_back(worker);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  return live;
}

void ClusterCoordinator::PushStoreKeymap() {
  wire::StoreKeymapWire keymap;
  std::vector<std::shared_ptr<Worker>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live = LiveWorkersLocked();
    std::vector<std::string> ids;
    ids.reserve(live.size());
    for (const auto& worker : live) ids.push_back(worker->id);
    for (const std::string& model : session_->catalog().ModelNames()) {
      keymap.placements.emplace_back("unit:" + model, PlaceKey("unit:" + model, ids));
    }
    for (const std::string& set : session_->catalog().HypothesisSetNames()) {
      keymap.placements.emplace_back("hyp:" + set, PlaceKey("hyp:" + set, ids));
    }
    keymap_ = keymap.placements;
    ++stats_.keymap_pushes;
  }
  wire::Writer w;
  wire::EncodeStoreKeymap(keymap, &w);
  const std::string payload = w.Take();
  for (const auto& worker : live) {
    SendToWorker(worker, wire::MsgType::kStoreKeymap, 0, payload);
  }
}

void ClusterCoordinator::ServeWorker(const std::shared_ptr<Worker>& worker) {
  // Handshake: the first frame must be kWorkerHello with our protocol
  // version; anything else gets a typed error and the connection closes
  // (there is no stream to keep in sync with an unregistered peer).
  wire::Frame frame;
  Status st = wire::ReadFrame(worker->fd, &frame, config_.max_frame_bytes);
  bool registered = false;
  if (st.ok() && frame.type == wire::MsgType::kWorkerHello) {
    wire::WorkerHelloWire hello;
    wire::Reader r(frame.payload);
    if (wire::DecodeWorkerHello(&r, &hello) && r.exhausted() &&
        hello.protocol_version == wire::kProtocolVersion) {
      size_t live_count = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // A same-id reconnect replaces the previous connection: the old
        // socket is dead weight (its assignments reassign to the new one).
        std::shared_ptr<Worker> old = hello.worker_id.empty()
                                          ? nullptr
                                          : FindWorkerLocked(hello.worker_id);
        if (old != nullptr && old->alive) MarkWorkerDeadLocked(old);
        worker->id = hello.worker_id.empty()
                         ? "worker-fd" + std::to_string(worker->fd)
                         : hello.worker_id;
        worker->num_threads = hello.num_threads;
        worker->alive = true;
        worker->last_heartbeat = Clock::now();
        ++stats_.workers_registered;
        Metrics().workers->Add(1);
        live_count = LiveWorkersLocked().size();
      }
      wire::Writer w;
      w.U64(session_->catalog_version());
      w.U32(static_cast<uint32_t>(live_count));
      if (SendToWorker(worker, wire::MsgType::kWorkerHelloOk,
                       frame.request_id, w.bytes())) {
        registered = true;
        cv_.notify_all();
        PushStoreKeymap();  // membership changed
      }
    }
  }
  if (!registered) {
    wire::Writer w;
    wire::EncodeStatus(
        Status::Invalid("worker registration requires a protocol-matched "
                        "WorkerHello as the first frame"),
        &w);
    SendToWorker(worker, wire::MsgType::kError, frame.request_id, w.bytes());
    ::shutdown(worker->fd, SHUT_RDWR);
    return;
  }

  while (!closing_.load(std::memory_order_acquire)) {
    st = wire::ReadFrame(worker->fd, &frame, config_.max_frame_bytes);
    if (!st.ok()) break;
    switch (frame.type) {
      case wire::MsgType::kWorkerHeartbeat: {
        std::lock_guard<std::mutex> lock(mu_);
        worker->last_heartbeat = Clock::now();
        break;
      }
      case wire::MsgType::kEventWorkerProgress: {
        wire::Reader r(frame.payload);
        wire::WorkerProgressWire progress;
        if (!wire::DecodeWorkerProgress(&r, &progress) || !r.exhausted()) {
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        worker->last_heartbeat = Clock::now();  // progress implies liveness
        auto it = assignment_index_.find(progress.assignment_id);
        if (it != assignment_index_.end()) {
          Assignment& a = it->second.first->assignments[it->second.second];
          // Absolute counters; keep maxima so a reordered tick never
          // regresses the aggregate.
          a.live_blocks = std::max(a.live_blocks, progress.blocks_processed);
          a.live_records =
              std::max(a.live_records, progress.records_processed);
          cv_.notify_all();
        }
        break;
      }
      case wire::MsgType::kAssignResult: {
        wire::Reader r(frame.payload);
        wire::AssignResultWire result;
        if (!wire::DecodeAssignResult(&r, &result) || !r.exhausted()) {
          wire::Writer w;
          wire::EncodeStatus(
              Status::DataLoss("malformed AssignResult payload"), &w);
          SendToWorker(worker, wire::MsgType::kError, frame.request_id,
                       w.bytes());
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        auto it = assignment_index_.find(result.assignment_id);
        if (it == assignment_index_.end() ||
            it->second.first->assignments[it->second.second].done) {
          // First result wins. Work is deterministic, so a late duplicate
          // from a presumed-dead worker carried identical bytes anyway.
          ++stats_.duplicate_results;
          break;
        }
        Assignment& a = it->second.first->assignments[it->second.second];
        a.result = std::move(result);
        a.done = true;
        a.done_ns = TraceNowNs();
        ++stats_.assignments_completed;
        cv_.notify_all();
        break;
      }
      default: {
        // Forward compatibility: unknown frame types are answered with a
        // typed error and the connection stays alive (same rule as the
        // client-facing server).
        wire::Writer w;
        wire::EncodeStatus(
            Status::NotImplemented(
                "unknown message type " +
                std::to_string(static_cast<int>(frame.type))),
            &w);
        SendToWorker(worker, wire::MsgType::kError, frame.request_id,
                     w.bytes());
        break;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    MarkWorkerDeadLocked(worker);
  }
  PushStoreKeymap();  // membership changed
  ::shutdown(worker->fd, SHUT_RDWR);
}

void ClusterCoordinator::MonitorLoop() {
  while (!closing_.load(std::memory_order_acquire)) {
    bool membership_changed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = Clock::now();
      const auto timeout = Seconds(config_.heartbeat_timeout_s);
      for (const auto& worker : workers_) {
        if (!worker->alive) continue;
        if (now - worker->last_heartbeat > timeout) {
          MarkWorkerDeadLocked(worker);
          membership_changed = true;
        }
      }
    }
    if (membership_changed) PushStoreKeymap();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Result<ResultTable> ClusterCoordinator::DistributedRun(
    const InspectRequest& request, const InspectOptions& default_options,
    RuntimeStats* stats) {
  Stopwatch watch;
  Result<InspectPlan> plan_or =
      session_->catalog().Compile(request, default_options);
  if (!plan_or.ok()) return plan_or.status();
  InspectPlan plan = std::move(plan_or).ValueOrDie();

  // The scheduler's Execute installed the job tracer into the request's
  // options, so the coordinator's dispatch/merge spans and the imported
  // worker spans all land in the same per-job trace.
  Tracer* tracer = plan.options.tracer;
  TraceContext trace{tracer, plan.options.trace_parent_span};
  DB_SPAN_NAMED(run_span, trace, "coord.run");

  const EnginePlan dispatch = PlanDispatch(request, plan);
  const bool sliceable = dispatch.dispatch == EnginePlan::Dispatch::kSliced;
  // The request that runs, wherever it runs: every score-affecting option
  // pinned, so the scores depend only on (seed, dispatch.shards), never on
  // worker count, a worker's cores, or which worker ran which range.
  InspectRequest pinned_request = request;
  InspectOptions pinned = plan.options;
  pinned.num_shards = dispatch.shards;
  if (sliceable) pinned.model_merging = false;  // worker pair order == merge
  pinned_request.options = pinned;
  auto run_local = [&] {
    return RunInspectRequest(pinned_request, session_->catalog(),
                             default_options, stats);
  };

  // Requests holding inline pointers (extractors, datasets, hypothesis or
  // measure objects) have no identity across the wire; run them on the
  // local engine instead of failing them.
  if (dispatch.dispatch == EnginePlan::Dispatch::kInlineFallback) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.jobs_local_fallback;
    }
    return run_local();
  }

  // Availability rescue: a kUnavailable outcome (quorum loss, attempts
  // exhausted, injected dispatch fault) degrades to the local engine when
  // configured — the job completes with the same deterministic table
  // instead of failing. Anything else (deadline, compile errors) stays an
  // error: a local retry would fail identically.
  auto fail_or_degrade = [&](const Status& why) -> Result<ResultTable> {
    if (config_.degrade_to_local &&
        why.code() == StatusCode::kUnavailable) {
      Metrics().degraded->Inc();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.jobs_degraded_local;
      }
      return run_local();
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return why;
  };

  if (failpoint::Armed()) {
    const Status fp = failpoint::Evaluate("cluster.dispatch");
    if (!fp.ok()) return fail_or_degrade(fp);
  }

  // Plan the assignments.
  auto run = std::make_shared<RunState>();
  uint64_t run_id = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutting_down_) {
      ++stats_.jobs_failed;
      return Status::Unavailable("coordinator is shutting down");
    }
    if (dispatch.dispatch == EnginePlan::Dispatch::kNoWorkers) {
      lock.unlock();  // fail_or_degrade takes mu_ (and may run locally)
      return fail_or_degrade(
          Status::Unavailable("no live workers registered"));
    }
    run_id = next_run_id_++;
    if (sliceable) {
      ++stats_.jobs_sliced;
      for (const auto& [lo, hi] : dispatch.ranges) {
        wire::AssignmentWire aw;
        aw.assignment_id = next_assignment_id_++;
        aw.mode = wire::AssignmentWire::Mode::kSliced;
        aw.total_shards = static_cast<uint32_t>(dispatch.shards);
        aw.shard_lo = lo;
        aw.shard_hi = hi;
        // Pre-allocate the dispatch span: its id is baked into the cached
        // payload (the worker parents its root to it), and the span itself
        // is recorded once the assignment resolves.
        if (tracer != nullptr) {
          aw.trace_id = tracer->trace_id();
          aw.parent_span = NewSpanId();
        }
        aw.request = pinned_request;
        wire::Writer w;
        const Status st = wire::EncodeAssignment(aw, &w);
        DB_DCHECK(st.ok());  // the plan checked remotability
        Assignment a;
        a.id = aw.assignment_id;
        a.shard_lo = lo;
        a.dispatch_span = aw.parent_span;
        a.payload = w.Take();
        a.retry_at = Clock::now();
        run->assignments.push_back(std::move(a));
      }
    } else {
      ++stats_.jobs_whole;
      wire::AssignmentWire aw;
      aw.assignment_id = next_assignment_id_++;
      aw.mode = wire::AssignmentWire::Mode::kWhole;
      aw.total_shards = 1;
      aw.shard_lo = 0;
      aw.shard_hi = 1;
      if (tracer != nullptr) {
        aw.trace_id = tracer->trace_id();
        aw.parent_span = NewSpanId();
      }
      aw.request = pinned_request;
      wire::Writer w;
      const Status st = wire::EncodeAssignment(aw, &w);
      DB_DCHECK(st.ok());
      Assignment a;
      a.id = aw.assignment_id;
      a.dispatch_span = aw.parent_span;
      a.payload = w.Take();
      a.retry_at = Clock::now();
      run->assignments.push_back(std::move(a));
    }
    active_runs_[run_id] = run;
    for (size_t i = 0; i < run->assignments.size(); ++i) {
      assignment_index_[run->assignments[i].id] = {run, i};
    }
  }

  // Drive the run: dispatch (and re-dispatch) assignments, aggregate
  // progress, detect dead/slow owners, until completion or failure.
  // Every state change funnels through cv_, so the 50 ms tick is only a
  // deadline-check cadence, not the completion latency.
  const std::atomic<bool>* cancel = plan.options.cancel;
  ProgressCounter* progress = plan.options.progress;
  bool cancelled = false;
  Status failure = Status::OK();
  bool degradable_failure = false;  ///< kUnavailable the local engine can fix
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (run->failed) {
        failure = run->fail_status;
        degradable_failure = true;
        break;
      }
      bool all_done = true;
      for (const Assignment& a : run->assignments) {
        if (!a.done) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      if (shutting_down_) {
        failure = Status::Unavailable("coordinator is shutting down");
        break;
      }
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        cancelled = true;
        break;
      }
      if (plan.options.deadline != Clock::time_point::max() &&
          Clock::now() >= plan.options.deadline) {
        size_t pending = 0;
        for (const Assignment& a : run->assignments) {
          if (!a.done) ++pending;
        }
        failure = Status::DeadlineExceeded(
            "job deadline expired with " + std::to_string(pending) + " of " +
            std::to_string(run->assignments.size()) +
            " assignments incomplete");
        break;
      }

      // (Re)dispatch: assignments whose owner died or blew its deadline
      // go back to the pool with bounded attempts + doubling backoff.
      const auto now = Clock::now();
      std::vector<std::pair<std::shared_ptr<Worker>, const Assignment*>>
          sends;
      for (Assignment& a : run->assignments) {
        if (a.done) continue;
        if (!a.owner.empty()) {
          const std::shared_ptr<Worker> owner = FindWorkerLocked(a.owner);
          const bool owner_dead = owner == nullptr || !owner->alive;
          const bool timed_out = now >= a.deadline;
          if (!owner_dead && !timed_out) continue;
          a.owner.clear();
          ++stats_.reassignments;
          Metrics().reassignments->Inc();
          const double backoff =
              config_.reassign_backoff_s *
              static_cast<double>(1u << std::min(a.attempts, 10));
          a.retry_at = now + Seconds(backoff);
        }
        if (now < a.retry_at) continue;
        if (a.attempts >= config_.max_attempts) {
          run->failed = true;
          run->fail_status = Status::Unavailable(
              "assignment " + std::to_string(a.id) + " failed after " +
              std::to_string(a.attempts) + " attempts");
          break;
        }
        const std::vector<std::shared_ptr<Worker>> live =
            LiveWorkersLocked();
        if (live.empty()) {
          run->failed = true;
          run->fail_status =
              Status::Unavailable("no live workers remain for this job");
          break;
        }
        // Whole jobs place by rendezvous hash (stable across repeats →
        // the chosen worker's behavior store warms up); sliced ranges
        // spread round-robin over the sorted live set.
        std::shared_ptr<Worker> target;
        if (run->assignments.size() == 1 && !sliceable) {
          std::vector<std::string> ids;
          for (const auto& worker : live) ids.push_back(worker->id);
          const std::string chosen = PlaceKey(WholeJobKey(request), ids);
          for (const auto& worker : live) {
            if (worker->id == chosen) target = worker;
          }
        }
        if (target == nullptr) target = live[a.id % live.size()];
        a.owner = target->id;
        ++a.attempts;
        // The per-assignment watchdog never outlives the job's own budget:
        // a straggler past the job deadline is reclaimed (and the run
        // resolved) instead of quietly spending someone else's time.
        a.deadline = now + Seconds(config_.assign_timeout_s);
        if (plan.options.deadline != Clock::time_point::max() &&
            plan.options.deadline < a.deadline) {
          a.deadline = plan.options.deadline;
        }
        ++stats_.assignments_sent;
        Metrics().assignments->Inc();
        if (a.dispatch_ns == 0) a.dispatch_ns = TraceNowNs();
        sends.emplace_back(target, &a);
      }
      if (run->failed) continue;  // loop re-enters and breaks with status
      if (!sends.empty()) {
        // Socket writes happen outside mu_; a failed send marks the
        // worker dead and the next scan reassigns.
        std::vector<std::pair<std::shared_ptr<Worker>, std::string>> frames;
        std::vector<uint64_t> ids;
        for (const auto& [target, a] : sends) {
          frames.emplace_back(target, a->payload);
          ids.push_back(a->id);
        }
        lock.unlock();
        std::vector<std::shared_ptr<Worker>> broken;
        for (size_t i = 0; i < frames.size(); ++i) {
          if (!SendToWorker(frames[i].first, wire::MsgType::kAssign, ids[i],
                            frames[i].second)) {
            broken.push_back(frames[i].first);
          }
        }
        lock.lock();
        for (const auto& worker : broken) MarkWorkerDeadLocked(worker);
        continue;
      }

      // Aggregate progress, strictly increasing: per-assignment maxima of
      // live ticks and final counters, summed, published as a max.
      if (progress != nullptr) {
        uint64_t blocks = 0, records = 0;
        for (const Assignment& a : run->assignments) {
          blocks += std::max(a.live_blocks, a.result.blocks_processed);
          records += std::max(a.live_records, a.result.records_processed);
        }
        if (blocks > progress->blocks_done.load(std::memory_order_relaxed)) {
          progress->blocks_done.store(blocks, std::memory_order_relaxed);
        }
        if (records >
            progress->records_done.load(std::memory_order_relaxed)) {
          progress->records_done.store(records, std::memory_order_relaxed);
        }
      }

      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }

    // Deregister before releasing the lock: late results for this run are
    // duplicates from here on.
    for (const Assignment& a : run->assignments) {
      assignment_index_.erase(a.id);
    }
    active_runs_.erase(run_id);
    cv_.notify_all();  // Shutdown() may be draining active_runs_
  }

  if (cancelled) {
    // Mirror the local engine's cancellation contract: OK with the partial
    // (here: empty) table and stats.cancelled set; workers finish their
    // in-flight assignments and the late results are ignored.
    if (stats != nullptr) {
      stats->cancelled = true;
      stats->total_s = watch.Seconds();
    }
    return ResultTable();
  }
  if (!failure.ok()) {
    if (degradable_failure) return fail_or_degrade(failure);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return failure;
  }

  // Per-assignment worker errors surface as the job's error (they are
  // deterministic — a retry elsewhere would fail identically for compile
  // errors, and transport-level failures never produce a done result).
  // kUnavailable is the one exception: it reports the worker's state, not
  // the job's, so it goes through the degradation path like quorum loss.
  for (const Assignment& a : run->assignments) {
    if (!a.result.status.ok()) return fail_or_degrade(a.result.status);
  }

  // Stitch the per-worker timelines into the job trace and charge the
  // wire/queueing overhead of each hop: the dispatch window minus the
  // worker's own run time is what scale-out cost beyond compute.
  double worker_hop_s = 0;
  for (const Assignment& a : run->assignments) {
    const int64_t dispatch_ns =
        a.done_ns > a.dispatch_ns ? a.done_ns - a.dispatch_ns : 0;
    if (dispatch_ns > a.result.run_ns) {
      worker_hop_s +=
          static_cast<double>(dispatch_ns - a.result.run_ns) * 1e-9;
    }
    if (tracer == nullptr || a.dispatch_span == 0) continue;
    TraceSpan dispatch;
    dispatch.span_id = a.dispatch_span;
    dispatch.parent_id = run_span.id();
    dispatch.name = "coord.dispatch";
    dispatch.start_ns = a.dispatch_ns;
    dispatch.duration_ns = dispatch_ns;
    dispatch.tags = "assignment=" + std::to_string(a.id) +
                    ",worker=" + a.owner;
    tracer->Record(std::move(dispatch));
    if (!a.result.spans.empty()) {
      // Re-anchor the worker's clock domain: its root span (the one
      // parented to our dispatch span) is pinned to our dispatch time.
      int64_t worker_root_start = 0;
      for (const TraceSpan& span : a.result.spans) {
        if (span.parent_id == a.dispatch_span) {
          worker_root_start = span.start_ns;
          break;
        }
      }
      tracer->Import(a.result.spans, a.dispatch_ns - worker_root_start);
    }
  }

  Stopwatch merge_watch;
  Result<ResultTable> table = [&]() -> Result<ResultTable> {
    DB_SPAN(trace, "coord.merge");
    return sliceable ? MergeSliced(plan, *run)
                     : ResultTable::DeserializeFromString(
                           run->assignments[0].result.table_bytes);
  }();
  if (!table.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.jobs_failed;
    return table.status();
  }

  if (stats != nullptr) {
    bool all_converged = true;
    for (const Assignment& a : run->assignments) {
      stats->blocks_processed += a.result.blocks_processed;
      stats->records_processed += a.result.records_processed;
      all_converged = all_converged && a.result.all_converged != 0;
    }
    stats->num_shards = dispatch.shards;
    stats->all_converged = all_converged;
    stats->merge_s = merge_watch.Seconds();
    stats->worker_hop_s = worker_hop_s;
    stats->total_s = watch.Seconds();
  }
  return table;
}

size_t ClusterCoordinator::Shards(const InspectOptions& options) const {
  return ResolveShards(options.num_shards, config_.total_shards);
}

EnginePlan ClusterCoordinator::PlanDispatch(
    const InspectRequest& request, const InspectPlan& compiled) const {
  EnginePlan plan;
  plan.shards = Shards(compiled.options);
  plan.degrade_to_local = config_.degrade_to_local;
  plan.live_workers = worker_ids();
  if (!wire::CheckRemotable(request).ok()) {
    plan.dispatch = EnginePlan::Dispatch::kInlineFallback;
  } else if (plan.live_workers.empty()) {
    plan.dispatch = EnginePlan::Dispatch::kNoWorkers;
  } else if (Sliceable(compiled.measures, compiled.hypotheses,
                       compiled.options, plan.shards)) {
    // Sliced iff the pipeline's own lane decision puts every pair on a
    // shard lane (exact-merging states, no sequential-lane work);
    // streaming runs, S < 2, SGD measures and model-merged composites pin
    // the whole job to one worker instead.
    plan.dispatch = EnginePlan::Dispatch::kSliced;
    for (const ShardRange& range : MakeShardRanges(
             static_cast<uint32_t>(plan.shards),
             static_cast<uint32_t>(plan.live_workers.size()))) {
      plan.ranges.emplace_back(range.lo, range.hi);
    }
  } else {
    plan.dispatch = EnginePlan::Dispatch::kWhole;
    plan.placement = PlaceKey(WholeJobKey(request), plan.live_workers);
  }
  return plan;
}

Result<ResultTable> ClusterCoordinator::MergeSliced(const InspectPlan& plan,
                                                    const RunState& run) {
  // Ascending shard_lo = ascending shard id: with each worker having
  // pre-merged its contiguous range in ascending order, this fold visits
  // shards 0..S-1 exactly as the in-process MergeReplicas does.
  std::vector<size_t> order(run.assignments.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&run](size_t a, size_t b) {
    return run.assignments[a].shard_lo < run.assignments[b].shard_lo;
  });

  // Enumerate pairs exactly as BlockPipeline does with model merging off:
  // model → group → measure → hypothesis.
  ResultTable table;
  size_t pair_idx = 0;
  for (size_t m = 0; m < plan.models.size(); ++m) {
    for (size_t g = 0; g < plan.models[m].groups.size(); ++g) {
      const UnitGroupSpec& group = plan.models[m].groups[g];
      const size_t num_units = group.unit_ids.size();
      for (size_t s = 0; s < plan.measures.size(); ++s) {
        for (size_t h = 0; h < plan.hypotheses.size(); ++h) {
          const int num_classes = plan.hypotheses[h]->num_classes();
          std::unique_ptr<Measure> state;
          for (size_t r : order) {
            const wire::AssignResultWire& result =
                run.assignments[r].result;
            if (pair_idx >= result.pair_states.size()) {
              return Status::DataLoss(
                  "worker returned too few partial measure states");
            }
            std::unique_ptr<Measure> partial =
                plan.measures[s]->Create(num_units, num_classes);
            codec::Reader reader(result.pair_states[pair_idx]);
            if (partial == nullptr ||
                !partial->DeserializeState(&reader) || !reader.exhausted()) {
              return Status::DataLoss(
                  "partial state for measure '" + plan.measures[s]->name() +
                  "' / hypothesis '" + plan.hypotheses[h]->name() +
                  "' failed to decode");
            }
            if (state == nullptr) {
              state = std::move(partial);
            } else {
              state->MergeFrom(*partial);
            }
          }
          if (state == nullptr) {
            return Status::Internal("sliced run produced no partial states");
          }
          const MeasureScores ms = state->Scores();
          ResultRow base;
          base.model_id = plan.models[m].extractor->model_id();
          base.group_id = group.group_id;
          base.measure = plan.measures[s]->name();
          base.hypothesis = plan.hypotheses[h]->name();
          base.group_score = ms.group_score;
          if (ms.unit_scores.empty()) {
            table.Add(base);
          } else {
            DB_DCHECK(ms.unit_scores.size() == group.unit_ids.size());
            for (size_t u = 0; u < ms.unit_scores.size(); ++u) {
              ResultRow row = base;
              row.unit = group.unit_ids[u];
              row.unit_score = ms.unit_scores[u];
              table.Add(row);
            }
          }
          ++pair_idx;
        }
      }
    }
  }
  if (plan.min_abs_unit_score.has_value()) {
    const float threshold = *plan.min_abs_unit_score;
    table = table.Filter([threshold](const ResultRow& row) {
      return row.unit >= 0 && !std::isnan(row.unit_score) &&
             std::fabs(row.unit_score) > threshold;
    });
  }
  return table;
}

void ClusterCoordinator::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (config_.install_engine) {
    session_->scheduler().SetEngine(nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  // Drain: every in-flight DistributedRun observes shutting_down_ and
  // resolves (kUnavailable) on its own scheduler thread.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return active_runs_.empty(); });
  }
  closing_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  std::vector<std::shared_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers = workers_;
  }
  for (const auto& worker : workers) {
    ::shutdown(worker->fd, SHUT_RDWR);
    if (worker->reader.joinable()) worker->reader.join();
    ::close(worker->fd);
    worker->fd = -1;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

std::vector<std::string> ClusterCoordinator::worker_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  for (const auto& worker : LiveWorkersLocked()) ids.push_back(worker->id);
  return ids;
}

size_t ClusterCoordinator::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LiveWorkersLocked().size();
}

std::string ClusterCoordinator::PlaceStoreKey(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  for (const auto& worker : LiveWorkersLocked()) ids.push_back(worker->id);
  return PlaceKey(key, ids);
}

CoordinatorStats ClusterCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace deepbase
