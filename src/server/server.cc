#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "service/explain.h"
#include "service/scheduler.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace deepbase {

namespace {

/// Lifecycle stage carried in kPollOk/kEventProgress frames.
uint8_t WireJobStatus(JobStatus status) {
  return static_cast<uint8_t>(status);
}

/// Serving-layer metrics (handles cached once; see util/metrics.h).
struct ServerMetrics {
  Counter* connections = nullptr;
  Counter* frames_received = nullptr;
  Counter* frames_sent = nullptr;
  Counter* protocol_errors = nullptr;
  Gauge* connections_active = nullptr;
};

ServerMetrics& Metrics() {
  static ServerMetrics* metrics = [] {
    auto* m = new ServerMetrics();
    MetricsRegistry& reg = MetricsRegistry::Global();
    m->connections = reg.GetCounter("deepbase_server_connections_total");
    m->frames_received =
        reg.GetCounter("deepbase_server_frames_received_total");
    m->frames_sent = reg.GetCounter("deepbase_server_frames_sent_total");
    m->protocol_errors =
        reg.GetCounter("deepbase_server_protocol_errors_total");
    m->connections_active =
        reg.GetGauge("deepbase_server_connections_active");
    return m;
  }();
  return *metrics;
}

}  // namespace

InspectionServer::InspectionServer(InspectionSession* session,
                                   ServerConfig config)
    : session_(session), config_(std::move(config)) {}

InspectionServer::~InspectionServer() { Shutdown(); }

Status InspectionServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
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
  running_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  closing_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void InspectionServer::AcceptLoop() {
  while (!closing_.load(std::memory_order_acquire)) {
    // Reclaim connections whose clients already hung up, so dead fds and
    // thread handles never accumulate across a long-lived server.
    ReapZombies();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Transient conditions must not kill the listener: a client that
      // aborted between SYN and accept, or momentary fd exhaustion.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down (or fatal error): stop accepting
    }
    if (closing_.load(std::memory_order_acquire) ||
        draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    size_t active;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      active = stats_.connections_active;
    }
    if (active >= config_.max_connections) {
      // Best-effort refusal notice; the client may also just see EOF.
      wire::Writer w;
      wire::EncodeStatus(
          Status::ResourceExhausted("connection limit reached"), &w);
      const std::string frame =
          wire::EncodeFrame(wire::MsgType::kError, 0, w.bytes());
      (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_refused;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_active;
    }
    Metrics().connections->Inc();
    Metrics().connections_active->Add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    // Watcher first: the reader's teardown path joins conn->watcher, so
    // the member must be fully assigned before the reader can run (an
    // instant client hangup otherwise races the assignment).
    conn->watcher = std::thread([this, conn] { WatchConnection(conn); });
    conn->reader = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void InspectionServer::Send(const std::shared_ptr<Connection>& conn,
                            wire::MsgType type, uint64_t request_id,
                            const std::string& payload) {
  std::lock_guard<std::mutex> write_lock(conn->write_mu);
  const Status st = wire::WriteFrame(conn->fd, type, request_id, payload);
  if (!st.ok()) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->broken = true;
    }
    // A connection that cannot be written to is dead to the client even
    // when the socket is only half-broken (or the failure was injected):
    // letting the reader keep serving would strand clients waiting for
    // pushes that will never come. Shut the socket down so the reader
    // unblocks and runs the normal teardown; the client sees a
    // connection loss and its reconnect/resubmit machinery takes over.
    ::shutdown(conn->fd, SHUT_RDWR);
  } else {
    Metrics().frames_sent->Inc();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.frames_sent;
  }
}

void InspectionServer::SendError(const std::shared_ptr<Connection>& conn,
                                 uint64_t request_id, const Status& status) {
  wire::Writer w;
  wire::EncodeStatus(status, &w);
  Send(conn, wire::MsgType::kError, request_id, w.bytes());
}

std::string InspectionServer::ResultPayload(const JobHandle& handle) const {
  // Only called once the job is terminal, so Wait() returns immediately.
  const Result<ResultTable>& result = handle.Wait();
  const RuntimeStats stats = handle.Stats();
  const JobSummary job = handle.Summary();
  wire::Writer w;
  wire::EncodeStatus(result.status(), &w);
  if (result.ok()) {
    // Table serialization is the server's wire cost for this response;
    // measured here so the client's critical-path breakdown accounts for
    // it (the residual gap to client latency is network + decode).
    Stopwatch wire_watch;
    w.Str(result->SerializeToString());
    wire::ResultSummaryWire summary;
    summary.blocks_processed = stats.blocks_processed;
    summary.dedup_hits = stats.dedup_hits;
    summary.result_cache_hits = stats.result_cache_hits;
    summary.scan_shared_hits = stats.scan_shared_hits;
    summary.total_s = stats.total_s;
    summary.trace_id = job.trace_id;
    summary.queue_s = job.queue_s;
    summary.extract_s = job.extract_s;
    summary.score_s = job.score_s;
    summary.merge_s = job.merge_s;
    summary.worker_hop_s = job.worker_hop_s;
    summary.wire_s = wire_watch.Seconds();
    wire::EncodeResultSummary(summary, &w);
  }
  return w.Take();
}

void InspectionServer::WatchConnection(
    const std::shared_ptr<Connection>& conn) {
  const auto interval = std::chrono::duration<double>(
      config_.progress_poll_s > 0 ? config_.progress_poll_s : 0.002);
  struct Outgoing {
    wire::MsgType type;
    uint64_t request_id;
    std::string payload;
  };
  struct FinishedJob {
    JobHandle handle;
    uint64_t submit_request_id = 0;
    std::vector<uint64_t> wait_ids;
  };
  std::unique_lock<std::mutex> lock(conn->mu);
  while (!conn->closing) {
    conn->cv.wait_for(lock, interval);
    if (conn->closing) break;
    if (conn->broken) continue;  // keep draining poll wakeups, send nothing
    std::vector<Outgoing> out;
    std::vector<FinishedJob> finished;
    size_t progress_events = 0;
    for (auto& [job_id, job] : conn->jobs) {
      if (!job.announced || job.result_sent) continue;
      JobProgress progress;
      const JobStatus status = job.handle.Poll(&progress);
      const bool terminal =
          status == JobStatus::kDone || status == JobStatus::kCancelled;
      if (job.want_progress &&
          progress.blocks_completed > job.last_progress_sent) {
        // Send only on advance: the stream is strictly increasing by
        // construction, whatever the poll cadence.
        job.last_progress_sent = progress.blocks_completed;
        wire::JobProgressWire p;
        p.status = WireJobStatus(status);
        p.blocks_completed = progress.blocks_completed;
        p.blocks_total = progress.blocks_total;
        p.records_processed = progress.records_processed;
        wire::Writer w;
        wire::EncodeJobProgress(p, &w);
        out.push_back(
            {wire::MsgType::kEventProgress, job.submit_request_id, w.Take()});
        ++progress_events;
      }
      if (terminal) {
        // Claim delivery under the lock; serialize the (possibly large)
        // result outside it so request dispatch on this connection never
        // stalls behind table serialization.
        job.result_sent = true;
        ++conn->results_in_flight;
        FinishedJob done;
        done.handle = job.handle;
        done.submit_request_id = job.submit_request_id;
        done.wait_ids.swap(job.pending_waits);
        finished.push_back(std::move(done));
      }
    }
    if (out.empty() && finished.empty()) continue;
    lock.unlock();
    for (const Outgoing& frame : out) {
      Send(conn, frame.type, frame.request_id, frame.payload);
    }
    for (const FinishedJob& done : finished) {
      const std::string payload = ResultPayload(done.handle);
      Send(conn, wire::MsgType::kResult, done.submit_request_id, payload);
      for (uint64_t wait_id : done.wait_ids) {
        Send(conn, wire::MsgType::kResult, wait_id, payload);
      }
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.progress_events_sent += progress_events;
      stats_.results_sent += finished.size();
    }
    lock.lock();
    conn->results_in_flight -= finished.size();
    // Bounded retention: delivered jobs stay probeable (late Poll/Wait)
    // up to the configured cap; beyond it the oldest delivered entries
    // are dropped so a long-lived client cannot pin unbounded tables.
    if (!finished.empty() && config_.retained_results > 0) {
      size_t delivered = 0;
      for (const auto& [job_id, job] : conn->jobs) {
        if (job.result_sent) ++delivered;
      }
      for (auto it = conn->jobs.begin();
           delivered > config_.retained_results &&
           it != conn->jobs.end();) {
        if (it->second.result_sent && it->second.pending_waits.empty()) {
          it = conn->jobs.erase(it);
          --delivered;
        } else {
          ++it;
        }
      }
    }
  }
}

void InspectionServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                                    const wire::Frame& frame) {
  // Bracket the dispatch so the graceful drain can see submits that have
  // passed the draining check but not yet registered their job.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->submits_in_progress;
  }
  HandleSubmitImpl(conn, frame);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    --conn->submits_in_progress;
  }
}

void InspectionServer::HandleSubmitImpl(
    const std::shared_ptr<Connection>& conn, const wire::Frame& frame) {
  if (draining_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.submits_rejected_draining;
    }
    SendError(conn, frame.request_id,
              Status::ResourceExhausted(
                  "server is draining; new submissions are rejected"));
    return;
  }
  wire::Reader r(frame.payload);
  const uint8_t flags = r.U8();
  const uint64_t trace_id = r.U64();
  InspectRequest request;
  if (!wire::DecodeInspectRequest(&r, &request) || !r.exhausted()) {
    SendError(conn, frame.request_id,
              Status::DataLoss("malformed Submit payload"));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submits;
  }
  JobHandle handle = session_->Submit(std::move(request), trace_id);
  // Session admission control surfaces as a protocol-level error: an
  // over-quota submission is born terminal with kResourceExhausted.
  if (handle.Done()) {
    const Result<ResultTable>& result = handle.Wait();
    if (!result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      SendError(conn, frame.request_id, result.status());
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    TrackedJob job;
    job.handle = handle;
    job.submit_request_id = frame.request_id;
    job.want_progress = (flags & 1) != 0;
    conn->jobs[handle.id()] = std::move(job);
  }
  wire::Writer w;
  w.U64(handle.id());
  Send(conn, wire::MsgType::kSubmitOk, frame.request_id, w.bytes());
  {
    // Announce only after kSubmitOk is on the wire, so the watcher never
    // pushes frames for a job the client has not heard back about.
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->jobs.find(handle.id());
    if (it != conn->jobs.end()) it->second.announced = true;
  }
  conn->cv.notify_all();
}

void InspectionServer::HandleRegisterDataset(
    const std::shared_ptr<Connection>& conn, const wire::Frame& frame) {
  if (!config_.allow_remote_register) {
    SendError(conn, frame.request_id,
              Status::NotImplemented(
                  "remote registration is disabled on this server"));
    return;
  }
  wire::Reader r(frame.payload);
  std::string name = r.Str();
  auto dataset = std::make_shared<Dataset>();
  if (!r.ok() || name.empty() || !wire::DecodeDataset(&r, dataset.get()) ||
      !r.exhausted()) {
    SendError(conn, frame.request_id,
              Status::DataLoss("malformed RegisterDataset payload"));
    return;
  }
  // Owning registration: the catalog (which outlives this server) keeps
  // the uploaded dataset alive, so host code may keep using the name
  // after the server is gone.
  session_->catalog().RegisterDataset(
      name, std::shared_ptr<const Dataset>(std::move(dataset)));
  wire::Writer w;
  w.U64(session_->catalog_version());
  Send(conn, wire::MsgType::kRegisterOk, frame.request_id, w.bytes());
}

void InspectionServer::HandleRegisterHypotheses(
    const std::shared_ptr<Connection>& conn, const wire::Frame& frame) {
  if (!config_.allow_remote_register) {
    SendError(conn, frame.request_id,
              Status::NotImplemented(
                  "remote registration is disabled on this server"));
    return;
  }
  wire::Reader r(frame.payload);
  std::string set_name = r.Str();
  const uint32_t n = r.U32();
  std::vector<HypothesisPtr> hypotheses;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    wire::HypothesisSpec spec;
    if (!wire::DecodeHypothesisSpec(&r, &spec)) break;
    Result<HypothesisPtr> built = wire::BuildHypothesis(spec);
    if (!built.ok()) {
      SendError(conn, frame.request_id, built.status());
      return;
    }
    hypotheses.push_back(std::move(built).ValueOrDie());
  }
  if (!r.exhausted() || set_name.empty() || hypotheses.size() != n) {
    SendError(conn, frame.request_id,
              Status::DataLoss("malformed RegisterHypotheses payload"));
    return;
  }
  session_->catalog().RegisterHypotheses(set_name, std::move(hypotheses));
  wire::Writer w;
  w.U64(session_->catalog_version());
  Send(conn, wire::MsgType::kRegisterOk, frame.request_id, w.bytes());
}

bool InspectionServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                                   const wire::Frame& frame) {
  switch (frame.type) {
    case wire::MsgType::kHello: {
      wire::Reader r(frame.payload);
      const uint16_t client_version = r.U16();
      if (!r.ok() || client_version != wire::kProtocolVersion) {
        SendError(conn, frame.request_id,
                  Status::Invalid("unsupported client protocol version"));
        return false;
      }
      wire::Writer w;
      w.U16(wire::kProtocolVersion);
      w.U64(session_->catalog_version());
      Send(conn, wire::MsgType::kHelloOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kSubmit:
      HandleSubmit(conn, frame);
      return true;
    case wire::MsgType::kPoll: {
      wire::Reader r(frame.payload);
      const uint64_t job_id = r.U64();
      JobHandle handle;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->jobs.find(job_id);
        if (r.ok() && it != conn->jobs.end()) handle = it->second.handle;
      }
      if (!handle.valid()) {
        SendError(conn, frame.request_id,
                  Status::NotFound("unknown job id " +
                                   std::to_string(job_id)));
        return true;
      }
      JobProgress progress;
      const JobStatus status = handle.Poll(&progress);
      wire::JobProgressWire p;
      p.status = WireJobStatus(status);
      p.blocks_completed = progress.blocks_completed;
      p.blocks_total = progress.blocks_total;
      p.records_processed = progress.records_processed;
      wire::Writer w;
      wire::EncodeJobProgress(p, &w);
      Send(conn, wire::MsgType::kPollOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kCancel: {
      wire::Reader r(frame.payload);
      const uint64_t job_id = r.U64();
      JobHandle handle;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->jobs.find(job_id);
        if (r.ok() && it != conn->jobs.end()) handle = it->second.handle;
      }
      if (!handle.valid()) {
        SendError(conn, frame.request_id,
                  Status::NotFound("unknown job id " +
                                   std::to_string(job_id)));
        return true;
      }
      handle.Cancel();
      conn->cv.notify_all();  // deliver the terminal result promptly
      wire::Writer w;
      w.U64(job_id);
      Send(conn, wire::MsgType::kCancelOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kWait: {
      wire::Reader r(frame.payload);
      const uint64_t job_id = r.U64();
      JobHandle ready_handle;
      bool ready = false, known = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->jobs.find(job_id);
        if (r.ok() && it != conn->jobs.end()) {
          known = true;
          if (it->second.result_sent || it->second.handle.Done()) {
            ready = true;
            ready_handle = it->second.handle;
            it->second.result_sent = true;
          } else {
            it->second.pending_waits.push_back(frame.request_id);
          }
        }
      }
      if (!known) {
        SendError(conn, frame.request_id,
                  Status::NotFound("unknown job id " +
                                   std::to_string(job_id)));
      } else if (ready) {
        // Serialization stays off conn->mu (large tables must not stall
        // dispatch).
        Send(conn, wire::MsgType::kResult, frame.request_id,
             ResultPayload(ready_handle));
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.results_sent;
      }
      // else: the watcher answers when the job completes.
      return true;
    }
    case wire::MsgType::kRegisterDataset:
      HandleRegisterDataset(conn, frame);
      return true;
    case wire::MsgType::kRegisterHypotheses:
      HandleRegisterHypotheses(conn, frame);
      return true;
    case wire::MsgType::kStats: {
      const SchedulerStats sched = session_->scheduler().stats();
      wire::ServerStatsWire s;
      s.jobs_scheduled = sched.jobs_scheduled;
      s.groups_formed = sched.groups_formed;
      s.jobs_coscheduled = sched.jobs_coscheduled;
      s.scan_extractions = sched.scan_extractions;
      s.scan_shared_hits = sched.scan_shared_hits;
      s.dedup_followers = sched.dedup_followers;
      s.dedup_promotions = sched.dedup_promotions;
      s.admission_rejections = sched.admission_rejections;
      s.result_cache_hits = sched.result_cache_hits;
      s.result_cache_misses = sched.result_cache_misses;
      s.result_cache_persistent_hits = sched.result_cache_persistent_hits;
      s.inflight_jobs = sched.snapshot.inflight_jobs;
      s.active_jobs = sched.snapshot.active_jobs;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        s.connections_accepted = stats_.connections_accepted;
        s.connections_active = stats_.connections_active;
        s.frames_received = stats_.frames_received;
        s.frames_sent = stats_.frames_sent;
        s.protocol_errors = stats_.protocol_errors;
        s.submits = stats_.submits;
      }
      s.catalog_version = session_->catalog_version();
      s.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
      wire::Writer w;
      wire::EncodeServerStats(s, &w);
      Send(conn, wire::MsgType::kStatsOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kMetrics: {
      // Payload: one format byte (0 = Prometheus text, 1 = JSON). An
      // empty payload defaults to Prometheus.
      uint8_t format = 0;
      if (!frame.payload.empty()) {
        wire::Reader r(frame.payload);
        format = r.U8();
        if (!r.ok() || !r.exhausted() || format > 1) {
          SendError(conn, frame.request_id,
                    Status::DataLoss("malformed Metrics payload"));
          return true;
        }
      }
      // Refresh store-occupancy gauges + mmap-hit counter so the scrape
      // reflects the store's current state, not the last publish.
      PublishStoreMetrics(session_);
      const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      wire::Writer w;
      w.U8(format);
      w.Str(format == 1 ? RenderJson(snapshot) : RenderPrometheus(snapshot));
      Send(conn, wire::MsgType::kMetricsOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kExplain: {
      // Payload: one flags byte (bit 0 = ANALYZE, bit 1 = JSON output)
      // followed by an encoded InspectRequest. ANALYZE runs the job to
      // completion on this connection's frame loop — an introspection
      // RPC, not a throughput path.
      wire::Reader r(frame.payload);
      const uint8_t flags = r.U8();
      InspectRequest request;
      if (!r.ok() || flags > 3 ||
          !wire::DecodeInspectRequest(&r, &request) || !r.exhausted()) {
        SendError(conn, frame.request_id,
                  Status::DataLoss("malformed Explain payload"));
        return true;
      }
      const bool analyze = (flags & 1) != 0;
      const bool as_json = (flags & 2) != 0;
      Result<InspectionPlan> plan = analyze
                                        ? session_->ExplainAnalyze(request)
                                        : session_->Explain(request);
      if (!plan.ok()) {
        SendError(conn, frame.request_id, plan.status());
        return true;
      }
      wire::Writer w;
      w.U8(flags);
      w.Str(as_json ? plan->ToJson() : plan->ToText());
      Send(conn, wire::MsgType::kExplainOk, frame.request_id, w.bytes());
      return true;
    }
    case wire::MsgType::kStatusz: {
      // Payload: one format byte (0 = text, 1 = JSON); empty = text.
      uint8_t format = 0;
      if (!frame.payload.empty()) {
        wire::Reader r(frame.payload);
        format = r.U8();
        if (!r.ok() || !r.exhausted() || format > 1) {
          SendError(conn, frame.request_id,
                    Status::DataLoss("malformed Statusz payload"));
          return true;
        }
      }
      wire::Writer w;
      w.U8(format);
      w.Str(RenderStatusz(session_, format == 1));
      Send(conn, wire::MsgType::kStatuszOk, frame.request_id, w.bytes());
      return true;
    }
    default: {
      Metrics().protocol_errors->Inc();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      SendError(conn, frame.request_id,
                Status::NotImplemented(
                    "unknown message type " +
                    std::to_string(static_cast<int>(frame.type))));
      return true;
    }
  }
}

void InspectionServer::ServeConnection(
    const std::shared_ptr<Connection>& conn) {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closing || conn->broken) break;
    }
    wire::Frame frame;
    const Status st =
        wire::ReadFrame(conn->fd, &frame, config_.max_frame_bytes);
    if (!st.ok()) {
      if (st.code() == StatusCode::kDataLoss) {
        // Malformed input: tell the client why (best effort) and close —
        // stream framing can no longer be trusted.
        Metrics().protocol_errors->Inc();
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.protocol_errors;
        }
        SendError(conn, 0, st);
      }
      break;
    }
    Metrics().frames_received->Inc();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_received;
    }
    if (!HandleFrame(conn, frame)) break;
  }
  // Teardown. If the client hung up on its own (not a server-initiated
  // drain), cancel its unfinished jobs: nobody is listening for results,
  // and cancellation frees engine capacity (dedup waiters detach without
  // disturbing their leader).
  bool server_initiated;
  std::vector<JobHandle> to_cancel;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    server_initiated = conn->closing;
    conn->closing = true;
    if (!server_initiated) {
      for (auto& [id, job] : conn->jobs) {
        if (!job.result_sent) to_cancel.push_back(job.handle);
      }
    }
  }
  conn->cv.notify_all();
  for (JobHandle& handle : to_cancel) handle.Cancel();
  // Half-close first: the watcher may still be mid-send on this fd;
  // the real close() below happens only after the watcher is joined.
  ::shutdown(conn->fd, SHUT_RDWR);
  Metrics().connections_active->Sub(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (stats_.connections_active > 0) --stats_.connections_active;
  }
  // Reclaim the connection here if Shutdown() has not already taken
  // ownership (presence in conns_, under the mutex, decides): join the
  // watcher, close the fd, free the jobs map (it pins ResultTables), and
  // park this thread's own handle in zombies_ for the accept loop or
  // Shutdown to join.
  bool owns = false;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = std::find(conns_.begin(), conns_.end(), conn);
    if (it != conns_.end()) {
      conns_.erase(it);
      zombies_.push_back(conn);
      owns = true;
    }
  }
  if (owns) {
    if (conn->watcher.joinable()) conn->watcher.join();
    ::close(conn->fd);
    conn->fd = -1;
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->jobs.clear();
  }
}

void InspectionServer::ReapZombies() {
  std::vector<std::shared_ptr<Connection>> zombies;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    zombies.swap(zombies_);
  }
  for (const auto& conn : zombies) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->watcher.joinable()) conn->watcher.join();
  }
}

void InspectionServer::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  // Stop the listener; accept() unblocks with an error.
  ::shutdown(listen_fd_, SHUT_RDWR);

  // Drain: every tracked job on every live connection must reach a
  // terminal state and have its result pushed. Jobs on dead/broken
  // connections are skipped (their cancellation is already in flight).
  while (true) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      for (const auto& conn : conns_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closing || conn->broken) continue;
        if (conn->submits_in_progress > 0 || conn->results_in_flight > 0) {
          pending = true;
          break;
        }
        for (const auto& [id, job] : conn->jobs) {
          if (!job.result_sent) {
            pending = true;
            break;
          }
        }
        if (pending) break;
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Now tear everything down.
  closing_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closing = true;
    }
    conn->cv.notify_all();
    ::shutdown(conn->fd, SHUT_RDWR);
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->watcher.joinable()) conn->watcher.join();
    ::close(conn->fd);
  }
  // Connections their own readers already tore down (client hangups).
  ReapZombies();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

ServerStats InspectionServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace deepbase
