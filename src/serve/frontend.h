// The socket front-end: binary wire protocol -> ModelRegistry -> DecodeService.
//
// One IO thread runs a poll() event loop over a loopback TCP listener and
// its connections: it accepts, reassembles length-prefixed frames
// (serve/wire.h), decodes request payloads into pooled request slots, and
// hands slot pointers to the dispatcher through a lock-free bounded MPSC
// ring (util/mpsc_ring.h). The dispatcher drains the ring in groups,
// enforces per-request deadlines, routes each request to its model's
// DecodeService via the registry, and returns completed slots through a
// second ring; the IO thread encodes the response frames and writes them
// back (partial writes finish under POLLOUT).
//
// Overload and error semantics — a hostile or unlucky client never crashes
// the process, it gets a typed response:
//   * request ring full          -> Unavailable        (shed-on-full)
//   * unknown model id           -> NotFound
//   * deadline already expired   -> DeadlineExceeded
//   * oversized payload          -> OutOfRange, then the connection closes
//   * malformed payload          -> InvalidArgument (framing intact, the
//                                   connection survives)
//   * garbage header (bad magic/version) -> connection closed; with no
//                                   trustworthy framing there is nothing
//                                   to address a response to.
//
// Allocation: connections, request slots, read/write buffers, the rings,
// and the dispatcher's future/service staging are all pooled and
// grow-only. After warm-up, a request/response round trip performs zero
// heap allocations on the IO-thread + dispatcher path
// (tests/frontend_test.cc pins this with the instrumented allocator).
//
// Determinism: the front-end only moves bytes; decoding happens in
// DecodeService, so wire results are bitwise-identical to offline
// single-threaded decodes for every registered model.
#ifndef DHMM_SERVE_FRONTEND_H_
#define DHMM_SERVE_FRONTEND_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/startup.h"
#include "serve/decode_service.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "util/check.h"
#include "util/mpsc_ring.h"
#include "util/status.h"

namespace dhmm::serve {

/// Options for the front-end. Designated-initializer-friendly POD with a
/// Validate() checked at Start() — the shared shape of every serve options
/// struct (see the README options table).
struct FrontEndOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port()).
  uint16_t port = 0;
  /// Most simultaneous connections; excess accepts are closed immediately.
  int max_connections = 64;
  /// Bounded request-queue depth between IO thread and dispatcher (rounded
  /// up to a power of two). A full queue sheds with Unavailable.
  size_t queue_capacity = 256;
  /// Largest accepted request payload; frames above it get OutOfRange.
  /// Must not exceed wire::kMaxPayload.
  size_t max_payload_bytes = size_t{1} << 20;
  /// poll() tick; the wake pipe makes the loop responsive regardless.
  int poll_timeout_ms = 100;
  /// Most requests the dispatcher submits to decode services before
  /// waiting — the group a DecodeService can coalesce into one batch.
  size_t max_inflight_batch = 64;

  Status Validate() const {
    if (max_connections < 1) {
      return Status::InvalidArgument(
          "FrontEndOptions::max_connections must be >= 1");
    }
    if (queue_capacity < 2) {
      return Status::InvalidArgument(
          "FrontEndOptions::queue_capacity must be >= 2");
    }
    if (max_payload_bytes == 0 || max_payload_bytes > wire::kMaxPayload) {
      return Status::InvalidArgument(
          "FrontEndOptions::max_payload_bytes must be in (0, kMaxPayload]");
    }
    if (poll_timeout_ms < 1) {
      return Status::InvalidArgument(
          "FrontEndOptions::poll_timeout_ms must be >= 1");
    }
    if (max_inflight_batch < 1) {
      return Status::InvalidArgument(
          "FrontEndOptions::max_inflight_batch must be >= 1");
    }
    return Status::OK();
  }
};

/// \brief Wire-protocol serving front-end over a ModelRegistry.
///
/// The registry is borrowed and must outlive the front-end. Start() binds
/// and spins up the IO and dispatcher threads; Stop() (or the destructor)
/// shuts them down. Every event is counted once, in the process-wide
/// obs::Registry under the "frontend." prefix (StatsString(), kStats).
template <typename Obs>
class FrontEnd {
 public:
  explicit FrontEnd(ModelRegistry<Obs>* registry,
                    const FrontEndOptions& options = {})
      : options_(options), registry_(registry) {
    DHMM_CHECK_MSG(registry != nullptr, "FrontEnd requires a registry");
    // Metric registration is construction-time (allocates, takes the
    // registry lock); the serving paths only touch the resolved pointers
    // — one relaxed atomic op each, no allocation.
    obs::Registry& obs_reg = obs::Registry::Global();
    m_frames_malformed_ = obs_reg.GetCounter("frontend.frames_malformed");
    m_requests_shed_ = obs_reg.GetCounter("frontend.requests_shed");
    m_deadline_expired_ = obs_reg.GetCounter("frontend.deadline_expired");
    m_requests_served_ = obs_reg.GetCounter("frontend.requests_served");
    m_routing_errors_ = obs_reg.GetCounter("frontend.routing_errors");
    m_protocol_errors_ = obs_reg.GetCounter("frontend.protocol_errors");
    m_conns_accepted_ = obs_reg.GetCounter("frontend.connections_accepted");
    m_conns_rejected_ = obs_reg.GetCounter("frontend.connections_rejected");
    // Indexed by DecodeKind wire value. frames_accepted is their sum,
    // computed per snapshot: one source of truth, so a kStats reply taken
    // while frames are being accepted still partitions exactly.
    const std::vector<std::string> by_kind = {
        "frontend.requests.viterbi", "frontend.requests.posterior",
        "frontend.requests.loglik", "frontend.requests.session_push",
        "frontend.requests.stats"};
    for (size_t i = 0; i < by_kind.size(); ++i) {
      m_by_kind_[i] = obs_reg.GetCounter(by_kind[i]);
    }
    obs_reg.RegisterCounterSum("frontend.frames_accepted", by_kind);
    m_ring_occupancy_ = obs_reg.GetGauge("frontend.req_ring_occupancy");
    m_latency_us_ = obs_reg.GetHistogram("frontend.request_latency_us");
  }

  ~FrontEnd() { Stop(); }

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// \brief Binds 127.0.0.1:port, spins up the IO and dispatcher threads.
  Status Start() {
    DHMM_RETURN_NOT_OK(options_.Validate());
    if (running_) return Status::FailedPrecondition("FrontEnd already started");
    // Make the resolved kernel ISA attributable in service logs and the
    // stats snapshot (the line prints once per process).
    obs::LogStartup();

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return CloseAnd(Errno("bind"));
    }
    if (::listen(listen_fd_, 128) != 0) return CloseAnd(Errno("listen"));
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      return CloseAnd(Errno("getsockname"));
    }
    port_ = ntohs(addr.sin_port);
    SetNonBlocking(listen_fd_);

    if (::pipe(wake_pipe_) != 0) return CloseAnd(Errno("pipe"));
    SetNonBlocking(wake_pipe_[0]);
    SetNonBlocking(wake_pipe_[1]);

    req_ring_ = std::make_unique<util::MpscRing<ReqSlot*>>(
        options_.queue_capacity);
    // Completed slots can exceed the request queue (synthesized deadline /
    // not-found responses join decode results), so give the return path
    // headroom; the dispatcher additionally spins on a full done ring
    // because responses must never be dropped.
    done_ring_ = std::make_unique<util::MpscRing<ReqSlot*>>(
        2 * options_.queue_capacity);

    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    io_thread_ = std::thread([this] { IoLoop(); });
    dispatcher_ = std::thread([this] { DispatchLoop(); });
    return Status::OK();
  }

  /// \brief Stops both threads and closes every socket. Idempotent.
  /// In-flight requests are abandoned (their connections are closing
  /// anyway); pooled memory is reclaimed by the destructor.
  void Stop() {
    if (!running_) return;
    stop_.store(true, std::memory_order_release);
    WakeIo();
    {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.notify_all();
    }
    dispatcher_.join();
    io_thread_.join();
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
      c.open = false;
    }
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
  }

  /// \brief Enables streaming sessions: kSessionPush frames addressed to
  /// `model` extend a resident fixed-lag session (one per connection) in
  /// `sessions` instead of running a stateless batch decode. The manager
  /// is borrowed and must outlive the front-end; call before Start().
  /// Pushes addressed to any other model id get NotFound, and a push on a
  /// front-end without sessions gets FailedPrecondition.
  void EnableSessions(SessionManager<Obs>* sessions, ModelId model) {
    DHMM_CHECK_MSG(sessions != nullptr, "EnableSessions requires a manager");
    DHMM_CHECK_MSG(!running_, "EnableSessions must be called before Start()");
    sessions_ = sessions;
    session_model_ = model;
  }

  /// The bound port (after Start()).
  uint16_t port() const { return port_; }

  /// \brief Test hook: holds the dispatcher so the request queue fills
  /// deterministically (shed-on-full, expired-deadline tests).
  void PauseDispatch() { paused_.store(true, std::memory_order_release); }
  void ResumeDispatch() {
    paused_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_cv_.notify_all();
  }

  /// \brief Rendered text snapshot of the front-end metric family
  /// (obs::RenderText over the "frontend." prefix) — the in-process
  /// counterpart of the kStats wire opcode. Allocates; not a hot path.
  std::string StatsString() const {
    return obs::RenderText(
        obs::Registry::Global().TakeSnapshot("frontend."));
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One pooled request in flight through the rings. The IO thread owns
  /// slot acquisition and release (single-threaded free list, no lock);
  /// the dispatcher only borrows slots while they sit between the rings.
  struct ReqSlot {
    uint64_t request_id = 0;
    ModelId model = 0;
    DecodeKind kind = DecodeKind::kViterbi;
    uint64_t deadline_micros = 0;
    Clock::time_point arrival{};
    std::vector<Obs> obs;  // grow-only decode target
    DecodeResponse resp;   // grow-only path
    size_t conn_index = 0;
    uint64_t conn_generation = 0;
  };

  /// One pooled connection. A closed connection's slot is not recycled
  /// until its in-flight requests drain; the generation counter makes any
  /// late response provably stale.
  struct Conn {
    int fd = -1;
    bool open = false;
    uint64_t generation = 0;
    uint32_t inflight = 0;
    std::vector<uint8_t> rbuf;
    size_t rlen = 0;  // valid bytes at the front of rbuf
    std::vector<uint8_t> wbuf;
    size_t woff = 0;  // first unsent byte in wbuf
  };

  static Status Errno(const char* what) {
    return Status::Internal(std::string(what) + ": " +
                            std::strerror(errno));
  }
  Status CloseAnd(Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  static void SetNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  void WakeIo() {
    const char b = 1;
    // A full pipe already guarantees a pending wake-up.
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  void WakeDispatcher() {
    if (dispatcher_sleeping_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.notify_one();
    }
  }

  // ---------------------------------------------------------------- IO --

  void IoLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      pollfds_.clear();
      pollfds_.push_back({listen_fd_, POLLIN, 0});
      pollfds_.push_back({wake_pipe_[0], POLLIN, 0});
      poll_conn_.clear();
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (c.fd < 0 || !c.open) continue;
        short events = POLLIN;
        if (c.woff < c.wbuf.size()) events |= POLLOUT;
        pollfds_.push_back({c.fd, events, 0});
        poll_conn_.push_back(i);
      }
      const int n =
          ::poll(pollfds_.data(), pollfds_.size(), options_.poll_timeout_ms);
      if (n < 0 && errno != EINTR) break;
      if (stop_.load(std::memory_order_acquire)) break;

      if (pollfds_[1].revents & POLLIN) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
      }
      DrainDoneRing();
      if (pollfds_[0].revents & POLLIN) AcceptAll();
      for (size_t p = 2; p < pollfds_.size(); ++p) {
        const size_t idx = poll_conn_[p - 2];
        Conn& c = conns_[idx];
        if (!c.open || c.fd != pollfds_[p].fd) continue;  // closed this tick
        if (pollfds_[p].revents & (POLLERR | POLLHUP)) {
          CloseConn(idx);
          continue;
        }
        if (pollfds_[p].revents & POLLOUT) FlushConn(idx);
        if (c.open && (pollfds_[p].revents & POLLIN)) ReadConn(idx);
      }
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: next poll retries
      int live = 0;
      for (const Conn& c : conns_) live += c.open;
      if (live >= options_.max_connections) {
        ::close(fd);
        m_conns_rejected_->Add();
        continue;
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      size_t idx;
      if (!free_conns_.empty()) {
        idx = free_conns_.back();
        free_conns_.pop_back();
      } else {
        idx = conns_.size();
        conns_.emplace_back();
      }
      Conn& c = conns_[idx];
      c.fd = fd;
      c.open = true;
      ++c.generation;
      c.rlen = 0;
      c.wbuf.clear();
      c.woff = 0;
      m_conns_accepted_->Add();
    }
  }

  void CloseConn(size_t idx) {
    Conn& c = conns_[idx];
    if (c.fd < 0) return;  // idempotent: flush errors may race a close
    ::close(c.fd);
    c.fd = -1;
    c.open = false;
    ++c.generation;  // any response still in flight is now stale
    if (c.inflight == 0) free_conns_.push_back(idx);
  }

  void ReadConn(size_t idx) {
    Conn& c = conns_[idx];
    for (;;) {
      if (c.rbuf.size() < c.rlen + kReadChunk) {
        c.rbuf.resize(c.rlen + kReadChunk);  // grow-only
      }
      const ssize_t n = ::read(c.fd, c.rbuf.data() + c.rlen, kReadChunk);
      if (n == 0) {
        CloseConn(idx);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(idx);
        return;
      }
      c.rlen += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < kReadChunk) break;
    }
    ParseFrames(idx);
  }

  void ParseFrames(size_t idx) {
    Conn& c = conns_[idx];
    size_t off = 0;
    while (c.open && c.rlen - off >= wire::kHeaderSize) {
      wire::FrameHeader h;
      const Status hs = wire::DecodeHeader(c.rbuf.data() + off,
                                           c.rlen - off, &h);
      if (!hs.ok()) {
        // Bad magic / version / absurd length: the stream has no
        // trustworthy framing left, so there is nothing to respond to.
        m_protocol_errors_->Add();
        CloseConn(idx);
        break;
      }
      if (h.payload_len > options_.max_payload_bytes) {
        m_protocol_errors_->Add();
        SynthesizeError(
            c, h,
            Status::OutOfRange("request payload exceeds the front-end "
                               "limit of " +
                               std::to_string(options_.max_payload_bytes) +
                               " bytes"));
        // The remaining payload bytes will never be read coherently;
        // flush the error and drop the connection.
        FlushConn(idx);
        CloseConn(idx);
        break;
      }
      if (c.rlen - off < wire::kHeaderSize + h.payload_len) break;
      HandleFrame(idx, h, c.rbuf.data() + off + wire::kHeaderSize);
      off += wire::kHeaderSize + h.payload_len;
    }
    if (!c.open) {
      c.rlen = 0;
      return;
    }
    if (off > 0) {
      std::memmove(c.rbuf.data(), c.rbuf.data() + off, c.rlen - off);
      c.rlen -= off;
    }
  }

  void HandleFrame(size_t idx, const wire::FrameHeader& h,
                   const uint8_t* payload) {
    Conn& c = conns_[idx];
    ReqSlot* slot = AcquireSlot();
    const Status ps =
        wire::DecodeRequestPayload<Obs>(h, payload, h.payload_len, &slot->obs);
    if (!ps.ok()) {
      // Framing is intact (the header parsed and the length matched), so
      // the connection survives a bad payload: respond and move on.
      m_protocol_errors_->Add();
      m_frames_malformed_->Add();
      SynthesizeError(c, h, ps);
      FlushConn(idx);
      ReleaseSlot(slot);
      return;
    }
    // Accepted = a well-formed frame entering the system (it may still be
    // shed, expire, or fail routing). The per-kind counters partition
    // exactly these frames; frames_accepted is their snapshot-time sum.
    m_by_kind_[static_cast<size_t>(h.decode_kind())]->Add();
    slot->request_id = h.request_id;
    slot->model = h.model;
    slot->kind = h.decode_kind();
    slot->deadline_micros = h.deadline_micros;
    slot->arrival = Clock::now();
    slot->conn_index = idx;
    slot->conn_generation = c.generation;
    if (!req_ring_->TryPush(slot)) {
      m_requests_shed_->Add();
      SynthesizeError(c, h,
                      Status::Unavailable("request queue full — shed"));
      FlushConn(idx);
      ReleaseSlot(slot);
      return;
    }
    ++c.inflight;
    WakeDispatcher();
  }

  /// Builds an error response straight on the IO thread (shed, malformed,
  /// oversized): no slot crosses the rings.
  void SynthesizeError(Conn& c, const wire::FrameHeader& h, Status st) {
    scratch_resp_.request_id = h.request_id;
    scratch_resp_.kind =
        h.kind <= static_cast<uint8_t>(DecodeKind::kStats)
            ? h.decode_kind()
            : DecodeKind::kViterbi;
    scratch_resp_.status = std::move(st);
    scratch_resp_.path.clear();
    scratch_resp_.value = 0.0;
    scratch_resp_.model_version = 0;
    scratch_resp_.text.clear();
    WriteResponse(c, scratch_resp_, h.model);
  }

  void WriteResponse(Conn& c, const DecodeResponse& resp, ModelId model) {
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
    const Status es = wire::EncodeResponse(resp, model, &c.wbuf);
    DHMM_CHECK_MSG(es.ok(), "response encoding must not fail");
  }

  void FlushConn(size_t idx) {
    Conn& c = conns_[idx];
    while (c.woff < c.wbuf.size()) {
      const ssize_t n =
          ::write(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT
        if (errno == EINTR) continue;
        CloseConn(idx);
        return;
      }
      c.woff += static_cast<size_t>(n);
    }
    c.wbuf.clear();
    c.woff = 0;
  }

  void DrainDoneRing() {
    ReqSlot* slot = nullptr;
    while (done_ring_->TryPop(&slot)) {
      // Per-request latency: frame fully parsed -> response ready to
      // write. One clock read + one relaxed striped increment per
      // response; no allocation.
      m_latency_us_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - slot->arrival)
              .count()));
      Conn& c = conns_[slot->conn_index];
      if (c.generation == slot->conn_generation && c.open) {
        WriteResponse(c, slot->resp, slot->model);
        FlushConn(slot->conn_index);
      }
      DHMM_DCHECK(c.inflight > 0);
      --c.inflight;
      if (!c.open && c.inflight == 0) free_conns_.push_back(slot->conn_index);
      ReleaseSlot(slot);
    }
  }

  ReqSlot* AcquireSlot() {
    if (free_slots_.empty()) {
      all_slots_.push_back(std::make_unique<ReqSlot>());
      free_slots_.push_back(all_slots_.back().get());
    }
    ReqSlot* s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  void ReleaseSlot(ReqSlot* s) { free_slots_.push_back(s); }

  // -------------------------------------------------------- dispatcher --

  void DispatchLoop() {
    // Reserved once: group staging must not allocate at steady state.
    group_.reserve(options_.max_inflight_batch);
    futures_.reserve(options_.max_inflight_batch);
    services_.reserve(options_.max_inflight_batch);
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (paused_.load(std::memory_order_acquire)) {
        std::unique_lock<std::mutex> lock(dispatch_mu_);
        dispatch_cv_.wait_for(lock, std::chrono::milliseconds(10));
        continue;
      }
      group_.clear();
      ReqSlot* slot = nullptr;
      while (group_.size() < options_.max_inflight_batch &&
             req_ring_->TryPop(&slot)) {
        group_.push_back(slot);
      }
      if (group_.empty()) {
        dispatcher_sleeping_.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(dispatch_mu_);
        if (req_ring_->size_approx() == 0 &&
            !stop_.load(std::memory_order_acquire)) {
          dispatch_cv_.wait_for(lock, std::chrono::milliseconds(50));
        }
        dispatcher_sleeping_.store(false, std::memory_order_release);
        continue;
      }
      // Ring depth after the group was cut: what is still waiting.
      m_ring_occupancy_->Set(
          static_cast<double>(req_ring_->size_approx()));
      DispatchGroup();
    }
  }

  void DispatchGroup() {
    // Submit everything first: requests for the same model coalesce into
    // one DecodeService batch while distinct models run independently.
    futures_.clear();
    services_.clear();
    const Clock::time_point now = Clock::now();
    for (ReqSlot* slot : group_) {
      DecodeResponse& r = slot->resp;
      r.request_id = slot->request_id;
      r.kind = slot->kind;
      r.path.clear();
      r.value = 0.0;
      r.model_version = 0;
      r.text.clear();
      if (slot->deadline_micros != 0 &&
          now - slot->arrival >=
              std::chrono::microseconds(slot->deadline_micros)) {
        m_deadline_expired_->Add();
        r.status = Status::DeadlineExceeded(
            "deadline expired before dispatch");
        futures_.emplace_back();  // invalid future = pre-resolved slot
        services_.emplace_back();
        continue;
      }
      if (slot->kind == DecodeKind::kStats) {
        // Stats queries are served inline by the front end itself: the
        // snapshot is process state, not a model decode. Allocates (the
        // rendered text) — an operator surface, not a steady-state path.
        r.text = obs::RenderText(obs::Registry::Global().TakeSnapshot());
        r.status = Status::OK();
        m_requests_served_->Add();
        futures_.emplace_back();
        services_.emplace_back();
        continue;
      }
      if (slot->kind == DecodeKind::kSessionPush) {
        // Session pushes run inline on the dispatcher (per-push work is
        // O(lag * k^2), far below a batch decode) instead of crossing a
        // DecodeService.
        HandleSessionPush(slot);
        futures_.emplace_back();
        services_.emplace_back();
        continue;
      }
      Result<std::shared_ptr<DecodeService<Obs>>> svc =
          registry_->Acquire(slot->model);
      if (!svc.ok()) {
        m_routing_errors_->Add();
        r.status = svc.status();
        futures_.emplace_back();
        services_.emplace_back();
        continue;
      }
      services_.push_back(std::move(svc).value());
      DecodeRequest<Obs> req;
      req.request_id = slot->request_id;
      req.model = slot->model;
      req.kind = slot->kind;
      req.deadline_micros = slot->deadline_micros;
      req.obs = &slot->obs;
      futures_.push_back(services_.back()->Submit(req));
    }
    for (size_t i = 0; i < group_.size(); ++i) {
      ReqSlot* slot = group_[i];
      if (futures_[i].valid()) {
        const DecodeResult& result = futures_[i].Wait();
        slot->resp.status = result.status;
        slot->resp.value = result.value;
        slot->resp.model_version = result.model_version;
        slot->resp.path.assign(result.path.begin(), result.path.end());
        futures_[i].Release();
        m_requests_served_->Add();
      }
      // Responses must never be dropped: spin until the return ring has
      // room (the IO thread is draining it). On shutdown the IO thread is
      // gone and the connection with it — abandon the response.
      while (!done_ring_->TryPush(slot)) {
        if (stop_.load(std::memory_order_acquire)) break;
        WakeIo();
        std::this_thread::yield();
      }
    }
    services_.clear();
    futures_.clear();
    WakeIo();
  }

  /// Runs one kSessionPush request against the connection's resident
  /// session, creating it on first use. The response carries every label
  /// that left the lag window (resp.path, in stream order) and the running
  /// stream log-likelihood (resp.value). A poisoned stream reports its
  /// error once and is torn down, so the connection's next push starts a
  /// fresh stream; a session reaped by an idle sweep between requests is
  /// recreated transparently.
  void HandleSessionPush(ReqSlot* slot) {
    DecodeResponse& r = slot->resp;
    if (sessions_ == nullptr) {
      m_routing_errors_->Add();
      r.status = Status::FailedPrecondition(
          "sessions are not enabled on this front-end");
      return;
    }
    if (slot->model != session_model_) {
      m_routing_errors_->Add();
      r.status = Status::NotFound("session pushes serve model id " +
                                  std::to_string(session_model_) + " only");
      return;
    }
    // One resident session per connection slot. Connection slots are
    // pooled by index, so a reused slot (fresh generation) lazily tears
    // down its predecessor's session here, and the map stays bounded by
    // max_connections.
    auto [it, inserted] = wire_sessions_.try_emplace(
        slot->conn_index,
        std::make_pair(slot->conn_generation, kInvalidSessionHandle));
    if (!inserted && it->second.first != slot->conn_generation) {
      (void)sessions_->DestroySession(it->second.second);
      it->second = {slot->conn_generation, kInvalidSessionHandle};
    }
    SessionHandle h = it->second.second;
    Status st = Status::OK();
    for (const Obs& y : slot->obs) {
      if (h == kInvalidSessionHandle) {
        Result<SessionHandle> created = sessions_->CreateSession();
        if (!created.ok()) {
          st = created.status();
          break;
        }
        h = created.value();
        it->second.second = h;
      }
      int label = -1;
      st = sessions_->Push(h, y, &label);
      if (st.code() == StatusCode::kNotFound) {
        // Evicted by an idle sweep between requests: the stream state is
        // gone, so restart once and retry this frame on the new session.
        h = kInvalidSessionHandle;
        Result<SessionHandle> created = sessions_->CreateSession();
        if (!created.ok()) {
          st = created.status();
          break;
        }
        h = created.value();
        it->second.second = h;
        st = sessions_->Push(h, y, &label);
      }
      if (!st.ok()) break;
      if (label >= 0) r.path.push_back(label);
    }
    if (!st.ok()) {
      if (h != kInvalidSessionHandle) (void)sessions_->DestroySession(h);
      wire_sessions_.erase(it);
      m_routing_errors_->Add();
      r.status = std::move(st);
      r.path.clear();
      return;
    }
    if (h != kInvalidSessionHandle) {
      const Result<double> ll = sessions_->LogLikelihood(h);
      if (ll.ok()) r.value = ll.value();
    }
    r.model_version = sessions_->model_version();
    r.status = Status::OK();
    m_requests_served_->Add();
  }

  const FrontEndOptions options_;
  ModelRegistry<Obs>* const registry_;

  static constexpr size_t kReadChunk = 64 * 1024;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  bool running_ = false;

  std::unique_ptr<util::MpscRing<ReqSlot*>> req_ring_;
  std::unique_ptr<util::MpscRing<ReqSlot*>> done_ring_;

  // IO-thread state (single-threaded: no locks).
  std::vector<Conn> conns_;
  std::vector<size_t> free_conns_;
  std::vector<std::unique_ptr<ReqSlot>> all_slots_;
  std::vector<ReqSlot*> free_slots_;
  std::vector<pollfd> pollfds_;
  std::vector<size_t> poll_conn_;  // conn index per pollfd entry past [1]
  DecodeResponse scratch_resp_;

  // Dispatcher state.
  std::vector<ReqSlot*> group_;
  std::vector<DecodeFuture<Obs>> futures_;
  std::vector<std::shared_ptr<DecodeService<Obs>>> services_;
  // Resident wire sessions, keyed by connection slot index; the stored
  // generation proves the entry belongs to the current tenant of the slot.
  // Dispatcher-only, like the rest of the session routing.
  std::map<size_t, std::pair<uint64_t, SessionHandle>> wire_sessions_;
  SessionManager<Obs>* sessions_ = nullptr;
  ModelId session_model_ = 0;
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::atomic<bool> dispatcher_sleeping_{false};
  std::atomic<bool> paused_{false};

  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::thread dispatcher_;

  // Obs metric pointers, resolved once at construction (see metrics.h).
  obs::Counter* m_frames_malformed_ = nullptr;
  obs::Counter* m_requests_shed_ = nullptr;
  obs::Counter* m_deadline_expired_ = nullptr;
  obs::Counter* m_requests_served_ = nullptr;
  obs::Counter* m_routing_errors_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  obs::Counter* m_conns_accepted_ = nullptr;
  obs::Counter* m_conns_rejected_ = nullptr;
  obs::Counter* m_by_kind_[5] = {};  // indexed by DecodeKind wire value
  obs::Gauge* m_ring_occupancy_ = nullptr;
  obs::Histogram* m_latency_us_ = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_FRONTEND_H_
