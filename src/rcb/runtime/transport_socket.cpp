#include "rcb/runtime/transport_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/runtime/shard.hpp"

namespace rcb {

using Clock = std::chrono::steady_clock;

std::string parse_host_port(const std::string& text, std::string& host,
                            std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return "expected host:port, got \"" + text + "\"";
  }
  const std::string h = text.substr(0, colon);
  in_addr addr{};
  if (inet_pton(AF_INET, h.c_str(), &addr) != 1) {
    return "host must be a numeric IPv4 address, got \"" + h + "\"";
  }
  char* end = nullptr;
  const unsigned long p = std::strtoul(text.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p > 65535) {
    return "port must be 0..65535, got \"" + text.substr(colon + 1) + "\"";
  }
  host = h;
  port = static_cast<std::uint16_t>(p);
  return "";
}

namespace {

/// Non-blocking and close-on-exec; TCP also without Nagle delay (the
/// option is refused, harmlessly, on a socketpair).
void set_nonblocking_nodelay(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  fcntl(fd, F_SETFD, FD_CLOEXEC);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Stable worker identity across reconnects, unique across restarts: a
/// restarted worker must *not* inherit its predecessor's claims.
std::uint64_t make_worker_uid() {
  char host[256] = {0};
  gethostname(host, sizeof host - 1);
  std::string seed = host;
  seed += '|';
  seed += std::to_string(static_cast<long>(getpid()));
  seed += '|';
  seed += std::to_string(monotonic_ns());
  return fnv1a64(seed);
}

/// Uid of the spawned worker `pid`.  Both ends derive it from the pid, so
/// the coordinator can queue a first assign before the worker speaks.
std::uint64_t spawned_worker_uid(pid_t pid) {
  return fnv1a64("spawned|" + std::to_string(static_cast<long>(pid)));
}

Clock::duration seconds(double sec) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(sec));
}

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator side.

SocketTransport::SocketTransport(const CoordinatorOptions& opt,
                                 double heartbeat_interval_sec)
    : opt_(opt),
      heartbeat_ms_(static_cast<std::uint64_t>(
          std::max(1.0, heartbeat_interval_sec * 1000.0))),
      plan_(opt.net_faults),
      spawned_(opt.workers) {}

SocketTransport::~SocketTransport() { shutdown(false); }

std::string SocketTransport::start() {
  if (opt_.listen.empty()) return "";
  std::string host;
  std::uint16_t port = 0;
  if (std::string err = parse_host_port(opt_.listen, host, port);
      !err.empty()) {
    return "listen address: " + err;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return std::string("socket failed: ") + std::strerror(errno);
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, host.c_str(), &addr.sin_addr);  // parsed above
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return "bind " + opt_.listen + " failed: " + std::strerror(errno);
  }
  if (listen(listen_fd_, 64) != 0) {
    return std::string("listen failed: ") + std::strerror(errno);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port = ntohs(bound.sin_port);
  }
  set_nonblocking_nodelay(listen_fd_);
  if (opt_.on_listen) opt_.on_listen(port);
  return "";
}

bool SocketTransport::can_assign() { return find_idle_conn() != nullptr; }

void SocketTransport::assign(std::size_t shard, std::uint32_t attempt) {
  Conn* c = find_idle_conn();
  if (c == nullptr) return;
  held_[shard] = Held{c->uid, attempt, Clock::now()};
  send_assign(c->uid, shard, attempt);
}

void SocketTransport::poll(std::vector<TransportEvent>& out) {
  accept_new();
  pump_reads();
  deliver_delayed();
  check_leases();
  maintain_spawned();
  for (TransportEvent& ev : events_) out.push_back(std::move(ev));
  events_.clear();
}

void SocketTransport::flush() {
  for (auto& c : conns_) {
    if (c->dead || c->outbuf.empty()) continue;
    const ssize_t k =
        retry_send_some(c->fd, c->outbuf.data(), c->outbuf.size());
    if (k > 0) {
      c->outbuf.erase(0, static_cast<std::size_t>(k));
    } else if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      close_conn(*c);
    }
  }
}

void SocketTransport::wait(std::chrono::milliseconds timeout) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& c : conns_) {
    if (c->dead) continue;
    const short events = c->outbuf.empty() ? POLLIN : (POLLIN | POLLOUT);
    fds.push_back({c->fd, events, 0});
  }
  ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
}

std::size_t SocketTransport::fleet_size() const {
  std::size_t n = 0;
  for (const auto& c : conns_) {
    if (c->uid != 0 && !c->dead) ++n;
  }
  return n;
}

void SocketTransport::shutdown(bool graceful) {
  if (listen_fd_ < 0 && conns_.empty() && spawned_.empty()) return;
  if (graceful) {
    CtrlMessage m;
    m.type = CtrlType::kShutdown;
    for (auto& c : conns_) {
      // Shutdown frames bypass the fault plan: the close that follows is
      // the real signal, the frame just lets the worker exit 0.
      if (!c->dead) c->outbuf += encode_ctrl_frame(m);
    }
    flush();
  } else {
    for (Spawned& s : spawned_) {
      if (s.pid > 0) kill(s.pid, SIGKILL);
    }
  }
  // The close is what ends a spawned worker: it drains and exits on EOF.
  for (auto& c : conns_) {
    if (!c->dead) close(c->fd);
  }
  conns_.clear();
  for (Spawned& s : spawned_) {
    if (s.pid > 0) {
      int status = 0;
      waitpid(s.pid, &status, 0);
    }
  }
  spawned_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

bool SocketTransport::uid_busy(std::uint64_t uid) const {
  for (const auto& [shard, h] : held_) {
    if (h.uid == uid) return true;
  }
  return false;
}

SocketTransport::Conn* SocketTransport::find_idle_conn() {
  for (auto& c : conns_) {
    if (c->uid != 0 && !c->dead && c->claim_shard == kNoShard &&
        !uid_busy(c->uid)) {
      return c.get();
    }
  }
  return nullptr;
}

SocketTransport::Conn* SocketTransport::find_conn(std::uint64_t uid) {
  for (auto& c : conns_) {
    if (c->uid == uid && !c->dead) return c.get();
  }
  return nullptr;
}

void SocketTransport::accept_new() {
  if (listen_fd_ < 0) return;
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient error; retry next poll
    }
    set_nonblocking_nodelay(fd);
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    conns_.push_back(std::move(c));
  }
}

int SocketTransport::copies_after_faults(Conn& c, const CtrlMessage& m,
                                         bool inbound) {
  if (!plan_.active()) return 1;
  const NetFaultAction action = plan_.next(m.type);
  switch (action) {
    case NetFaultAction::kDrop:
      return 0;
    case NetFaultAction::kDelay:
    case NetFaultAction::kReorder: {
      // A short hold *is* a reorder: frames after this one overtake it.
      const double ms =
          plan_.delay_ms() * (action == NetFaultAction::kDelay ? 1.0 : 0.5);
      delayed_.push_back({Clock::now() + seconds(ms / 1000.0),
                          inbound ? m.uid : c.uid, m, inbound});
      return 0;
    }
    case NetFaultAction::kDuplicate:
      return 2;
    case NetFaultAction::kClose:
      close_conn(c);
      return 0;
    case NetFaultAction::kDeliver:
      break;
  }
  return 1;
}

void SocketTransport::send_to_conn(Conn& c, const CtrlMessage& m) {
  for (int n = copies_after_faults(c, m, false); n > 0 && !c.dead; --n) {
    c.outbuf += encode_ctrl_frame(m);
  }
}

void SocketTransport::send_to_uid(std::uint64_t uid, const CtrlMessage& m) {
  if (Conn* c = find_conn(uid)) send_to_conn(*c, m);
}

void SocketTransport::send_assign(std::uint64_t uid, std::size_t shard,
                                  std::uint32_t attempt) {
  CtrlMessage m;
  m.type = CtrlType::kAssign;
  m.shard = shard;
  m.attempt = attempt;
  m.root = opt_.root;
  m.heartbeat_ms = heartbeat_ms_;
  send_to_uid(uid, m);
}

void SocketTransport::close_conn(Conn& c) {
  if (c.dead) return;
  close(c.fd);
  c.dead = true;
  // held_ survives on purpose: a TCP reset is not a partition, so for an
  // attached worker the lease clock decides when the holder is really
  // gone.  A spawned worker dies with its connection (maintain_spawned).
}

void SocketTransport::pump_reads() {
  for (auto& c : conns_) {
    if (c->dead) continue;
    char buf[4096];
    for (;;) {
      const ssize_t k = retry_read_some(c->fd, buf, sizeof buf);
      if (k > 0) {
        c->dec.feed(buf, static_cast<std::size_t>(k));
        if (k < static_cast<ssize_t>(sizeof buf)) break;
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(*c);  // EOF or a real error
      break;
    }
    if (c->dead) continue;
    CtrlMessage msg;
    std::string err;
    int rc = 0;
    while (!c->dead && (rc = c->dec.next(msg, err)) == 1) {
      for (int n = copies_after_faults(*c, msg, true); n > 0 && !c->dead;
           --n) {
        handle_msg(c.get(), msg);
      }
    }
    if (rc < 0) close_conn(*c);  // poisoned stream: drop it
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->dead;
                              }),
               conns_.end());
}

void SocketTransport::deliver_delayed() {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < delayed_.size();) {
    if (delayed_[i].due > now) {
      ++i;
      continue;
    }
    const Delayed d = std::move(delayed_[i]);
    delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
    // Delivered against the peer's *current* connection; a gone peer drops
    // the message, which the retransmit discipline absorbs.
    Conn* c = find_conn(d.uid);
    if (d.inbound) {
      handle_msg(c, d.msg);
    } else if (c != nullptr) {
      c->outbuf += encode_ctrl_frame(d.msg);
    }
  }
}

/// The heart of the control plane: every inbound message is a worker
/// status claim, reconciled against held_ — all branches idempotent.
void SocketTransport::handle_msg(Conn* conn, const CtrlMessage& msg) {
  if (msg.uid == 0) return;
  const Clock::time_point now = Clock::now();
  if (conn != nullptr) {
    // A reconnect supersedes any half-open previous connection.
    for (auto& other : conns_) {
      if (other.get() != conn && other->uid == msg.uid && !other->dead) {
        close_conn(*other);
      }
    }
    conn->uid = msg.uid;
    conn->claim_shard = msg.shard;
  }
  for (auto& [shard, h] : held_) {
    if (h.uid == msg.uid) h.last_seen = now;  // any frame proves liveness
  }

  switch (msg.type) {
    case CtrlType::kHello:
    case CtrlType::kHeartbeat:
      if (msg.shard == kNoShard) {
        // Idle claim.  If we believe this worker holds a shard, our
        // assign frame was lost: re-send it (at-least-once delivery).
        for (const auto& [shard, h] : held_) {
          if (h.uid != msg.uid) continue;
          send_assign(msg.uid, shard, h.attempt);
          break;
        }
        return;
      }
      [[fallthrough]];  // a hello carrying a claim is a progress report
    case CtrlType::kProgress: {
      if (msg.shard == kNoShard) return;
      const std::size_t shard = static_cast<std::size_t>(msg.shard);
      const auto it = held_.find(shard);
      CtrlMessage reply;
      reply.shard = msg.shard;
      reply.attempt = msg.attempt;
      // A claim we do not hold is stale: the shard was reassigned, revoked,
      // or belongs to a coordinator lifetime that crashed.  The worker must
      // stop; its attempt dir stays on disk for the scan to dedupe or
      // ignore.
      reply.type = it != held_.end() && it->second.uid == msg.uid &&
                           it->second.attempt == msg.attempt
                       ? CtrlType::kAck
                       : CtrlType::kAbandon;
      send_to_uid(msg.uid, reply);
      return;
    }
    case CtrlType::kComplete:
    case CtrlType::kFailed: {
      if (msg.shard == kNoShard) return;
      const std::size_t shard = static_cast<std::size_t>(msg.shard);
      const auto it = held_.find(shard);
      const bool ours = it != held_.end() && it->second.uid == msg.uid &&
                        it->second.attempt == msg.attempt;
      CtrlMessage reply;
      reply.shard = msg.shard;
      reply.attempt = msg.attempt;
      if (it != held_.end() && !ours) {
        // Reassigned while this worker was partitioned: its report is
        // stale even if its journal is fine — the scan will dedupe.
        reply.type = CtrlType::kAbandon;
        send_to_uid(msg.uid, reply);
        return;
      }
      if (ours) {
        held_.erase(it);
        if (msg.type == CtrlType::kComplete) {
          for (Spawned& s : spawned_) {
            if (s.uid == msg.uid) s.deaths = 0;  // healthy again
          }
        }
      }
      TransportEvent ev;
      ev.kind = msg.type == CtrlType::kComplete
                    ? TransportEvent::Kind::kShardComplete
                    : TransportEvent::Kind::kShardFailed;
      ev.shard = shard;
      ev.attempt = static_cast<std::uint32_t>(msg.attempt);
      ev.digest = msg.digest;
      ev.detail = msg.error;
      events_.push_back(std::move(ev));
      // Ack (retransmitted on every repeat report — even an unheld one,
      // e.g. after a coordinator resume — so the worker can go idle; the
      // duplicate event is idempotent, the journal scan decides).  The ack
      // makes the worker idle, so its next assign can ride in the same
      // flush.
      reply.type = CtrlType::kAck;
      send_to_uid(msg.uid, reply);
      if (conn != nullptr) conn->claim_shard = kNoShard;
      return;
    }
    case CtrlType::kAssign:
    case CtrlType::kAck:
    case CtrlType::kAbandon:
    case CtrlType::kShutdown:
      return;  // coordinator-bound types never arrive here
  }
}

void SocketTransport::check_leases() {
  if (opt_.lease_timeout_sec <= 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<std::size_t> expired;
  for (const auto& [shard, h] : held_) {
    const double age =
        std::chrono::duration<double>(now - h.last_seen).count();
    if (age > opt_.lease_timeout_sec) expired.push_back(shard);
  }
  for (const std::size_t shard : expired) revoke(shard, "lease expired", -1);
}

void SocketTransport::revoke(std::size_t shard, const std::string& reason,
                             int exit_code) {
  const auto it = held_.find(shard);
  if (it == held_.end()) return;
  const Held h = it->second;
  held_.erase(it);
  // SIGKILL-equivalent: sever the connection, and SIGKILL a spawned holder
  // (maintain_spawned reaps and replaces it).  A merely-partitioned
  // attached worker survives — and is told to abandon when it returns.
  if (Conn* c = find_conn(h.uid)) close_conn(*c);
  for (Spawned& s : spawned_) {
    if (s.pid > 0 && s.uid == h.uid) kill(s.pid, SIGKILL);
  }
  TransportEvent ev;
  ev.kind = TransportEvent::Kind::kShardExited;
  ev.shard = shard;
  ev.attempt = h.attempt;
  ev.exit_code = exit_code;
  ev.detail = reason;
  events_.push_back(std::move(ev));
}

void SocketTransport::maintain_spawned() {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < spawned_.size(); ++i) {
    Spawned& s = spawned_[i];
    if (s.pid > 0) {
      if (find_conn(s.uid) != nullptr) continue;  // connection up: alive
      // The connection is gone — EOF, a poisoned stream, a fault's close or
      // a revocation — and a spawned worker never outlives it: reap the
      // worker and revoke its shard at once.
      kill(s.pid, SIGKILL);
      int status = 0;
      waitpid(s.pid, &status, 0);
      s.pid = -1;
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      std::vector<std::size_t> holds;
      for (const auto& [shard, h] : held_) {
        if (h.uid == s.uid) holds.push_back(shard);
      }
      for (const std::size_t shard : holds) {
        revoke(shard,
               code >= 0 ? "worker exited with code " + std::to_string(code)
                         : "worker killed by a signal",
               code);
      }
      ++s.deaths;
      s.next_spawn =
          now + seconds(opt_.backoff_base_sec *
                        static_cast<double>(1u << std::min(s.deaths - 1, 10u)));
      continue;
    }
    if (s.next_spawn > now) continue;
    const std::vector<std::string> argv =
        opt_.worker_argv ? opt_.worker_argv(i)
                         : std::vector<std::string>{
                               "/proc/self/exe", "--shard_worker=" + opt_.root,
                               "--shard_id=" + std::to_string(i)};
    int fd = -1;
    if (!spawn_worker_process(argv, s.pid, fd).empty()) {
      s.pid = -1;
      s.next_spawn = now + std::chrono::seconds(1);
      continue;
    }
    s.uid = spawned_worker_uid(s.pid);
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->uid = s.uid;
    conns_.push_back(std::move(c));
    if (opt_.on_worker_spawn) opt_.on_worker_spawn(i, s.pid);
  }
}

// ---------------------------------------------------------------------------
// Worker side.

namespace {

enum class WState { kIdle, kAssigned, kRunning, kDone, kFailed };

/// State shared by a worker's trial side (its main thread) and its comms
/// thread.
struct WorkerShared {
  WorkerShared() {
    if (pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) wake[0] = wake[1] = -1;
  }
  ~WorkerShared() {
    for (const int fd : wake) {
      if (fd >= 0) close(fd);
    }
  }
  WorkerShared(const WorkerShared&) = delete;
  WorkerShared& operator=(const WorkerShared&) = delete;

  std::mutex mutex;
  std::condition_variable cv;
  WState state = WState::kIdle;
  // Current assignment (valid outside kIdle).
  std::string root;
  std::size_t shard = 0;
  std::uint32_t attempt = 0;
  std::uint64_t heartbeat_ms = 100;
  // Terminal report payloads.
  std::uint64_t digest = 0;
  std::string error;
  bool abandon = false;  ///< coordinator revoked the current assignment
  /// >= 0 once the worker must exit, with its exit code: 0 on a shutdown
  /// directive, 1 when a spawned worker's connection closed, 3 when an
  /// attached one gave up reconnecting, 130 on SIGINT/SIGTERM.
  int exit_code = -1;
  /// Self-pipe that wakes the comms thread out of poll(): the trial side
  /// writes a byte when an attempt ends and when the worker exits.
  int wake[2] = {-1, -1};
};

void wake_comms(WorkerShared& sh) {
  const char byte = 1;
  if (write(sh.wake[1], &byte, 1) < 0) {
    // Pipe full: a wake-up is already pending.
  }
}

/// True when the comms thread must stop serving (caller holds sh.mutex).
/// A real SIGINT/SIGTERM — not an abandon we injected — ends a worker that
/// is not mid-attempt; a running one drains first and exits 130.
bool exit_due(WorkerShared& sh) {
  if (sh.exit_code < 0 && sweep_shutdown_requested() &&
      sh.state != WState::kRunning && !sh.abandon) {
    sh.exit_code = 130;
    sh.cv.notify_all();
  }
  return sh.exit_code >= 0;
}

int connect_once(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    return -1;
  }
  set_nonblocking_nodelay(fd);
  return fd;
}

/// Builds the status frame for the worker's current state.
CtrlMessage status_frame(const WorkerShared& sh, std::uint64_t uid,
                         CtrlType type_hint) {
  CtrlMessage m;
  m.uid = uid;
  m.pid = static_cast<std::uint64_t>(getpid());
  switch (sh.state) {
    case WState::kIdle:
      m.type = type_hint;  // kHello on (re)connect, kHeartbeat after
      break;
    case WState::kAssigned:
    case WState::kRunning: {
      m.type = type_hint == CtrlType::kHello ? CtrlType::kHello
                                             : CtrlType::kProgress;
      m.shard = sh.shard;
      m.attempt = sh.attempt;
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(
          shard_attempt_dir(sh.root, sh.shard, sh.attempt) + "/" +
              kCheckpointJournalFile,
          ec);
      m.value = ec ? 0 : static_cast<std::uint64_t>(bytes);
      break;
    }
    case WState::kDone:
      m.type = CtrlType::kComplete;
      m.shard = sh.shard;
      m.attempt = sh.attempt;
      m.digest = sh.digest;
      break;
    case WState::kFailed:
      m.type = CtrlType::kFailed;
      m.shard = sh.shard;
      m.attempt = sh.attempt;
      m.error = sh.error;
      break;
  }
  return m;
}

/// Applies one coordinator directive.
void worker_handle(WorkerShared& sh, const CtrlMessage& msg) {
  std::lock_guard<std::mutex> lock(sh.mutex);
  switch (msg.type) {
    case CtrlType::kAssign:
      if (sh.state == WState::kIdle && msg.shard != kNoShard &&
          !msg.root.empty()) {
        sh.state = WState::kAssigned;
        sh.root = msg.root;
        sh.shard = static_cast<std::size_t>(msg.shard);
        sh.attempt = static_cast<std::uint32_t>(msg.attempt);
        sh.heartbeat_ms = msg.heartbeat_ms > 0 ? msg.heartbeat_ms : 100;
        sh.abandon = false;
        sh.cv.notify_all();
      }
      // Duplicate assigns while busy are stale retransmits: ignored.
      return;
    case CtrlType::kAck:
      // Terminal report acknowledged: the coordinator took custody.
      if ((sh.state == WState::kDone || sh.state == WState::kFailed) &&
          msg.shard == sh.shard && msg.attempt == sh.attempt) {
        sh.state = WState::kIdle;
        sh.cv.notify_all();
      }
      return;
    case CtrlType::kAbandon:
      if (msg.shard != sh.shard || msg.attempt != sh.attempt) return;
      switch (sh.state) {
        case WState::kRunning:
          // Interrupt the in-flight sweep; the main loop observes
          // sh.abandon when it returns and discards instead of reporting.
          sh.abandon = true;
          request_sweep_shutdown();
          break;
        case WState::kAssigned:
        case WState::kDone:
        case WState::kFailed:
          sh.state = WState::kIdle;
          sh.cv.notify_all();
          break;
        case WState::kIdle:
          break;
      }
      return;
    case CtrlType::kShutdown:
      if (sh.exit_code < 0) sh.exit_code = 0;
      request_sweep_shutdown();  // a running attempt drains and stops
      sh.cv.notify_all();
      return;
    default:
      return;  // worker-bound streams never carry worker->coordinator types
  }
}

/// Serves one connection until it breaks (false) or the worker exits
/// (true).  Blocks in poll() on the socket and the wake pipe: directives
/// are applied as they arrive, and a status frame goes out on connect,
/// every heartbeat, and the moment the trial side signals.
bool serve_connection(int fd, WorkerShared& sh, std::uint64_t uid) {
  CtrlFrameDecoder dec;
  std::string outbuf;
  CtrlType type = CtrlType::kHello;
  Clock::time_point next_beat = Clock::now();
  bool woken = false;
  for (;;) {
    // Read before the first status frame, so a spawned worker's hello
    // already claims the assign queued at its spawn.
    char buf[4096];
    bool broken = false;
    for (;;) {
      const ssize_t k = retry_read_some(fd, buf, sizeof buf);
      if (k > 0) {
        dec.feed(buf, static_cast<std::size_t>(k));
        continue;
      }
      // EOF or an error; the frames before it (a shutdown directive
      // followed by the close, say) still count.
      broken = !(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    CtrlMessage msg;
    std::string err;
    int rc = 0;
    while ((rc = dec.next(msg, err)) == 1) worker_handle(sh, msg);
    if (rc < 0) broken = true;  // poisoned stream

    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      if (exit_due(sh)) return true;
      if (broken) return false;
      if (woken || Clock::now() >= next_beat) {
        outbuf += encode_ctrl_frame(status_frame(sh, uid, type));
        type = CtrlType::kHeartbeat;
        next_beat = Clock::now() + std::chrono::milliseconds(
                                       std::max<std::uint64_t>(
                                           1, sh.heartbeat_ms));
      }
    }
    while (!outbuf.empty()) {
      const ssize_t k = retry_send_some(fd, outbuf.data(), outbuf.size());
      if (k > 0) {
        outbuf.erase(0, static_cast<std::size_t>(k));
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;  // kernel buffer full; finish when writable
      } else {
        return false;
      }
    }

    pollfd fds[2] = {
        {fd, static_cast<short>(outbuf.empty() ? POLLIN : (POLLIN | POLLOUT)),
         0},
        {sh.wake[0], POLLIN, 0}};
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        next_beat - Clock::now());
    ::poll(fds, 2, static_cast<int>(std::max<std::int64_t>(0, left.count())));
    woken = (fds[1].revents & POLLIN) != 0;
    while (woken && read(sh.wake[0], buf, sizeof buf) > 0) {
    }
  }
}

/// Comms thread of an attached worker: (re)connects with exponential
/// backoff and serves each connection until the worker exits.
void attach_comms(const AttachWorkerOptions& opt, WorkerShared& sh,
                  std::uint64_t uid) {
  double backoff = opt.reconnect_base_sec;
  Clock::time_point detached_since = Clock::now();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      if (exit_due(sh)) return;
    }
    const int fd = connect_once(opt.host, opt.port);
    if (fd >= 0) {
      backoff = opt.reconnect_base_sec;
      const bool exiting = serve_connection(fd, sh, uid);
      close(fd);
      if (exiting) return;
      detached_since = Clock::now();
      continue;
    }
    if (opt.give_up_sec > 0 &&
        std::chrono::duration<double>(Clock::now() - detached_since)
                .count() > opt.give_up_sec) {
      std::lock_guard<std::mutex> lock(sh.mutex);
      if (sh.exit_code < 0) sh.exit_code = 3;
      sh.cv.notify_all();
      return;
    }
    pollfd wake{sh.wake[0], POLLIN, 0};
    ::poll(&wake, 1,
           static_cast<int>(std::min(backoff, opt.reconnect_max_sec) * 1000));
    backoff = std::min(backoff * 2.0, opt.reconnect_max_sec);
  }
}

/// Comms thread of a spawned worker: serves the inherited connection, and
/// ends the worker when it closes — the coordinator closed it or died.
void spawned_comms(WorkerShared& sh) {
  if (serve_connection(kWorkerControlFd, sh, spawned_worker_uid(getpid()))) {
    return;
  }
  std::lock_guard<std::mutex> lock(sh.mutex);
  if (sh.exit_code < 0) sh.exit_code = 1;
  request_sweep_shutdown();  // a running attempt drains and stops
  sh.cv.notify_all();
}

/// The trial side of either worker kind: runs each assigned attempt into
/// its try_<k> dir and hands the result to the comms thread, which
/// retransmits it until the coordinator acks (-> idle) or abandons.
/// Returns the exit code.
int serve_assignments(WorkerShared& sh, const TrialRunner& runner) {
  std::optional<ThreadPool> pool;
  for (;;) {
    std::unique_lock<std::mutex> lock(sh.mutex);
    sh.cv.wait(lock, [&] {
      return sh.exit_code >= 0 || sh.state == WState::kAssigned;
    });
    if (sh.exit_code >= 0) return sh.exit_code;
    sh.state = WState::kRunning;
    const std::string root = sh.root;
    const std::size_t shard = sh.shard;
    const std::uint32_t attempt = sh.attempt;
    lock.unlock();

    const ShardSpecLoadResult loaded = load_shard_spec(root);
    SweepResult res;
    if (!loaded.ok) {
      res.error = loaded.error;
    } else if (shard >= loaded.spec.shards.size()) {
      res.error = "shard " + std::to_string(shard) + " out of range";
    } else {
      // The spec's worker_threads, or every CPU when that is <= 0.
      const std::size_t threads =
          loaded.spec.worker_threads > 0
              ? static_cast<std::size_t>(loaded.spec.worker_threads)
              : ThreadPool::default_concurrency();
      if (!pool || pool->num_threads() != threads) pool.emplace(threads);
      res = run_shard_attempt(loaded.spec, shard,
                              shard_attempt_dir(root, shard, attempt),
                              runner, *pool);
    }

    lock.lock();
    if (sh.abandon) {
      // Revoked mid-run: discard the report (the try dir stays on disk for
      // the scan to ignore or dedupe) and clear the interrupt we injected.
      sh.abandon = false;
      sh.state = WState::kIdle;
      reset_sweep_shutdown();
      continue;
    }
    if (sh.exit_code >= 0) return sh.exit_code;
    if (res.interrupted && sweep_shutdown_requested()) return 130;
    if (res.ok) {
      sh.state = WState::kDone;
      sh.digest = res.aggregate_digest;
    } else {
      sh.state = WState::kFailed;
      sh.error = res.error.empty() ? "shard attempt failed" : res.error;
    }
    lock.unlock();
    wake_comms(sh);  // report now, not on the next beat
  }
}

/// Runs the trial side until exit, then stops the comms thread.
int run_worker(WorkerShared& sh, const TrialRunner& runner,
               std::thread& comms) {
#ifdef __GLIBC__
  // A worker runs attempt after attempt in one process.  glibc raises its
  // mmap threshold to the size of every large block freed, which moves the
  // next attempt's record buffers onto the heap, where fragmentation keeps
  // them resident: RSS would grow with each shard served.  Pinning the
  // threshold at its default keeps them mapped, and returned when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const int code = serve_assignments(sh, runner);
  {
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (sh.exit_code < 0) sh.exit_code = code;
  }
  wake_comms(sh);
  comms.join();
  return code;
}

}  // namespace

int run_attached_worker(const AttachWorkerOptions& opt) {
  install_sweep_signal_handlers();
  const std::uint64_t uid = make_worker_uid();
  WorkerShared sh;
  std::thread comms([&] { attach_comms(opt, sh, uid); });
  return run_worker(sh, opt.runner, comms);
}

int run_shard_worker(const std::string& root, std::size_t worker_index,
                     const TrialRunner& runner) {
  struct stat st;
  if (fstat(kWorkerControlFd, &st) != 0 || !S_ISSOCK(st.st_mode)) {
    std::fprintf(stderr,
                 "shard worker %zu (%s): fd %d is not a control socket; "
                 "shard workers are spawned by a --workers coordinator\n",
                 worker_index, root.c_str(), kWorkerControlFd);
    return 2;
  }
  set_nonblocking_nodelay(kWorkerControlFd);
  install_sweep_signal_handlers();
  WorkerShared sh;
  std::thread comms([&] { spawned_comms(sh); });
  return run_worker(sh, runner, comms);
}

int run_shard_worker(const std::string& root, std::size_t worker_index) {
  return run_shard_worker(root, worker_index, TrialRunner());
}

}  // namespace rcb
