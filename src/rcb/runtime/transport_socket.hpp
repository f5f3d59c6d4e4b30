// The worker transport: the coordinator side of the framed control protocol
// of runtime/transport.hpp, and the worker loop that answers it.
//
// One protocol, two connection origins:
//
//   spawned   the coordinator keeps `workers` processes of its own binary
//             alive ({/proc/self/exe, --shard_worker=<root>,
//             --shard_id=<worker index>}, re-entering run_shard_worker),
//             each inheriting one end of a socketpair as fd
//             kWorkerControlFd.  Its first assign is queued at spawn, so a
//             new worker starts on a shard without a hello round trip.  EOF
//             on the coordinator's end means the worker died: it is reaped,
//             its shard revoked at once, and a replacement spawned with
//             backoff.  A spawned worker exits when its connection closes,
//             and PR_SET_PDEATHSIG takes it down with the coordinator.
//   attached  with CoordinatorOptions::listen set, workers on any host —
//             the same binary, re-entered via --attach=host:port — dial a
//             TCP listener.  They reconnect with exponential backoff and
//             keep their uid, so a TCP reset costs nothing: shard
//             bookkeeping is keyed on uid, not connection, and state
//             reconciles on the next beat.
//
// The socket carries *control only* (assignment, status, acks); the data
// plane stays the shared-filesystem journals of runtime/shard.hpp, one
// fresh try_<attempt> checkpoint dir per assignment.
//
// Liveness and partitions.  Every worker beat (heartbeat_interval from the
// shard spec) retransmits the worker's full state, and a finished attempt
// is reported the moment it ends.  Both sides block in poll() on their
// sockets, so a frame is acted on when it arrives, not on the next tick.
// The coordinator treats silence from a shard's holder past the lease
// timeout as a wedge or a partition and revokes: the connection is
// dropped, a spawned holder is SIGKILLed, and the shard is reassigned under
// a fresh attempt dir seeded with the best partial journal.  A revoked
// attached worker that was merely partitioned keeps appending to its *own*
// attempt dir — harmless — and is told to abandon the moment it reconnects
// and reports the stale claim.  Duplicate completions (both the revoked and
// the replacement worker finished) are resolved at scan time by digest
// equality, adopted once, never merged twice; divergent digests refuse the
// sweep loudly.  After a coordinator crash + resume, reconnecting workers
// with in-flight claims are told to abandon — the resumed coordinator
// re-adopts journals from disk, the only source of truth it trusts.
//
// Fleet.  With workers == 0 and a listener the coordinator owns no
// processes and parks — warns and idles rather than failing — whenever no
// worker is attached.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/transport.hpp"

namespace rcb {

/// Parses "host:port" (numeric IPv4 host).  Returns "" or a one-line
/// error.  Port 0 is accepted (ephemeral; coordinator listeners only).
std::string parse_host_port(const std::string& text, std::string& host,
                            std::uint16_t& port);

/// Coordinator side of the control plane.  Not thread-safe; the
/// coordinator drives it from one thread, which must outlive the spawned
/// workers (PR_SET_PDEATHSIG follows the spawning thread).
class SocketTransport {
 public:
  /// Uses opt's root, workers, listen, on_listen, lease_timeout_sec,
  /// backoff_base_sec (respawn backoff), net_faults, worker_argv and
  /// on_worker_spawn.  `heartbeat_interval_sec` is the spec's worker beat,
  /// forwarded in assign frames.
  SocketTransport(const CoordinatorOptions& opt,
                  double heartbeat_interval_sec);
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Opens the TCP listener when opt.listen is set.  "" or an error.
  std::string start();

  /// True when an idle worker can take an assign() right now.
  bool can_assign();

  /// Queues an assign frame for (shard, attempt) to an idle worker (call
  /// only after can_assign()).
  void assign(std::size_t shard, std::uint32_t attempt);

  /// Accepts connections, reads and reconciles frames, revokes expired
  /// leases, reaps and respawns spawned workers, and appends what changed
  /// for the coordinator.
  void poll(std::vector<TransportEvent>& out);

  /// Sends every queued frame that the kernel takes without blocking.
  void flush();

  /// Blocks until a connection or the listener has work, or `timeout`.
  void wait(std::chrono::milliseconds timeout);

  /// Live workers right now (running + idle); 0 means the fleet is empty
  /// and the coordinator parks until someone (re-)attaches.
  std::size_t fleet_size() const;

  /// Stops every worker: graceful sends shutdown frames and lets spawned
  /// workers drain and exit, otherwise spawned workers are SIGKILLed.
  /// Idempotent.
  void shutdown(bool graceful);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    std::uint64_t uid = 0;  ///< 0 until the first frame identifies the peer
    std::uint64_t claim_shard = kNoShard;  ///< worker's last reported shard
    CtrlFrameDecoder dec;
    std::string outbuf;
    bool dead = false;
  };

  struct Held {
    std::uint64_t uid = 0;
    std::uint32_t attempt = 0;
    Clock::time_point last_seen;  ///< any frame from uid refreshes this
  };

  /// One slot of the spawned fleet; pid <= 0 while awaiting a respawn.
  struct Spawned {
    pid_t pid = -1;
    std::uint64_t uid = 0;
    std::uint32_t deaths = 0;  ///< since the slot last completed a shard
    Clock::time_point next_spawn{};  ///< default: spawn immediately
  };

  struct Delayed {
    Clock::time_point due;
    std::uint64_t uid;
    CtrlMessage msg;
    bool inbound;
  };

  bool uid_busy(std::uint64_t uid) const;
  Conn* find_idle_conn();
  Conn* find_conn(std::uint64_t uid);
  void accept_new();
  void send_to_conn(Conn& c, const CtrlMessage& m);
  void send_to_uid(std::uint64_t uid, const CtrlMessage& m);
  void send_assign(std::uint64_t uid, std::size_t shard,
                   std::uint32_t attempt);
  /// Draws the fault for frame `m` on `c` (either direction) and applies
  /// what does not deliver now — drop, hold, close.  Returns how many
  /// copies to deliver now: 0, 1, or 2 for a duplicate.
  int copies_after_faults(Conn& c, const CtrlMessage& m, bool inbound);
  void close_conn(Conn& c);
  void pump_reads();
  void deliver_delayed();
  void handle_msg(Conn* conn, const CtrlMessage& msg);
  void check_leases();
  void revoke(std::size_t shard, const std::string& reason, int exit_code);
  void maintain_spawned();

  const CoordinatorOptions opt_;
  const std::uint64_t heartbeat_ms_;
  NetFaultPlan plan_;
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<std::size_t, Held> held_;
  std::vector<Spawned> spawned_;
  std::vector<Delayed> delayed_;
  std::vector<TransportEvent> events_;
};

struct AttachWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Test-only trial runner override (empty: the real protocol runner).
  TrialRunner runner;
  /// Reconnect backoff: first retry after base, doubling to at most max.
  double reconnect_base_sec = 0.05;
  double reconnect_max_sec = 2.0;
  /// Give up (exit 3) after this long without a coordinator (0: park and
  /// retry forever — a worker outliving a crashed coordinator re-attaches
  /// to the resumed one).
  double give_up_sec = 0.0;
};

/// Worker-mode entry point (the target of --attach): connects to the
/// coordinator with reconnect backoff, runs assigned shard attempts into
/// their try_<k> dirs, retransmits completions until acknowledged, and
/// abandons work when directed.  Blocks until a shutdown directive (exit
/// 0), SIGINT/SIGTERM (130), or the give-up deadline (3).
int run_attached_worker(const AttachWorkerOptions& opt);

}  // namespace rcb
