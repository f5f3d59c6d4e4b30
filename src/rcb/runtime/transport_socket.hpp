// The worker transport: the coordinator side of the framed control protocol
// of runtime/transport.hpp, and the worker loop that answers it.
//
// The coordinator keeps `workers` processes of its own binary alive
// ({/proc/self/exe, --shard_worker=<root>, --shard_id=<worker index>},
// re-entering run_shard_worker), each inheriting one end of a socketpair as
// fd kWorkerControlFd.  Its first assign is queued at spawn, so a new
// worker starts on a shard without a hello round trip.  EOF on the
// coordinator's end means the worker died: it is reaped, its shard revoked
// at once, and a replacement spawned with backoff.  A worker exits when its
// connection closes, and PR_SET_PDEATHSIG takes it down with the
// coordinator.
//
// The socket carries *control only* (assignment, status, acks); the data
// plane stays the shared-filesystem journals of runtime/shard.hpp, one
// fresh try_<attempt> checkpoint dir per assignment.
//
// Liveness.  Every worker beat (heartbeat_interval from the shard spec)
// retransmits the worker's full state, and a finished attempt is reported
// the moment it ends.  Both sides block in poll() on their sockets, so a
// frame is acted on when it arrives, not on the next tick.  The
// coordinator treats silence from a shard's holder past the lease timeout
// as a wedge (a SIGSTOPped worker, say) and revokes: the connection is
// closed, the holder SIGKILLed, and the shard reassigned under a fresh
// attempt dir seeded with the best partial journal.  Duplicate completions
// (a revoked worker's attempt that finished anyway, and its replacement's)
// are resolved at scan time by digest equality, adopted once, never merged
// twice; divergent digests refuse the sweep loudly.  After a coordinator
// crash + resume the resumed coordinator re-adopts journals from disk, the
// only source of truth it trusts.
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

/// Coordinator side of the control plane.  Not thread-safe; the
/// coordinator drives it from one thread, which must outlive the spawned
/// workers (PR_SET_PDEATHSIG follows the spawning thread).
class SocketTransport {
 public:
  /// Uses opt's root, workers, lease_timeout_sec, backoff_base_sec
  /// (respawn backoff), net_faults, worker_argv and on_worker_spawn.
  /// `heartbeat_interval_sec` is the spec's worker beat, forwarded in
  /// assign frames.
  SocketTransport(const CoordinatorOptions& opt,
                  double heartbeat_interval_sec);
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// True when an idle worker can take an assign() right now.
  bool can_assign();

  /// Queues an assign frame for (shard, attempt) to an idle worker (call
  /// only after can_assign()).
  void assign(std::size_t shard, std::uint32_t attempt);

  /// Reads and reconciles frames, revokes expired leases, reaps and
  /// respawns workers, and appends what changed for the coordinator.
  void poll(std::vector<TransportEvent>& out);

  /// Sends every queued frame that the kernel takes without blocking.
  void flush();

  /// Blocks until a connection has work, or `timeout`.
  void wait(std::chrono::milliseconds timeout);

  /// Stops every worker: graceful sends shutdown frames and lets workers
  /// drain and exit, otherwise they are SIGKILLed.  Idempotent.
  void shutdown(bool graceful);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    std::uint64_t uid = 0;  ///< the spawned worker's uid
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

  /// One worker slot; pid <= 0 while awaiting a respawn.
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
  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<std::size_t, Held> held_;
  std::vector<Spawned> spawned_;
  std::vector<Delayed> delayed_;
  std::vector<TransportEvent> events_;
};

}  // namespace rcb
