// The worker control protocol of the sharded sweep coordinator
// (runtime/coordinator.hpp): its frames, its codec, the seeded fault plan
// that chaos runs inject into it, and the process spawner whose children
// speak it.
//
// The coordinator owns the *shard* state machine — pending/running/done,
// bounded retries, backoff, merge — and delegates the *worker* lifecycle to
// one transport (runtime/transport_socket.hpp).  Every worker speaks the
// same frames, whatever the origin of its connection:
//
//   spawned   the coordinator fork/execs its own workers, each inheriting
//             one end of a socketpair as fd kWorkerControlFd;
//   attached  workers on any host (the same binary, --attach=host:port)
//             dial the coordinator's TCP listener.
//
// Control protocol
//
// Every message is one frame of runtime/frame.hpp, with the journal's
// limits (length at most kMaxFramePayload = 64 KiB) under its own magic:
//
//   RCBC <payload-bytes> <fnv1a-hex16> <payload-json>\n
//
// A frame that fails its checksum or deviates from the grammar poisons the
// connection (an attached peer reconnects and state reconciles, a spawned
// one is replaced); a frame cut short by a partition reads as need-more
// and waits for more bytes.  Messages are *idempotent
// status reconciliation*, not RPCs: workers retransmit their state with
// every heartbeat tick, and the coordinator re-issues directives whenever
// a worker's claimed state disagrees with its own — so any individual
// message may be dropped, duplicated, delayed, or reordered without
// violating safety, which is exactly what the fault plan below does on
// purpose.
//
//   worker -> coordinator           coordinator -> worker
//   ---------------------           ---------------------
//   hello      (re)attach           assign    run (shard, attempt) at root
//   heartbeat  idle liveness        ack       progress noted
//   progress   running (shard,      abandon   your lease was revoked; stop
//              attempt, bytes)                work on this shard, discard
//   complete   (shard, attempt,     shutdown  sweep over; detach
//              digest) — resent
//              until acknowledged
//   failed     (shard, attempt,
//              error) — resent
//
// Deterministic control-plane fault hook
//
// NetFaultPlan draws a seeded, reproducible action per control message —
// deliver, drop, delay, duplicate, reorder, or close — in the spirit of
// the sim/faults device-fault layer.  The coordinator applies it to every
// frame in both directions, on spawned and attached connections alike.
// The chaos tests prove the merged sweep digest is bit-identical under any
// schedule of these faults.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rcb {

// ---------------------------------------------------------------------------
// Control messages.

/// Sentinel for "no shard" in CtrlMessage::shard (idle heartbeats).
inline constexpr std::uint64_t kNoShard = ~0ull;

enum class CtrlType : std::uint8_t {
  // worker -> coordinator
  kHello,
  kHeartbeat,
  kProgress,
  kComplete,
  kFailed,
  // coordinator -> worker
  kAssign,
  kAck,
  kAbandon,
  kShutdown,
};

const char* ctrl_type_name(CtrlType type);

struct CtrlMessage {
  CtrlType type = CtrlType::kHeartbeat;
  std::uint64_t uid = 0;      ///< stable worker identity across reconnects
  std::uint64_t pid = 0;      ///< worker pid (coordinator may SIGKILL it)
  std::uint64_t shard = kNoShard;  ///< shard the message is about
  std::uint64_t attempt = 0;
  std::uint64_t value = 0;    ///< progress: journal bytes so far
  std::uint64_t digest = 0;   ///< complete: the shard's aggregate digest
  std::uint64_t heartbeat_ms = 0;  ///< assign: worker heartbeat period
  std::string root;           ///< assign: sweep root path
  std::string error;          ///< failed: one-line description
};

/// Encodes one message as a framed, checksummed line.
std::string encode_ctrl_frame(const CtrlMessage& m);

/// Incremental frame decoder over a stream socket.
class CtrlFrameDecoder {
 public:
  /// Appends raw bytes received from the peer.
  void feed(const char* data, std::size_t n);

  /// Decodes the next complete frame.  Returns +1 with `out` filled, 0 when
  /// more bytes are needed, or -1 (with `error` set) when the stream is
  /// corrupt — the connection must be dropped, never resynchronised.
  int next(CtrlMessage& out, std::string& error);

  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;
};

// ---------------------------------------------------------------------------
// Deterministic control-plane fault injection.

struct NetFaultConfig {
  std::uint64_t seed = 0;  ///< 0 disables every fault
  double drop_rate = 0.0;
  double delay_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  double close_rate = 0.0;
  double delay_ms = 25.0;  ///< hold time for delayed messages

  bool any_active() const;

  /// Uniform chaos preset: every fault channel at `rate` except close at
  /// rate/5 (a closed connection costs a reconnect round-trip, so it is
  /// rarer, like crashes vs losses in sim/faults).
  static NetFaultConfig chaos(std::uint64_t seed, double rate);
};

enum class NetFaultAction {
  kDeliver,
  kDrop,
  kDelay,
  kDuplicate,
  kReorder,
  kClose,
};

const char* net_fault_action_name(NetFaultAction a);

/// Seeded fault decision stream: the k-th call for a given (seed, type)
/// history always returns the same action, so a chaos run is reproducible
/// in its *choices* (timing still varies; digest identity must hold for
/// any schedule, and the chaos tests assert exactly that).
class NetFaultPlan {
 public:
  NetFaultPlan() = default;
  explicit NetFaultPlan(const NetFaultConfig& cfg) : cfg_(cfg) {}

  bool active() const { return cfg_.any_active(); }
  NetFaultAction next(CtrlType type);
  double delay_ms() const { return cfg_.delay_ms; }

 private:
  NetFaultConfig cfg_;
  std::uint64_t counter_ = 0;
};

// ---------------------------------------------------------------------------
// Lease policy validation (shared by the CLI tools and the coordinator).

/// "" when (lease timeout, heartbeat interval) is a sane pair.  A lease
/// timeout not comfortably above the heartbeat period would revoke healthy
/// workers on a single delayed beat; anything <= 2x the heartbeat is
/// rejected with a one-line error.  lease_timeout_sec == 0 (watchdog off)
/// is always accepted.
std::string validate_lease_config(double lease_timeout_sec,
                                  double heartbeat_interval_sec);


// ---------------------------------------------------------------------------
// What the transport reports to the coordinator.

struct TransportEvent {
  enum class Kind {
    /// The holder of `shard` is gone: its spawned process died, or its lease
    /// expired and it was revoked.  The coordinator rescans the shard's
    /// journals to decide complete vs reassign.
    kShardExited,
    /// A completion report for (shard, attempt, digest) arrived.
    kShardComplete,
    /// The worker reported a failure for (shard, attempt).
    kShardFailed,
  };
  Kind kind = Kind::kShardExited;
  std::uint64_t shard = 0;
  std::uint64_t attempt = 0;
  std::uint64_t digest = 0;
  int exit_code = -1;  ///< spawned worker's exit code (-1: signal or none)
  std::string detail;
};

// ---------------------------------------------------------------------------
// Worker process spawning.

/// The descriptor a spawned worker finds its control connection on.
inline constexpr int kWorkerControlFd = 3;

/// fork/execs `argv_strings` with PR_SET_PDEATHSIG(SIGKILL), handing the
/// child one end of a fresh socketpair(AF_UNIX, SOCK_STREAM) as fd
/// kWorkerControlFd.  On success fills `pid` and `conn` (the caller's end,
/// O_NONBLOCK | FD_CLOEXEC) and returns "": EOF on `conn` means the worker
/// is gone.  The argv is materialised before fork so the child never
/// allocates.
std::string spawn_worker_process(const std::vector<std::string>& argv_strings,
                                 pid_t& pid, int& conn);

}  // namespace rcb
