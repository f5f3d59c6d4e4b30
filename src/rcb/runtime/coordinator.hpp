// Multi-process sweep coordinator: drive workers over a shard plan through
// a pluggable transport (runtime/transport.hpp), watch them with heartbeat
// leases, and reassign the shards of crashed, wedged, or partitioned
// workers.
//
// Process model
//
//   coordinator (rcb_sweep --workers=N [--transport=socket])
//     ├─ writes <root>/sweep.json (runtime/shard.hpp) once, atomically
//     ├─ drives a WorkerTransport:
//     │    local   fork/exec up to N workers — the *same binary* re-entered
//     │            via the internal --shard_worker flag — watched by pipe
//     │            liveness + per-shard lease files (mtime heartbeat)
//     │    socket  a TCP listener that workers (same binary, --attach)
//     │            connect to; liveness is the framed control protocol's
//     │            heartbeats (runtime/transport_socket.hpp)
//     ├─ hands a freed worker its next shard first, then scans the exited
//     │  shard's journals: complete marks it done (the scan is kept for
//     │  the merge), incomplete requeues it
//     ├─ reassigns the shard of any dead/wedged/partitioned worker with
//     │  bounded retry + exponential backoff; the journal the previous
//     │  holder left behind is resumed, not discarded, so a kill costs at
//     │  most the un-journaled suffix of one shard
//     ├─ parks (warns and idles, rather than failing) when the socket
//     │  worker fleet shrinks to zero, resuming when workers re-attach
//     └─ merges shard journals into per-point results whose
//        aggregate_digest is bit-identical to a single-process run,
//        adopting each kept completion scan that is still fresh instead of
//        decoding that journal again (runtime/shard.hpp)
//
// Failure matrix (pinned by tests/coordinator_test.cpp and the ci.sh
// chaos_multiproc / chaos_net stages):
//
//   worker SIGKILL      shard rescanned, partial journal resumed by the
//                       replacement worker; digest unchanged
//   worker hang/wedge   lease goes stale, coordinator revokes (SIGKILL /
//                       connection severed) and reassigns; digest unchanged
//   worker partitioned  socket lease expires, shard reassigned under a
//                       fresh attempt dir; the returning worker is told to
//                       abandon; duplicate completions dedupe by digest
//                       equality, divergent ones refuse loudly
//   worker always dies  bounded retries exhaust, the sweep fails loudly
//                       (never spins forever, never reports partial data)
//   control-plane chaos dropped/delayed/duplicated/reordered/closed frames
//                       reconcile by retransmission (at-least-once,
//                       idempotent); digest unchanged
//   coordinator SIGKILL local workers die with it (PR_SET_PDEATHSIG);
//                       socket workers park and re-attach; re-running with
//                       resume=true re-adopts completed shard journals,
//                       resumes partial ones, refuses corrupt ones (PR 3
//                       taxonomy); digest unchanged
//   journal touched     a kept completion scan goes stale (try_<k> list or
//   after its scan      a manifest/journal stat stamp changed), so the
//                       merge rescans that shard: a divergent late try_<k>
//                       or an appended record is refused, a deleted journal
//                       reports the shard incomplete.  Not caught until the
//                       next cold load: a same-size in-place rewrite within
//                       one timestamp tick by a process outside the sweep
//   SIGINT/SIGTERM      graceful: workers drain their journals, and the
//                       result reports interrupted so tools print a
//                       resume hint
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/transport.hpp"

namespace rcb {

struct CoordinatorOptions {
  /// Sweep root: holds sweep.json and the shard_<i>/ checkpoint dirs.
  std::string root;
  /// Worker backend: fork/exec on this machine, or socket-attached.
  TransportKind transport = TransportKind::kLocalProcess;
  /// Max concurrent local worker processes, or (socket) the self-spawned
  /// --attach fleet size.  Socket transports accept 0 when external
  /// workers will attach (spawn_workers == false).
  std::size_t workers = 1;
  /// Socket only: fork our own --attach workers (respawned with backoff
  /// when they die).  false parks until external workers attach.
  bool spawn_workers = true;
  /// Socket only: listener address (numeric IPv4; port 0 = ephemeral,
  /// reported via on_listen).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Called once with the bound listener port (socket only).
  std::function<void(std::uint16_t port)> on_listen;
  /// Re-adopt an existing <root>/sweep.json and the shard journals under
  /// it; the on-disk spec is then authoritative (like the manifest on
  /// single-process resume).  When false, stale shard state under root is
  /// removed and the sweep starts fresh.
  bool resume = false;
  /// A worker silent for longer than this — stale lease file (local) or no
  /// control frame (socket) — is revoked and its shard reassigned (0
  /// disables the watchdog; process death is still caught on local).
  /// Validated against the spec's heartbeat_interval_sec: must exceed 2x.
  double lease_timeout_sec = 10.0;
  /// Reassignment budget per shard: a shard whose worker dies more than
  /// this many times fails the sweep.  Generous by default so a chaos
  /// harness killing random workers in a loop converges anyway.
  std::uint32_t max_shard_retries = 25;
  /// First retry of a shard waits this long, doubling per subsequent
  /// retry (decorrelates a crashing shard from a struggling machine).
  double backoff_base_sec = 0.05;
  /// Deterministic control-plane fault injection, threaded through the
  /// transport (socket: per-frame; local: per-observation).
  NetFaultConfig net_faults;
  /// Builds the argv for the worker process of shard `shard_id` (local
  /// transport); argv[0] is the executable path.  Defaults (when unset) to
  /// re-entering the current executable: {/proc/self/exe,
  /// --shard_worker=<root>, --shard_id=<i>}.  Tests substitute crashing or
  /// wedging workers here.
  std::function<std::vector<std::string>(std::size_t shard_id)> worker_argv;
  /// Builds the argv for self-spawned --attach workers (socket transport);
  /// defaults to {/proc/self/exe, --attach=<host>:<port>}.
  std::function<std::vector<std::string>(std::size_t worker_index)>
      attach_argv;
  /// Test hook, called with (shard_id | worker_index, pid) after each
  /// successful spawn — the chaos tests SIGKILL/SIGSTOP workers from it.
  std::function<void(std::size_t shard_id, pid_t pid)> on_worker_spawn;
  /// Test hook: abort the coordinator (as if SIGKILLed, workers killed too)
  /// once this many shards have completed.  0 = off.
  std::size_t simulate_crash_after_shards = 0;
};

struct CoordinatorResult {
  bool ok = false;
  std::string error;
  /// Graceful shutdown (SIGINT/SIGTERM) stopped the sweep before every
  /// shard finished; re-run with resume=true to continue.
  bool interrupted = false;
  std::size_t shards_completed = 0;
  std::size_t worker_restarts = 0;  ///< reassignments across all shards
  /// One merged result per spec point (empty unless ok).
  std::vector<SweepResult> points;
};

/// Runs `spec` under `opt` to completion (or failure/interruption).  On a
/// fresh run the spec is written to opt.root; on resume the on-disk spec
/// wins and `spec` is ignored.  Blocks until every shard is merged, the
/// retry budget is exhausted, or shutdown is requested.  Not reentrant;
/// one coordinator per process.
CoordinatorResult run_shard_coordinator(const ShardSpec& spec,
                                        const CoordinatorOptions& opt);

/// Runs one shard attempt — the supervised sweep over shard `shard_id`'s
/// trial range, journaling into `dir` (created if needed), resuming any
/// journal already there.  The shared worker core of both the local
/// --shard_worker path and the socket --attach path.
SweepResult run_shard_attempt(const ShardSpec& spec, std::size_t shard_id,
                              const std::string& dir,
                              const TrialRunner& runner);

/// Worker-mode entry point (the target of --shard_worker): runs shard
/// `shard_id` of the spec at `root` into its shard dir, heartbeating the
/// lease file at the spec's heartbeat interval, resuming any journal left
/// by a predecessor.  Returns a process exit code: 0 complete, 130
/// interrupted by signal, 2 bad spec/arguments, 1 any other failure.
int run_shard_worker(const std::string& root, std::size_t shard_id,
                     const TrialRunner& runner);
int run_shard_worker(const std::string& root, std::size_t shard_id);

}  // namespace rcb
