// Multi-process sweep coordinator: drive workers over a shard plan through
// the worker transport (runtime/transport_socket.hpp), watch them by their
// control frames, and reassign the shards of crashed or wedged workers.
//
// Process model
//
//   coordinator (rcb_sweep --workers=N)
//     ├─ writes <root>/sweep.json (runtime/shard.hpp) once, atomically
//     ├─ keeps N spawned workers alive — the *same binary* re-entered via
//     │  the internal --shard_worker flag — each on a socketpair it
//     │  inherits, speaking the framed control protocol of
//     │  runtime/transport.hpp
//     ├─ hands a freed worker its next shard in the same flush as the ack
//     │  of its completion, then scans the finished shard's journals:
//     │  complete marks it done (the scan is kept for the merge),
//     │  incomplete requeues it
//     ├─ reassigns the shard of any dead or wedged worker with
//     │  bounded retry + exponential backoff; every attempt journals into a
//     │  fresh shard_<i>/try_<k> seeded with the best journal its
//     │  predecessors left behind, so a kill costs at most the un-journaled
//     │  suffix of one shard
//     └─ merges shard journals into per-point results whose
//        aggregate_digest is bit-identical to a single-process run,
//        adopting each kept completion scan that is still fresh instead of
//        decoding that journal again (runtime/shard.hpp)
//
// Failure matrix (pinned by tests/coordinator_test.cpp and the ci.sh
// chaos_multiproc / chaos_net stages):
//
//   worker SIGKILL      EOF on its connection: reaped and its shard
//                       revoked at once.  The replacement resumes the
//                       partial journal; digest unchanged
//   worker hang/wedge   frame silence past the lease timeout: the
//                       coordinator revokes (severs the connection and
//                       SIGKILLs the holder) and reassigns under a fresh
//                       attempt dir; duplicate completions dedupe by
//                       digest equality, divergent ones refuse loudly;
//                       digest unchanged
//   worker always dies  bounded retries exhaust, the sweep fails loudly
//                       (never spins forever, never reports partial data)
//   control-plane chaos dropped/delayed/duplicated/reordered/closed frames
//                       reconcile by retransmission (at-least-once,
//                       idempotent); a closed connection costs a respawn;
//                       digest unchanged
//   coordinator SIGKILL workers die with it (PR_SET_PDEATHSIG); re-running
//                       with resume=true re-adopts completed shard journals,
//                       resumes partial ones under fresh try_<k> dirs — so
//                       a straggling orphan never shares a file with its
//                       replacement — and refuses corrupt ones (the
//                       checkpoint corruption taxonomy); digest unchanged
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
  /// Worker processes to spawn and keep alive (respawned with backoff when
  /// they die); at least 1.
  std::size_t workers = 1;
  /// Re-adopt an existing <root>/sweep.json and the shard journals under
  /// it; the on-disk spec is then authoritative (like the manifest on
  /// single-process resume).  When false, stale shard state under root is
  /// removed and the sweep starts fresh.
  bool resume = false;
  /// A shard holder that sends no control frame for longer than this is
  /// revoked and its shard reassigned (0 disables the watchdog; a worker's
  /// death is still caught by EOF).  Validated against the
  /// spec's heartbeat_interval_sec: must exceed 2x.
  double lease_timeout_sec = 10.0;
  /// Reassignment budget per shard: a shard whose worker dies more than
  /// this many times fails the sweep.  Generous by default so a chaos
  /// harness killing random workers in a loop converges anyway.
  std::uint32_t max_shard_retries = 25;
  /// First retry of a shard waits this long, doubling per subsequent
  /// retry (decorrelates a crashing shard from a struggling machine); a
  /// dead worker's respawn backs off the same way.
  double backoff_base_sec = 0.05;
  /// Deterministic control-plane fault injection, applied to every frame.
  /// Refused unless validate_net_faults accepts it.
  NetFaultConfig net_faults;
  /// Builds the argv for spawned worker `worker_index`; argv[0] is the
  /// executable path.  Defaults (when unset) to re-entering the current
  /// executable: {/proc/self/exe, --shard_worker=<root>, --shard_id=<i>}.
  /// Tests substitute crashing workers here.
  std::function<std::vector<std::string>(std::size_t worker_index)>
      worker_argv;
  /// Test hook, called with (worker_index, pid) after each successful
  /// spawn — the chaos tests SIGKILL/SIGSTOP workers from it.
  std::function<void(std::size_t worker_index, pid_t pid)> on_worker_spawn;
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

/// Runs `spec` under `opt` to completion (or failure/interruption).  Fails
/// at once with a one-line error when opt.workers is 0, the lease timeout
/// fails validate_lease_config or the fault rates fail
/// validate_net_faults.  On a fresh run the spec is written to opt.root; on resume the on-disk spec
/// wins and `spec` is ignored.  Blocks until every shard is merged, the
/// retry budget is exhausted, or shutdown is requested.  Not reentrant;
/// one coordinator per process.
CoordinatorResult run_shard_coordinator(const ShardSpec& spec,
                                        const CoordinatorOptions& opt);

/// Runs one shard attempt — the supervised sweep over shard `shard_id`'s
/// trial range on `pool`, journaling into `dir` (created if needed),
/// resuming any journal already there.  The core of every worker; a worker
/// keeps one pool for all its attempts, so their threads (and the allocator
/// arenas behind them) are reused.
SweepResult run_shard_attempt(const ShardSpec& spec, std::size_t shard_id,
                              const std::string& dir,
                              const TrialRunner& runner, ThreadPool& pool);

/// Worker-mode entry point of a spawned worker (the target of
/// --shard_worker=<root> --shard_id=<worker index>): serves the control
/// connection inherited as fd kWorkerControlFd, running every shard
/// attempt assigned to it, until a shutdown directive (exit 0),
/// SIGINT/SIGTERM (130), or the connection closing (1).  Exits 2 with a
/// one-line error when fd kWorkerControlFd is not a socket.  Implemented in runtime/transport_socket.cpp.
int run_shard_worker(const std::string& root, std::size_t worker_index,
                     const TrialRunner& runner);
int run_shard_worker(const std::string& root, std::size_t worker_index);

}  // namespace rcb
