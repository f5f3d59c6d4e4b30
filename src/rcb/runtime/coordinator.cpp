#include "rcb/runtime/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "rcb/common/contracts.hpp"
#include "rcb/runtime/transport_socket.hpp"

namespace rcb {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// kExited: the holder is gone and the shard's journals await the scan
/// that decides kDone vs kPending.
enum class ShardRunState { kPending, kRunning, kExited, kDone };

struct ShardTracker {
  ShardRunState state = ShardRunState::kPending;
  std::uint32_t attempts = 0;        ///< assignments so far (retry budget)
  std::uint32_t attempt_id = 0;      ///< latest try_<k> checkpoint dir
  Clock::time_point next_attempt{};  ///< backoff gate for the next assign
};

}  // namespace

SweepResult run_shard_attempt(const ShardSpec& spec, std::size_t shard_id,
                              const std::string& dir,
                              const TrialRunner& runner, ThreadPool& pool) {
  SweepResult res;
  RCB_REQUIRE(shard_id < spec.shards.size());
  const ShardAssignment& a = spec.shards[shard_id];
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    res.error = "cannot create " + dir + ": " + ec.message();
    return res;
  }

  SweepPoint point;
  point.scenario = spec.points[a.point];
  point.checkpoint_dir = dir;
  point.trial_begin = a.begin;
  point.trial_end = a.end;

  SupervisorOptions opt;
  // Always resume: a replacement worker continues its predecessor's
  // journal instead of redoing the shard.
  opt.resume = true;
  opt.trial_timeout_sec = spec.trial_timeout_sec;
  opt.trial_slot_budget = spec.trial_slot_budget;
  opt.max_retries = spec.max_retries;

  const std::vector<SweepPoint> points{point};
  std::vector<SweepResult> results =
      runner ? run_supervised_sweep_points(points, opt, pool, runner)
             : run_supervised_sweep_points(points, opt, pool);
  return results[0];
}

CoordinatorResult run_shard_coordinator(const ShardSpec& spec_in,
                                        const CoordinatorOptions& opt) {
  CoordinatorResult out;
  if (opt.workers == 0 && opt.listen.empty()) {
    out.error = "coordinator needs at least one worker or a listener";
    return out;
  }

  // Establish the authoritative spec: the on-disk one on resume (matching
  // the manifest-wins rule of single-process resume), the caller's
  // otherwise — after wiping any stale shard state so a fresh run never
  // adopts journals from a previous sweep.
  ShardSpec spec = spec_in;
  std::error_code ec;
  if (opt.resume && fs::exists(shard_spec_path(opt.root), ec)) {
    ShardSpecLoadResult loaded = load_shard_spec(opt.root);
    if (!loaded.ok) {
      out.error = loaded.error;
      return out;
    }
    spec = std::move(loaded.spec);
  } else {
    if (fs::exists(opt.root, ec)) {
      for (const fs::directory_entry& entry :
           fs::directory_iterator(opt.root, ec)) {
        if (entry.path().filename().string().rfind("shard_", 0) == 0) {
          fs::remove_all(entry.path(), ec);
        }
      }
    }
    if (const std::string err = write_shard_spec(opt.root, spec);
        !err.empty()) {
      out.error = err;
      return out;
    }
  }

  // The lease policy is validated against the spec's heartbeat, not a
  // caller-supplied one: workers beat at the spec's rate, wherever they
  // run.
  if (const std::string err = validate_lease_config(
          opt.lease_timeout_sec, spec.heartbeat_interval_sec);
      !err.empty()) {
    out.error = err;
    return out;
  }

  const std::size_t n = spec.shards.size();
  std::vector<ShardTracker> track(n);
  std::size_t done = 0;
  // The kComplete scan of every done shard, handed to the merge so it does
  // not decode the journals a second time.
  std::vector<ShardScan> adopted(n);
  const auto mark_done = [&](std::size_t shard, ShardScan scan) {
    scan.records.shrink_to_fit();
    adopted[shard] = std::move(scan);
    track[shard].state = ShardRunState::kDone;
    ++done;
  };

  // Adopt whatever previous coordinators / workers left behind.  Complete
  // shards are taken as-is, partial ones are resumed by a fresh worker,
  // corrupt ones are refused — resuming against a corrupt journal would
  // fabricate results (PR 3 taxonomy).
  if (opt.resume) {
    for (std::size_t i = 0; i < n; ++i) {
      ShardScan scan = scan_shard(opt.root, spec, i);
      if (scan.state == ShardScanState::kCorrupt) {
        out.error = scan.error;
        return out;
      }
      if (scan.state == ShardScanState::kComplete) {
        mark_done(i, std::move(scan));
      }
      // Attempts start past anything on disk: a partitioned worker of a
      // previous coordinator may still be appending to try_<k>.
      track[i].attempt_id = next_shard_attempt(opt.root, i) - 1;
    }
  }

  SocketTransport transport(opt, spec.heartbeat_interval_sec);
  if (const std::string err = transport.start(); !err.empty()) {
    out.error = err;
    return out;
  }

  const auto backoff = [&opt](std::uint32_t attempts) {
    const double sec = opt.backoff_base_sec *
                       static_cast<double>(1u << std::min(attempts - 1, 10u));
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(sec));
  };

  const auto fail = [&](std::string error) {
    transport.shutdown(false);
    out.error = std::move(error);
    out.shards_completed = done;
    return out;
  };

  // Requeues `shard` after a failed attempt, enforcing the retry budget.
  // Returns false when the budget is exhausted (caller fails the sweep).
  const auto requeue = [&](std::size_t shard) {
    ++out.worker_restarts;
    track[shard].state = ShardRunState::kPending;
    if (track[shard].attempts > opt.max_shard_retries) return false;
    track[shard].next_attempt = Clock::now() + backoff(track[shard].attempts);
    return true;
  };

  bool parked = false;
  Clock::time_point fleet_empty_since = Clock::now();
  std::vector<TransportEvent> events;
  std::vector<const TransportEvent*> exited;

  while (done < n) {
    if (sweep_shutdown_requested()) {
      // Graceful: workers drain + fsync their journals, then the result
      // reports interrupted so the caller prints a resume hint.
      transport.shutdown(true);
      out.interrupted = true;
      out.shards_completed = done;
      return out;
    }

    // Take the exited shards out of kRunning first (one entry per shard,
    // however many events it got), so the assign loop below can hand a
    // freed worker its next shard before the coordinator spends time
    // decoding the exited shards' journals.
    events.clear();
    exited.clear();
    transport.poll(events);
    for (const TransportEvent& ev : events) {
      const std::size_t shard = static_cast<std::size_t>(ev.shard);
      if (shard >= n) continue;
      if (track[shard].state != ShardRunState::kRunning) {
        // Stale event (duplicate completion report after a resume, or a
        // revocation racing a completion): the journal scan already
        // decided, or will; re-deciding a done shard would double-count.
        continue;
      }
      track[shard].state = ShardRunState::kExited;
      exited.push_back(&ev);
    }

    // Assign pending shards to available workers.
    while (transport.can_assign()) {
      std::size_t next = n;
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        if (track[i].state == ShardRunState::kPending &&
            track[i].next_attempt <= now) {
          next = i;
          break;
        }
      }
      if (next == n) break;
      // Every attempt journals into a fresh try_<k> dir (seeded with the
      // best partial journal), so a previous holder that is partitioned or
      // not yet dead can never share a file with the replacement.
      const std::uint32_t attempt = ++track[next].attempt_id;
      if (const std::string err =
              prepare_shard_attempt(opt.root, spec, next, attempt);
          !err.empty()) {
        return fail(err);
      }
      transport.assign(next, attempt);
      track[next].state = ShardRunState::kRunning;
      ++track[next].attempts;
    }
    // One flush carries the acks of this round's completions and the
    // assigns that replace them, before any journal scan.
    transport.flush();

    for (const TransportEvent* ev : exited) {
      const std::size_t shard = static_cast<std::size_t>(ev->shard);
      // The journal, not the report or exit code, is the source of truth:
      // a worker killed after its last append still completed its shard,
      // and a completion *claim* without the journal to back it is noise.
      ShardScan scan = scan_shard(opt.root, spec, shard);
      if (scan.state == ShardScanState::kCorrupt) {
        return fail(scan.error);
      }
      if (scan.state == ShardScanState::kComplete) {
        mark_done(shard, std::move(scan));
        continue;
      }
      if (ev->kind == TransportEvent::Kind::kShardExited &&
          ev->exit_code == 130 && sweep_shutdown_requested()) {
        track[shard].state = ShardRunState::kPending;
        continue;  // shutdown path at the top of the loop takes over
      }
      // Crashed / killed / revoked / failed with an incomplete journal:
      // reassign with backoff, bounded so a deterministically-crashing
      // shard fails the sweep instead of spinning forever.
      if (!requeue(shard)) {
        std::string detail = ev->detail.empty()
                                 ? "last exit code " +
                                       std::to_string(ev->exit_code)
                                 : ev->detail;
        return fail("shard " + std::to_string(shard) + " failed after " +
                    std::to_string(track[shard].attempts) + " attempts (" +
                    detail + ")");
      }
    }

    if (opt.simulate_crash_after_shards > 0 &&
        done >= opt.simulate_crash_after_shards) {
      return fail("coordinator crash (simulated after " +
                  std::to_string(done) + " shards)");
    }

    // Graceful degradation: an empty attached fleet parks the sweep instead
    // of failing it — work resumes the moment a worker (re-)attaches.
    if (transport.fleet_size() == 0) {
      if (!parked &&
          std::chrono::duration<double>(Clock::now() - fleet_empty_since)
                  .count() > 2.0) {
        std::fprintf(stderr,
                     "coordinator: worker fleet is empty; parking until a "
                     "worker attaches\n");
        parked = true;
      }
    } else {
      parked = false;
      fleet_empty_since = Clock::now();
    }

    // Wake on the next frame; the cap keeps backoff and lease deadlines.
    transport.wait(std::chrono::milliseconds(5));
  }

  transport.shutdown(true);

  ShardMergeResult merged =
      merge_shard_journals(opt.root, spec, std::move(adopted));
  if (!merged.ok) {
    out.error = merged.error;
    out.shards_completed = done;
    return out;
  }
  out.ok = true;
  out.shards_completed = done;
  out.points = std::move(merged.points);
  return out;
}

}  // namespace rcb
