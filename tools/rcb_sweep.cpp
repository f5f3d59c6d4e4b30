// rcb_sweep — one-dimensional parameter sweeps over any protocol/adversary
// combination, with CSV output and an automatic power-law fit.
//
//   rcb_sweep --protocol=broadcast --adversary=suffix --q=0.9 ...
//       --sweep=budget --values=16384,65536,262144,1048576 --trials=20
//
//   rcb_sweep --protocol=one_to_one --adversary=full_duel ...
//       --sweep=eps --values=0.3,0.1,0.03,0.01 --fit=none
//
// Sweepable flags: budget, q, rate, n, eps, trials.  The fit (when the
// sweep variable and the chosen y-metric are positive) reports the fitted
// exponent of y ~ x^alpha — the quantity the paper's theorems are about.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rcb/cli/flags.hpp"
#include "rcb/runtime/transport_socket.hpp"
#include "rcb/stats/regression.hpp"
#include "rcb/stats/table.hpp"
#include "sim_runner.hpp"

namespace rcb {
namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) parts.push_back(item);
  }
  return parts;
}

int run_tool(int argc, const char* const* argv) {
  FlagSet flags("rcb_sweep: 1-D parameter sweeps with power-law fits");
  flags.add_string("protocol", "one_to_one",
                   "one_to_one | ksy | combined | broadcast | naive | sqrt | "
                   "mc_broadcast");
  flags.add_string("adversary", "none", "see rcb_sim --help");
  flags.add_int("budget", 16384, "adversary energy budget", 0);
  flags.add_double("q", 0.6, "blocking fraction");
  flags.add_double("rate", 0.3, "random-jammer rate");
  flags.add_int("n", 32, "number of nodes", 1);
  flags.add_double("eps", 0.01, "Fig. 1 failure parameter");
  flags.add_int("trials", 50, "Monte-Carlo trials per sweep point", 1);
  flags.add_int("seed", 1, "master seed", 0);
  flags.add_int("max_epoch_extra", 0, "epoch cap offset (0 = default)", 0);
  flags.add_int("channels", 1,
                "channel count C (mc_broadcast protocol only)", 1, 64);
  flags.add_string("sweep", "budget",
                   "flag to sweep: budget | q | rate | n | eps | trials | "
                   "channels");
  flags.add_string("values", "4096,16384,65536",
                   "comma-separated sweep values");
  flags.add_string("metric", "max_cost",
                   "y for the fit: max_cost | mean_cost | latency");
  flags.add_string("fit", "power",
                   "power (fit y ~ x^alpha over the sweep) | none");
  flags.add_string("format", "csv", "csv | table");
  flags.add_string("checkpoint_dir", "",
                   "journal completed trials under this directory (one "
                   "point_<i> subdirectory per sweep point) so a killed "
                   "sweep can be resumed (see --resume)");
  flags.add_string("resume", "",
                   "resume from the checkpoints under this directory; "
                   "points (and trials within a point) already journaled "
                   "are not re-run");
  flags.add_double("trial_timeout", 0.0,
                   "wall-clock watchdog per trial, seconds (0 = off)");
  flags.add_int("trial_slot_budget", 0,
                "deterministic per-trial budget in simulated slots (0 = off)",
                0);
  flags.add_int("max_retries", 0,
                "retries (reseeded) for trials dying on contract failures "
                "or exceptions",
                0);
  flags.add_int("threads", 0,
                "worker threads for the sweep scheduler (0 = all CPUs in "
                "the process affinity mask); with --workers, threads per "
                "worker process",
                0, 4096);
  flags.add_int("workers", 0,
                "run the sweep across this many spawned worker *processes* "
                "over sharded trial ranges, with crash detection and shard "
                "reassignment (0 = in-process, or with --listen only "
                "attached workers; requires --checkpoint_dir or --resume)",
                0, 1024);
  flags.add_string("shard_worker", "",
                   "internal: run as a spawned worker of the sweep root at "
                   "this path (started by the --workers coordinator)");
  flags.add_int("shard_id", 0, "internal: worker index for --shard_worker",
                0);
  flags.add_string("attach", "",
                   "run as an attached sweep worker: connect to the "
                   "coordinator at host:port, run assigned shards, "
                   "reconnect with backoff if the coordinator restarts");
  flags.add_string("listen", "",
                   "also serve workers that --attach over TCP at this "
                   "address (numeric IPv4; port 0 = ephemeral, printed to "
                   "stderr)");
  flags.add_int("lease_timeout", 10000,
                "revoke and reassign a worker's shard after this many ms "
                "of silence (0 = no watchdog; must exceed 2x "
                "--heartbeat_interval)",
                0, 3600000);
  flags.add_int("heartbeat_interval", 100,
                "worker status-frame period in ms, for spawned and attached "
                "workers alike (finished shards are reported at once)",
                1, 60000);
  flags.add_int("net_fault_seed", 0,
                "seed for deterministic control-plane fault injection "
                "(0 = off; chaos harness only)",
                0);
  flags.add_double("net_fault_rate", 0.02,
                   "per-frame fault probability when --net_fault_seed is "
                   "set (drop/delay/duplicate/reorder, close at rate/5)");
  flags.add_bool("print_digests", false,
                 "print '# digest point_<i> <hex16>' per point (chaos "
                 "harness: digests are bit-identical across thread counts "
                 "and kill/resume)");
  if (!flags.parse(argc, argv)) return 1;

  // Spawned-worker mode: the coordinator re-enters this binary with the
  // internal --shard_worker flag and the control connection on fd 3; every
  // other flag is ignored (the on-disk shard spec is authoritative,
  // mirroring manifest-wins resume semantics).
  if (const std::string worker_root = flags.get_string("shard_worker");
      !worker_root.empty()) {
    return run_shard_worker(worker_root,
                            static_cast<std::size_t>(flags.get_int("shard_id")));
  }

  // Attached-worker mode: connect to a coordinator and serve shard
  // assignments until told to shut down (every other flag is ignored; the
  // coordinator's on-disk shard spec is authoritative).
  if (const std::string attach = flags.get_string("attach"); !attach.empty()) {
    AttachWorkerOptions aopt;
    if (const std::string err = parse_host_port(attach, aopt.host, aopt.port);
        !err.empty()) {
      std::fprintf(stderr, "--attach: %s\n", err.c_str());
      return 1;
    }
    if (aopt.port == 0) {
      std::fprintf(stderr, "--attach: port 0 is not a coordinator address\n");
      return 1;
    }
    return run_attached_worker(aopt);
  }

  tools::SimConfig base;
  base.protocol = flags.get_string("protocol");
  base.adversary = flags.get_string("adversary");
  base.budget = static_cast<Cost>(flags.get_int("budget"));
  base.q = flags.get_double("q");
  base.rate = flags.get_double("rate");
  base.n = static_cast<std::uint32_t>(flags.get_int("n"));
  base.eps = flags.get_double("eps");
  base.trials = static_cast<std::size_t>(flags.get_int("trials"));
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  base.max_epoch_extra =
      static_cast<std::uint32_t>(flags.get_int("max_epoch_extra"));
  base.channels = static_cast<std::uint32_t>(flags.get_int("channels"));

  const std::string sweep = flags.get_string("sweep");
  const std::string metric = flags.get_string("metric");
  auto values = split_csv(flags.get_string("values"));
  if (values.empty()) {
    std::fprintf(stderr, "--values is empty\n");
    return 1;
  }

  SupervisorOptions sup_base;
  sup_base.checkpoint_dir = flags.get_string("checkpoint_dir");
  if (const std::string resume_dir = flags.get_string("resume");
      !resume_dir.empty()) {
    sup_base.checkpoint_dir = resume_dir;
    sup_base.resume = true;
  }
  sup_base.trial_timeout_sec = flags.get_double("trial_timeout");
  sup_base.trial_slot_budget =
      static_cast<SlotCount>(flags.get_int("trial_slot_budget"));
  sup_base.max_retries =
      static_cast<std::uint32_t>(flags.get_int("max_retries"));
  const bool supervised = !sup_base.checkpoint_dir.empty() ||
                          sup_base.trial_timeout_sec > 0.0 ||
                          sup_base.trial_slot_budget != 0 ||
                          sup_base.max_retries != 0;
  if (supervised) install_sweep_signal_handlers();

  // Build every sweep point up front: the scheduler flattens all
  // (point, trial) pairs into one submission, so trials of point i overlap
  // with trials of point i+1 (no per-point pool barrier).
  std::vector<tools::SimConfig> cfgs;
  std::vector<double> point_x;
  cfgs.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::string& value = values[i];
    tools::SimConfig cfg = base;
    cfg.seed = base.seed + static_cast<std::uint64_t>(i) * 1000003;
    char* end = nullptr;
    const double x = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "sweep value '%s' is not numeric\n", value.c_str());
      return 1;
    }
    if (sweep == "budget") {
      cfg.budget = static_cast<Cost>(x);
    } else if (sweep == "q") {
      cfg.q = x;
    } else if (sweep == "rate") {
      cfg.rate = x;
    } else if (sweep == "n") {
      cfg.n = static_cast<std::uint32_t>(x);
    } else if (sweep == "eps") {
      cfg.eps = x;
    } else if (sweep == "trials") {
      cfg.trials = static_cast<std::size_t>(x);
    } else if (sweep == "channels") {
      cfg.channels = static_cast<std::uint32_t>(x);
    } else {
      std::fprintf(stderr, "unknown sweep flag '%s'\n", sweep.c_str());
      return 1;
    }
    cfgs.push_back(cfg);
    point_x.push_back(x);
  }

  const auto workers = static_cast<std::size_t>(flags.get_int("workers"));
  const std::string listen = flags.get_string("listen");
  std::vector<tools::SimAggregate> aggs;
  if (workers > 0 || !listen.empty()) {
    // Multi-process mode: shard the (point, trial) space across worker
    // processes with crash detection + reassignment; the merged per-point
    // digests are bit-identical to the in-process path below.
    if (sup_base.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "--workers requires --checkpoint_dir or --resume (shard "
                   "journals need a sweep root)\n");
      return 1;
    }
    tools::ShardedTransportOptions topt;
    topt.lease_timeout_sec = flags.get_int("lease_timeout") / 1000.0;
    topt.heartbeat_interval_sec = flags.get_int("heartbeat_interval") / 1000.0;
    if (const std::string err = validate_lease_config(
            topt.lease_timeout_sec, topt.heartbeat_interval_sec);
        !err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    if (!listen.empty()) {
      std::string host;
      std::uint16_t ignored = 0;
      if (const std::string err = parse_host_port(listen, host, ignored);
          !err.empty()) {
        std::fprintf(stderr, "--listen: %s\n", err.c_str());
        return 1;
      }
      topt.listen = listen;
      topt.on_listen = [](std::uint16_t port) {
        std::fprintf(stderr, "# listening on port %u (attach workers with "
                     "--attach=<host>:%u)\n", port, port);
      };
    }
    if (const auto seed =
            static_cast<std::uint64_t>(flags.get_int("net_fault_seed"));
        seed != 0) {
      topt.net_faults =
          NetFaultConfig::chaos(seed, flags.get_double("net_fault_rate"));
    }
    tools::ShardedSweepOutcome sharded = tools::run_sweep_sharded(
        cfgs, sup_base, sup_base.checkpoint_dir, workers,
        static_cast<int>(flags.get_int("threads")), topt);
    if (sharded.interrupted) {
      std::fprintf(stderr,
                   "interrupted with %zu shards complete; resume with "
                   "--resume=%s --workers=%zu\n",
                   sharded.shards_completed, sup_base.checkpoint_dir.c_str(),
                   workers);
      return 130;
    }
    if (!sharded.ok) {
      std::fprintf(stderr, "%s\n", sharded.error.c_str());
      return 1;
    }
    if (sharded.worker_restarts > 0) {
      std::fprintf(stderr, "# %zu worker restart(s) during the sweep\n",
                   sharded.worker_restarts);
    }
    aggs = std::move(sharded.points);
  } else {
    const auto thread_count =
        static_cast<std::size_t>(flags.get_int("threads"));
    std::optional<ThreadPool> own_pool;
    if (thread_count != 0) own_pool.emplace(thread_count);
    ThreadPool& pool = own_pool ? *own_pool : ThreadPool::global();
    aggs = tools::run_sweep_points(cfgs, sup_base, sup_base.checkpoint_dir,
                                   pool);
  }

  // A setup failure aborts the sweep before any trial runs; the failing
  // point carries the error (earlier points report !valid with no error).
  for (const tools::SimAggregate& agg : aggs) {
    if (!agg.valid && !agg.error.empty()) {
      std::fprintf(stderr, "%s\n", agg.error.c_str());
      return 1;
    }
  }

  Table table({sweep, "success", "max cost", "mean cost", "T (mean)",
               "latency"});
  std::vector<double> xs, ys;

  // On --resume the on-disk spec/manifests win, so a resumed sweep may have
  // a different point count than the current --values; label by index then.
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    if (i >= values.size()) {
      values.push_back("point_" + std::to_string(i));
      point_x.push_back(0.0);
    }
    const tools::SimAggregate& agg = aggs[i];
    if (agg.interrupted) {
      // With pipelining, points after the first incomplete one may also be
      // partial; everything journaled so far is durable and resumable.
      std::fprintf(stderr,
                   "interrupted at sweep point %zu (%zu/%zu trials "
                   "journaled); resume with --resume=%s\n",
                   i, agg.completed_trials, agg.scenario.trials,
                   sup_base.checkpoint_dir.c_str());
      return 130;
    }
    if (!supervised && (agg.timed_out_rate > 0.0 || agg.failed_rate > 0.0)) {
      // Without checkpointing/retries the user asked for raw trials; a
      // quarantined trial would silently skew the aggregate, so fail loudly
      // (the RCB_REPRO record is already on stderr).
      std::fprintf(stderr,
                   "sweep point %zu: trials failed (see RCB_REPRO above)\n",
                   i);
      return 1;
    }
    table.add_row({values[i], Table::num(agg.success_rate, 4),
                   Table::num(agg.max_cost.mean),
                   Table::num(agg.mean_cost.mean),
                   Table::num(agg.adversary_cost.mean),
                   Table::num(agg.latency.mean)});

    double y = agg.max_cost.mean;
    if (metric == "mean_cost") {
      y = agg.mean_cost.mean;
    } else if (metric == "latency") {
      y = agg.latency.mean;
    }
    // Fit against realised T when sweeping the budget (the theorems are
    // about T, and a budget may not be fully spent).
    const double fit_x =
        sweep == "budget" ? agg.adversary_cost.mean : point_x[i];
    if (fit_x > 0.0 && y > 0.0) {
      xs.push_back(fit_x);
      ys.push_back(y);
    }
  }

  if (flags.get_bool("print_digests")) {
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      std::printf("# digest point_%zu %016llx\n", i,
                  static_cast<unsigned long long>(aggs[i].aggregate_digest));
    }
  }

  if (flags.get_string("format") == "table") {
    table.print(std::cout);
  } else {
    table.print_csv(std::cout);
  }

  if (flags.get_string("fit") == "power" && xs.size() >= 2) {
    const PowerLawFit fit = fit_power_law(xs, ys);
    std::printf("# fit: %s ~ %s^%.3f (R^2 %.3f)\n", metric.c_str(),
                sweep.c_str(), fit.exponent, fit.r_squared);
  }
  return 0;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) { return rcb::run_tool(argc, argv); }
