// rcb_sweep — one-dimensional parameter sweeps over any protocol/adversary
// combination, with CSV output and an automatic power-law fit.
//
//   rcb_sweep --protocol=broadcast --adversary=suffix --q=0.9 ...
//       --sweep=budget --values=16384,65536,262144,1048576 --trials=20
//
//   rcb_sweep --protocol=one_to_one --adversary=full_duel ...
//       --sweep=eps --values=0.3,0.1,0.03,0.01 --fit=none
//
// Sweepable flags: budget, q, rate, n, eps, trials, channels; each value
// must pass the swept flag's own checks.  The fit (when the
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
  tools::add_shared_flags(flags, 50, {"csv", "table"});
  flags.add_choice("sweep",
                   {"budget", "q", "rate", "n", "eps", "trials", "channels"},
                   "flag to sweep");
  flags.add_string("values", "4096,16384,65536",
                   "comma-separated sweep values");
  flags.add_choice("metric", {"max_cost", "mean_cost", "latency"},
                   "y for the fit");
  flags.add_choice("fit", {"power", "none"},
                   "power fits y ~ x^alpha over the sweep; none skips it");
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

  const std::string sweep = flags.get_string("sweep");
  const std::string metric = flags.get_string("metric");
  auto values = split_csv(flags.get_string("values"));
  if (values.empty()) {
    std::fprintf(stderr, "--values is empty\n");
    return 1;
  }

  const SupervisorOptions sup_base = tools::supervisor_from_flags(flags);
  const bool supervised = tools::is_supervised(sup_base);
  if (supervised) install_sweep_signal_handlers();

  // Build every sweep point up front: the scheduler flattens all
  // (point, trial) pairs into one submission, so trials of point i overlap
  // with trials of point i+1 (no per-point pool barrier).  Each value goes
  // through the swept flag, so it meets that flag's checks.
  std::vector<Scenario> cfgs;
  std::vector<double> point_x;
  cfgs.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!flags.set(sweep, values[i])) return 1;
    Scenario cfg = tools::scenario_from_flags(flags);
    cfg.seed += static_cast<std::uint64_t>(i) * 1000003;
    cfgs.push_back(cfg);
    point_x.push_back(std::strtod(values[i].c_str(), nullptr));
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
    std::optional<ThreadPool> own_pool;
    ThreadPool& pool = tools::pool_from_flags(flags, own_pool);
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
