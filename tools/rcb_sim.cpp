// rcb_sim — command-line Monte-Carlo driver for every protocol/adversary
// combination in the library.
//
//   rcb_sim --protocol=one_to_one --adversary=full_duel --budget=16384 ...
//       ... --q=0.6 --eps=0.01 --trials=200 --format=table
//
//   rcb_sim --protocol=broadcast --n=64 --adversary=suffix --budget=131072 ...
//       ... --q=0.9 --format=json | jq .max_cost.mean
//
// Protocols: one_to_one (Fig. 1), ksy (golden-ratio baseline), combined
// (interleaved min), broadcast (Fig. 2), naive (halt-on-count strawman),
// sqrt (the "extension of Theorem 1" 1-to-n baseline).
// Adversaries: none, suffix, fraction, random, burst (1-uniform, broadcast
// protocols); none, send_phase, nack_phase, full_duel, both_views,
// sym_random, spoof (2-uniform, 1-to-1 protocols).
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rcb/cli/flags.hpp"
#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/stats/histogram.hpp"
#include "rcb/stats/table.hpp"
#include "sim_runner.hpp"

namespace rcb {
namespace {

int run_tool(int argc, const char* const* argv) {
  FlagSet flags(
      "rcb_sim: Monte-Carlo simulator for resource-competitive broadcast "
      "(SPAA'14 reproduction)");
  tools::add_shared_flags(flags, 100, {"table", "json", "csv"});
  flags.add_int("timeout", 0,
                "wall-clock abort after this many slots (1-to-1 protocols; "
                "0 = no timeout; aborted trials are reported, not failed)",
                0);
  flags.add_int("battery", 0,
                "per-node battery capacity in slot-units (broadcast/naive "
                "protocols; 0 = unlimited)",
                0);
  flags.add_int("fault_seed", 0, "seed for the fault-injection RNG streams",
                0);
  flags.add_double("crash_rate", 0.0, "per-slot P(an up node crashes)");
  flags.add_double("restart_rate", 0.0,
                   "per-slot P(a crashed node restarts); 0 = crashes are "
                   "permanent");
  flags.add_double("crash_fraction", 1.0,
                   "deterministic fraction of nodes eligible to crash");
  flags.add_double("loss", 0.0, "P(m/nack reception fades to clear)");
  flags.add_double("corruption", 0.0, "P(m/nack reception garbles to noise)");
  flags.add_double("skew", 0.0, "per-phase P(a node is clock-desynchronised)");
  flags.add_int("brownout_slot", -1,
                "global slot a battery brownout begins (-1 = never)", -1);
  flags.add_double("brownout_fraction", 0.0,
                   "fraction of nodes hit by the brownout");
  flags.add_double("brownout_factor", 0.5,
                   "battery capacity multiplier after the brownout");
  flags.add_bool("histogram", false,
                 "print an ASCII histogram of per-trial max cost");
  flags.add_string("config", "",
                   "JSON file of flag values, e.g. {\"protocol\": "
                   "\"broadcast\", \"n\": 64}; command-line flags override");

  // Apply config-file values before the command line so that explicit
  // flags override the file.  The file is located by a pre-scan, since the
  // full parse has not run yet.
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string path;
    if (arg.rfind("--config=", 0) == 0) {
      path = arg.substr(9);
    } else if (arg == "--config" && i + 1 < argc) {
      path = argv[i + 1];
    } else {
      continue;
    }
    std::string text;
    if (const std::string err = read_file_fully(path, text, "config file");
        !err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    const JsonParseResult parsed = json_parse(text);
    if (!parsed.ok) {
      std::fprintf(stderr, "config '%s': %s at offset %zu\n", path.c_str(),
                   parsed.error.c_str(), parsed.error_offset);
      return 1;
    }
    if (!parsed.value.is_object()) {
      std::fprintf(stderr, "config '%s': top level must be an object\n",
                   path.c_str());
      return 1;
    }
    for (const auto& [key, value] : parsed.value.as_object()) {
      std::string repr;
      if (value.is_string()) {
        repr = value.as_string();
      } else if (value.is_bool()) {
        repr = value.as_bool() ? "true" : "false";
      } else if (value.is_number()) {
        char nbuf[64];
        std::snprintf(nbuf, sizeof nbuf, "%.17g", value.as_number());
        repr = nbuf;
      } else {
        std::fprintf(stderr, "config key '%s': unsupported value type\n",
                     key.c_str());
        return 1;
      }
      if (!flags.set(key, repr)) return 1;
    }
  }

  if (!flags.parse(argc, argv)) return 1;

  Scenario cfg = tools::scenario_from_flags(flags);
  cfg.timeout_slots = static_cast<SlotCount>(flags.get_int("timeout"));
  cfg.battery = static_cast<Cost>(flags.get_int("battery"));
  cfg.faults.seed = static_cast<std::uint64_t>(flags.get_int("fault_seed"));
  cfg.faults.crash_rate = flags.get_double("crash_rate");
  cfg.faults.restart_rate = flags.get_double("restart_rate");
  cfg.faults.crash_fraction = flags.get_double("crash_fraction");
  cfg.faults.loss_rate = flags.get_double("loss");
  cfg.faults.corruption_rate = flags.get_double("corruption");
  cfg.faults.clock_skew_rate = flags.get_double("skew");
  const std::int64_t brownout = flags.get_int("brownout_slot");
  cfg.faults.brownout_slot =
      brownout == -1 ? kNoSlot : static_cast<SlotIndex>(brownout);
  cfg.faults.brownout_fraction = flags.get_double("brownout_fraction");
  cfg.faults.brownout_factor = flags.get_double("brownout_factor");

  const SupervisorOptions sup = tools::supervisor_from_flags(flags);
  const bool supervised = tools::is_supervised(sup);
  std::optional<ThreadPool> own_pool;
  ThreadPool& pool = tools::pool_from_flags(flags, own_pool);
  if (supervised) install_sweep_signal_handlers();
  const tools::SimAggregate agg =
      tools::aggregate_from_sweep(run_supervised_sweep(cfg, sup, pool));
  if (!agg.valid) {
    std::fprintf(stderr, "%s\n", agg.error.c_str());
    return 1;
  }
  if (!supervised && (agg.timed_out_rate > 0.0 || agg.failed_rate > 0.0)) {
    // Without checkpointing/retries the user asked for raw trials; a
    // quarantined trial would silently skew the aggregate, so fail loudly
    // (the RCB_REPRO record is already on stderr).
    std::fprintf(stderr, "trials failed (see RCB_REPRO above)\n");
    return 1;
  }

  // On --resume the checkpointed scenario is authoritative; report what
  // actually ran, not what the flags said.
  const Scenario& ran = agg.scenario;

  const auto finish = [&]() -> int {
    if (!agg.interrupted) return 0;
    std::fprintf(stderr,
                 "interrupted: %zu/%zu trials completed and journaled; "
                 "resume with --resume=%s\n",
                 agg.completed_trials, ran.trials,
                 sup.checkpoint_dir.c_str());
    return 130;
  };

  const std::string& format = flags.get_string("format");
  if (format == "json") {
    std::string out;
    JsonWriter json(out);
    json.begin_object();
    json.key("protocol").value(ran.protocol);
    json.key("adversary").value(ran.adversary);
    json.key("trials").value(static_cast<std::uint64_t>(ran.trials));
    json.key("success_rate").value(agg.success_rate);
    json.key("abort_rate").value(agg.abort_rate);
    json.key("mean_dead_count").value(agg.mean_dead_count);
    json.key("mean_crashed_count").value(agg.mean_crashed_count);
    if (supervised) {
      json.key("timed_out_rate").value(agg.timed_out_rate);
      json.key("failed_rate").value(agg.failed_rate);
      json.key("resumed_trials")
          .value(static_cast<std::uint64_t>(agg.resumed_trials));
      json.key("executed_trials")
          .value(static_cast<std::uint64_t>(agg.executed_trials));
      json.key("completed_trials")
          .value(static_cast<std::uint64_t>(agg.completed_trials));
      json.key("interrupted").value(agg.interrupted);
      json.key("aggregate_digest").value(to_hex16(agg.aggregate_digest));
    }
    auto emit = [&](const char* name, const Summary& s) {
      json.key(name).begin_object();
      json.key("mean").value(s.mean);
      json.key("stddev").value(s.stddev);
      json.key("median").value(s.median);
      json.key("p10").value(s.p10);
      json.key("p90").value(s.p90);
      json.key("min").value(s.min);
      json.key("max").value(s.max);
      json.end_object();
    };
    emit("max_cost", agg.max_cost);
    emit("mean_cost", agg.mean_cost);
    emit("adversary_cost", agg.adversary_cost);
    emit("latency", agg.latency);
    json.end_object();
    std::cout << out << '\n';
    return finish();
  }

  Table table({"metric", "mean", "median", "p10", "p90", "min", "max"});
  auto row = [&](const char* name, const Summary& s) {
    table.add_row({name, Table::num(s.mean), Table::num(s.median),
                   Table::num(s.p10), Table::num(s.p90), Table::num(s.min),
                   Table::num(s.max)});
  };
  row("max node cost", agg.max_cost);
  row("mean node cost", agg.mean_cost);
  row("adversary cost T", agg.adversary_cost);
  row("latency (slots)", agg.latency);

  if (format == "csv") {
    table.print_csv(std::cout);
  } else {
    std::printf("%s vs %s, %zu trials, success rate %.4f\n",
                ran.protocol.c_str(), ran.adversary.c_str(), ran.trials,
                agg.success_rate);
    if (agg.abort_rate > 0.0 || agg.mean_dead_count > 0.0 ||
        agg.mean_crashed_count > 0.0) {
      std::printf("aborted %.4f, dead/trial %.2f, crashed/trial %.2f\n",
                  agg.abort_rate, agg.mean_dead_count, agg.mean_crashed_count);
    }
    if (supervised) {
      std::printf("supervised: %zu resumed, %zu executed, timed_out %.4f, "
                  "failed %.4f, aggregate digest %s\n",
                  agg.resumed_trials, agg.executed_trials, agg.timed_out_rate,
                  agg.failed_rate, to_hex16(agg.aggregate_digest).c_str());
    }
    std::printf("\n");
    table.print(std::cout);
  }

  if (flags.get_bool("histogram")) {
    std::cout << "\nper-trial max cost distribution:\n";
    Histogram hist(agg.max_cost_samples, 12);
    hist.print(std::cout);
  }
  return finish();
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) { return rcb::run_tool(argc, argv); }
