// rcb_replay — deterministic re-execution of a crash-repro record.
//
// When a contract fails inside a Monte-Carlo trial, the process emits a
// one-line machine-readable record to stderr:
//
//   RCB_REPRO {"rcb_repro":1,...,"master_seed":1,"trial":17,"scenario":{...}}
//
// Feed that line (or a file containing it) back through this tool to re-run
// the exact failing trial:
//
//   rcb_replay --record=crash.json            # re-run the recorded trial
//   rcb_replay --record=crash.json --verify   # run it twice, compare digests
//
// The tool re-executes the scenario's named trial and prints the outcome
// (including the FNV-1a trajectory digest).  With --verify it executes the
// trial twice and exits non-zero unless both digests agree — the
// bit-identical-replay guarantee the simulator's determinism contract
// promises.  Expect the re-run to hit the same contract failure the record
// came from; that is the point: the crash is now a deterministic unit
// reproduction instead of a one-in-a-million Monte-Carlo event.
// Exit codes: 0 replayed (and verified, if asked); 1 usage/parse errors;
// 2 nondeterministic replay under --verify; 3 the record's embedded
// scenario does not match its recorded scenario_digest (tampered or stale
// record — replaying it would "reproduce" the wrong experiment).
#include <cstdio>
#include <string>

#include "rcb/cli/flags.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/cancel.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/runtime/scenario.hpp"

namespace rcb {
namespace {

void print_outcome(const TrialOutcome& out) {
  std::printf("max_cost        %.0f\n", out.max_cost);
  std::printf("mean_cost       %.2f\n", out.mean_cost);
  std::printf("adversary_cost  %.0f\n", out.adversary_cost);
  std::printf("latency         %.0f\n", out.latency);
  std::printf("success         %s\n", out.success ? "true" : "false");
  std::printf("aborted         %s\n", out.aborted ? "true" : "false");
  std::printf("dead_count      %llu\n",
              static_cast<unsigned long long>(out.dead_count));
  std::printf("crashed_count   %llu\n",
              static_cast<unsigned long long>(out.crashed_count));
  std::printf("digest          %016llx\n",
              static_cast<unsigned long long>(out.digest));
}

int run_tool(int argc, const char* const* argv) {
  FlagSet flags(
      "rcb_replay: re-execute the exact trial named by an RCB_REPRO "
      "crash-repro record, bit-identically");
  flags.add_string("record", "",
                   "path to a file holding the repro record (a full RCB_REPRO "
                   "stderr line or bare JSON); '-' reads stdin");
  flags.add_int("trial", -1,
                "override the trial index to run (-1 = the recorded one)");
  flags.add_bool("verify", false,
                 "run the trial twice and fail unless the trajectory digests "
                 "are bit-identical");
  flags.add_int("slot_budget", 0,
                "cancel the replay after this many simulated slots (0 = "
                "unlimited); bounds replay of records from trials the sweep "
                "watchdog quarantined as stuck");
  if (!flags.parse(argc, argv)) return 1;

  const std::string path = flags.get_string("record");
  if (path.empty()) {
    std::fprintf(stderr, "--record is required (see --help)\n");
    return 1;
  }
  std::string text;
  const std::string read_error =
      path == "-" ? read_stream_fully(stdin, text)
                  : read_file_fully(path, text, "record file");
  if (!read_error.empty()) {
    std::fprintf(stderr, "%s%s\n", path == "-" ? "cannot read stdin: " : "",
                 read_error.c_str());
    return 1;
  }

  const ReproParseResult parsed = repro_record_from_json(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "bad repro record: %s\n", parsed.error.c_str());
    return 1;
  }
  const ReproRecord& rec = parsed.record;
  if (!rec.has_scenario) {
    std::fprintf(stderr,
                 "record has no scenario (the failing code ran outside a "
                 "ReproScope); cannot replay\n");
    return 1;
  }
  const std::string invalid = validate_scenario(rec.scenario);
  if (!invalid.empty()) {
    std::fprintf(stderr, "recorded scenario is invalid: %s\n",
                 invalid.c_str());
    return 1;
  }
  if (rec.has_scenario_digest) {
    const std::uint64_t actual = scenario_digest(rec.scenario);
    if (actual != rec.scenario_digest) {
      std::fprintf(stderr,
                   "SCENARIO DIGEST MISMATCH: record was emitted for scenario "
                   "%s but embeds a scenario hashing to %s — the record was "
                   "edited after emission (or spliced from another run); "
                   "refusing to replay it as a reproduction\n",
                   to_hex16(rec.scenario_digest).c_str(),
                   to_hex16(actual).c_str());
      return 3;
    }
  }

  const std::int64_t trial_override = flags.get_int("trial");
  const std::uint64_t trial =
      trial_override >= 0 ? static_cast<std::uint64_t>(trial_override)
                          : rec.trial;

  std::printf("replaying %s vs %s, seed %llu, trial %llu",
              rec.scenario.protocol.c_str(), rec.scenario.adversary.c_str(),
              static_cast<unsigned long long>(rec.scenario.seed),
              static_cast<unsigned long long>(trial));
  if (!rec.expr.empty()) {
    std::printf("  (original failure: %s at %s:%d)", rec.expr.c_str(),
                rec.file.c_str(), rec.line);
  }
  std::printf("\n");

  const std::int64_t slot_budget = flags.get_int("slot_budget");
  if (slot_budget < 0) {
    std::fprintf(stderr, "--slot_budget must be >= 0\n");
    return 1;
  }
  // Replays of watchdog-quarantined trials may never terminate on their
  // own; a slot budget turns "stuck forever" into a bounded, deterministic
  // demonstration that the trial exceeds the budget.
  const auto run_bounded = [&](const std::uint64_t t, bool& cancelled,
                               SlotCount& charged) {
    CancelToken token(static_cast<SlotCount>(slot_budget));
    CancelScope scope(&token);
    cancelled = false;
    try {
      return run_scenario_trial(rec.scenario, t);
    } catch (const TrialCancelled&) {
      cancelled = true;
      charged = token.slots_charged();
      return TrialOutcome{};
    }
  };

  bool cancelled = false;
  SlotCount charged = 0;
  const TrialOutcome first = run_bounded(trial, cancelled, charged);
  if (cancelled) {
    std::printf("trial cancelled by --slot_budget after charging %llu "
                "simulated slots (budget %lld): the recorded trial does not "
                "finish within the budget\n",
                static_cast<unsigned long long>(charged),
                static_cast<long long>(slot_budget));
    return 0;
  }
  print_outcome(first);

  if (flags.get_bool("verify")) {
    bool cancelled2 = false;
    SlotCount charged2 = 0;
    const TrialOutcome second = run_bounded(trial, cancelled2, charged2);
    if (cancelled2 || second.digest != first.digest) {
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %016llx vs %016llx — replay is not "
                   "deterministic\n",
                   static_cast<unsigned long long>(first.digest),
                   static_cast<unsigned long long>(second.digest));
      return 2;
    }
    std::printf("verified: second run reproduced digest %016llx\n",
                static_cast<unsigned long long>(first.digest));
  }
  return 0;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) { return rcb::run_tool(argc, argv); }
