// M2 — engine scaling sweep (batch vs event-driven slotwise vs dense).
//
// Sweeps fleet size n and phase length (slots) across the three channel
// engines under sparse, protocol-like activity (O(1) expected events per
// node per phase), with and without imperfect CCA and an active fault
// plan.  The slotwise rows run the slotwise engine at C = 1 (the
// single-channel model).  The point: the batch engine and the event-driven
// slotwise engine are O(slots + events), the dense reference is
// O(slots * nodes), so the event-driven paths sustain orders of magnitude
// more simulated slots per second at scale — this bench pins the number
// (the acceptance bar is >= 5x slotwise-event over dense at n=1024,
// slots=2^20).
//
// Emits BENCH_m2.json (bench_util.hpp schema) for tools/bench_compare.
// Default grid runs in tens of seconds; --full expands to n=4096 and
// slots=2^22 for the event-driven engines.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rcb/cli/flags.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "rcb/runtime/transport_socket.hpp"
#include "rcb/adversary/budget.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

/// Jams iff the previous slot carried a transmission — a representative
/// reactive strategy with a 1-slot lookback window.
class Reactive final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    // Only the run's first slot can see a transmission in its lookback;
    // every later slot looks back at a silent run slot.
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }
};

/// The single-channel model: the slotwise engine at C = 1.
const ChannelPlan kSingle{1, {}};

/// Sparse protocol-like activity: ~2 sends and ~2 listens expected per node
/// per phase, independent of phase length.
std::vector<NodeAction> sparse_actions(std::uint32_t n, SlotCount slots) {
  const double p = 2.0 / static_cast<double>(slots);
  std::vector<NodeAction> actions(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    actions[u] = NodeAction{p, u == 0 ? Payload::kMessage : Payload::kNoise, p};
  }
  return actions;
}

struct Variant {
  const char* name;
  CcaModel cca;
  bool faults;
};

FaultConfig fault_config() {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.crash_rate = 1e-5;
  cfg.restart_rate = 1e-4;
  cfg.loss_rate = 0.05;
  cfg.corruption_rate = 0.02;
  cfg.clock_skew_rate = 0.05;
  return cfg;
}

struct Measurement {
  double wall_ms = 0;        // per run
  double slots_per_sec = 0;
  double events_per_sec = 0;
  int reps = 0;
};

/// Times `run(rep)` (which returns the run's event count) until `min_sec`
/// of wall time or `max_reps` runs have accumulated.
template <typename RunFn>
Measurement measure(RunFn&& run, double min_sec, int max_reps,
                    SlotCount slots) {
  using Clock = std::chrono::steady_clock;
  double total_sec = 0;
  double total_events = 0;
  int reps = 0;
  while (reps < max_reps && (reps == 0 || total_sec < min_sec)) {
    const auto t0 = Clock::now();
    total_events += static_cast<double>(run(reps));
    const auto t1 = Clock::now();
    total_sec += std::chrono::duration<double>(t1 - t0).count();
    ++reps;
  }
  Measurement m;
  m.reps = reps;
  m.wall_ms = total_sec / reps * 1e3;
  m.slots_per_sec = static_cast<double>(slots) * reps / total_sec;
  m.events_per_sec = total_events / total_sec;
  return m;
}

void run_bench(bool full, const std::string& out_path, std::uint64_t seed) {
  bench::print_header(
      "M2", "engine scaling: batch vs event slotwise vs dense reference");

  std::vector<std::uint32_t> ns = {32, 1024};
  std::vector<SlotCount> slot_grid = {SlotCount{1} << 14, SlotCount{1} << 17,
                                      SlotCount{1} << 20};
  if (full) {
    ns = {32, 256, 1024, 4096};
    slot_grid = {SlotCount{1} << 14, SlotCount{1} << 17, SlotCount{1} << 20,
                 SlotCount{1} << 22};
  }
  const Variant variants[] = {
      {"base", CcaModel{}, false},
      {"cca", CcaModel{0.05, 0.05}, false},
      {"faults", CcaModel{}, true},
  };
  // The dense engine costs O(slots * nodes); cap the product so the sweep
  // stays in the tens of seconds (enough to include the acceptance cell
  // n=1024, slots=2^20) and skip it for the fault/CCA variants — the
  // engine-semantics crosscheck under those lives in the tests.
  const std::uint64_t dense_cap = std::uint64_t{1} << 30;

  bench::BenchReport report("m2");
  Table table({"engine", "variant", "n", "slots", "reps", "wall ms",
               "slots/sec", "events/sec"});

  double event_at_accept = 0, dense_at_accept = 0;
  const std::uint32_t accept_n = 1024;
  const SlotCount accept_slots = SlotCount{1} << 20;

  std::uint64_t cell = 0;
  for (std::uint32_t n : ns) {
    for (SlotCount slots : slot_grid) {
      const auto actions = sparse_actions(n, slots);
      const JamSchedule jam = JamSchedule::blocking_fraction(slots, 0.5);
      for (const Variant& v : variants) {
        auto add = [&](const char* engine, const Measurement& m) {
          bench::BenchEntry e;
          e.name = std::string("m2/") + engine + "/" + v.name;
          e.config = {{"n", static_cast<double>(n)},
                      {"slots", static_cast<double>(slots)}};
          e.wall_ms = m.wall_ms;
          e.slots_per_sec = m.slots_per_sec;
          e.events_per_sec = m.events_per_sec;
          report.add(std::move(e));
          table.add_row({engine, v.name, Table::num(n), Table::num(slots),
                         Table::num(m.reps), Table::num(m.wall_ms, 3),
                         Table::num(m.slots_per_sec),
                         Table::num(m.events_per_sec)});
        };
        ++cell;

        {
          FaultPlan faults(fault_config());
          const auto m = measure(
              [&](int rep) {
                Rng rng = Rng::stream(seed, cell * 1000 + rep);
                const auto r =
                    run_repetition(slots, actions, jam, rng, nullptr, v.cca,
                                   v.faults ? &faults : nullptr);
                std::uint64_t events = 0;
                for (const auto& o : r.obs) events += o.sends + o.listens;
                return events;
              },
              0.2, 1000, slots);
          add("batch", m);
        }
        {
          FaultPlan faults(fault_config());
          Reactive adversary;
          const auto m = measure(
              [&](int rep) {
                Rng rng = Rng::stream(seed, cell * 1000 + rep);
                const auto r = run_repetition_slotwise_mc(
                    slots, actions, kSingle, adversary, rng, v.cca,
                    v.faults ? &faults : nullptr);
                return r.event_count;
              },
              0.2, 1000, slots);
          add("slotwise_event", m);
          if (n == accept_n && slots == accept_slots &&
              std::string(v.name) == "base") {
            event_at_accept = m.slots_per_sec;
          }
        }
        // The acceptance cell is always measured (even if the cap shrinks)
        // so the event-vs-dense speedup entry below never goes missing.
        const bool dense_this_cell =
            std::string(v.name) == "base" &&
            (static_cast<std::uint64_t>(n) * slots <= dense_cap ||
             (n == accept_n && slots == accept_slots));
        if (dense_this_cell) {
          FaultPlan faults(fault_config());
          Reactive adversary;
          const auto m = measure(
              [&](int rep) {
                Rng rng = Rng::stream(seed, cell * 1000 + rep);
                const auto r = run_repetition_slotwise_mc_dense(
                    slots, actions, kSingle, adversary, rng, v.cca, nullptr);
                return r.event_count;
              },
              0.1, 4, slots);
          add("slotwise_dense", m);
          if (n == accept_n && slots == accept_slots) {
            dense_at_accept = m.slots_per_sec;
          }
        }
      }
    }
  }

  // Multi-channel engine scaling at the acceptance cell: the mc event path
  // with random hop sequences and a sweeping jammer, for C = 1/2/4/64, then
  // the uniform-split jammer's draw cost at C = 1/8.
  // Eventless runs are answered in bulk via jam_run_masks, so throughput
  // should be near-flat in C under sparse activity (C=64 pins the full-mask
  // group-resolution bound); C=1 is the single-channel model under a
  // different jammer than the slotwise_event rows above.  The event-vs-dense
  // speedup at C=1 is emitted as m2/channels/speedup for the bench_compare
  // hard gate.
  {
    const auto actions = sparse_actions(accept_n, accept_slots);
    const auto random_hops = [&](std::uint32_t c) {
      std::vector<ChannelHop> hops(accept_n);
      Rng hop_rng = Rng::stream(seed, 9000 + c);
      for (std::uint32_t u = 0; u < accept_n; ++u) {
        hops[u] =
            ChannelHop{static_cast<std::uint32_t>(hop_rng.uniform_u64(c)),
                       static_cast<std::uint32_t>(hop_rng.uniform_u64(c))};
      }
      return hops;
    };
    double mc_event_at_accept = 0;
    for (const std::uint32_t c : {1u, 2u, 4u, 64u}) {
      const std::vector<ChannelHop> hops = random_hops(c);
      const ChannelPlan plan{c, {hops.data(), hops.size()}};
      const auto m = measure(
          [&](int rep) {
            Rng rng = Rng::stream(seed, 9100 + c * 100 +
                                            static_cast<std::uint64_t>(rep));
            McSweepJammer adversary(Budget(accept_slots / 2), 64);
            const auto r = run_repetition_slotwise_mc(accept_slots, actions,
                                                      plan, adversary, rng);
            return r.event_count;
          },
          0.2, 1000, accept_slots);
      bench::BenchEntry e;
      e.name = "m2/channels/scaling";
      e.config = {{"n", static_cast<double>(accept_n)},
                  {"slots", static_cast<double>(accept_slots)},
                  {"channels", static_cast<double>(c)}};
      e.wall_ms = m.wall_ms;
      e.slots_per_sec = m.slots_per_sec;
      e.events_per_sec = m.events_per_sec;
      report.add(std::move(e));
      table.add_row({"mc_event", "C=" + std::to_string(c),
                     Table::num(accept_n), Table::num(accept_slots),
                     Table::num(m.reps), Table::num(m.wall_ms, 3),
                     Table::num(m.slots_per_sec),
                     Table::num(m.events_per_sec)});
      if (c == 1) mc_event_at_accept = m.slots_per_sec;
    }
    // The uniform split at rate 0.5 with a budget that never runs dry: C
    // Bernoulli draws in every slot, so these rows time the adversary's
    // draw kernel (per-slot and bulk prefix answers) rather than the
    // engine's group resolution.
    for (const std::uint32_t c : {1u, 8u}) {
      const std::vector<ChannelHop> hops = random_hops(c);
      const ChannelPlan plan{c, {hops.data(), hops.size()}};
      const auto m = measure(
          [&](int rep) {
            Rng rng = Rng::stream(seed, 9500 + c * 100 +
                                            static_cast<std::uint64_t>(rep));
            McUniformSplitJammer adversary(
                Budget::unlimited(), 0.5,
                Rng::stream(seed, 9600 + static_cast<std::uint64_t>(rep)));
            const auto r = run_repetition_slotwise_mc(accept_slots, actions,
                                                      plan, adversary, rng);
            return r.event_count;
          },
          0.2, 100, accept_slots);
      bench::BenchEntry e;
      e.name = "m2/channels/uniform";
      e.config = {{"n", static_cast<double>(accept_n)},
                  {"slots", static_cast<double>(accept_slots)},
                  {"channels", static_cast<double>(c)}};
      e.wall_ms = m.wall_ms;
      e.slots_per_sec = m.slots_per_sec;
      e.events_per_sec = m.events_per_sec;
      report.add(std::move(e));
      table.add_row({"mc_uniform", "C=" + std::to_string(c),
                     Table::num(accept_n), Table::num(accept_slots),
                     Table::num(m.reps), Table::num(m.wall_ms, 3),
                     Table::num(m.slots_per_sec),
                     Table::num(m.events_per_sec)});
    }
    // mc event vs mc dense at the acceptance cell (C=1, same jammer and
    // streams).  The dense reference costs O(slots * nodes) — one ~2^30-work
    // rep is plenty for a ratio gate.
    {
      const std::uint32_t c = 1;
      const std::vector<ChannelHop> hops = random_hops(c);
      const ChannelPlan plan{c, {hops.data(), hops.size()}};
      const auto m = measure(
          [&](int rep) {
            Rng rng = Rng::stream(seed, 9100 + c * 100 +
                                            static_cast<std::uint64_t>(rep));
            McSweepJammer adversary(Budget(accept_slots / 2), 64);
            const auto r = run_repetition_slotwise_mc_dense(
                accept_slots, actions, plan, adversary, rng);
            return r.event_count;
          },
          0.1, 2, accept_slots);
      bench::BenchEntry e;
      e.name = "m2/channels/dense";
      e.config = {{"n", static_cast<double>(accept_n)},
                  {"slots", static_cast<double>(accept_slots)},
                  {"channels", static_cast<double>(c)}};
      e.wall_ms = m.wall_ms;
      e.slots_per_sec = m.slots_per_sec;
      e.events_per_sec = m.events_per_sec;
      report.add(std::move(e));
      table.add_row({"mc_dense", "C=" + std::to_string(c),
                     Table::num(accept_n), Table::num(accept_slots),
                     Table::num(m.reps), Table::num(m.wall_ms, 3),
                     Table::num(m.slots_per_sec),
                     Table::num(m.events_per_sec)});
      if (m.slots_per_sec > 0 && mc_event_at_accept > 0) {
        bench::BenchEntry ratio;
        ratio.name = "m2/channels/speedup";
        ratio.config = {{"n", static_cast<double>(accept_n)},
                        {"slots", static_cast<double>(accept_slots)},
                        {"channels", static_cast<double>(c)}};
        ratio.slots_per_sec = mc_event_at_accept / m.slots_per_sec;
        report.add(std::move(ratio));
        std::printf(
            "\nmulti-channel speedup (event vs dense) at n=%u, slots=2^20, "
            "C=1: %.1fx (acceptance bar: >= 5x)\n",
            accept_n, mc_event_at_accept / m.slots_per_sec);
      }
    }
  }

  // Supervisor checkpointing overhead: one full supervised sweep with the
  // journal off vs on (fresh checkpoint per run: manifest write + one
  // flushed journal append per trial).  The overhead bound keeps the
  // "always checkpoint long sweeps" recommendation honest.
  {
    Scenario s;
    s.protocol = "one_to_one";
    s.adversary = "full_duel";
    s.budget = 1024;
    s.trials = full ? 2048 : 512;
    s.seed = seed;
    const std::string ckpt_dir =
        (std::filesystem::temp_directory_path() / "rcb_bench_m2_ckpt")
            .string();
    const auto sweep_once = [&](bool journal) {
      SupervisorOptions sup;
      if (journal) {
        std::filesystem::remove_all(ckpt_dir);
        sup.checkpoint_dir = ckpt_dir;
      }
      const SweepResult r = run_supervised_sweep(s, sup);
      return static_cast<std::uint64_t>(r.records.size());
    };
    const auto add_sweep = [&](const char* name, const Measurement& m) {
      bench::BenchEntry e;
      e.name = std::string("m2/supervisor/") + name;
      e.config = {{"trials", static_cast<double>(s.trials)}};
      e.wall_ms = m.wall_ms;
      e.events_per_sec = m.events_per_sec;  // completed trials per second
      report.add(std::move(e));
      table.add_row({"supervisor", name, Table::num(1),
                     Table::num(s.trials), Table::num(m.reps),
                     Table::num(m.wall_ms, 3), Table::num(0),
                     Table::num(m.events_per_sec)});
    };
    const Measurement off =
        measure([&](int) { return sweep_once(false); }, 0.3, 8, 0);
    add_sweep("journal_off", off);
    const Measurement on =
        measure([&](int) { return sweep_once(true); }, 0.3, 8, 0);
    add_sweep("journal_on", on);
    std::filesystem::remove_all(ckpt_dir);
    std::printf(
        "\ncheckpoint journal overhead: %.3f ms -> %.3f ms per %zu-trial "
        "sweep (%+.1f%%)\n",
        off.wall_ms, on.wall_ms, s.trials,
        (on.wall_ms / off.wall_ms - 1.0) * 100.0);
  }

  // Cross-point pipelining: an 8-point heavy-tailed budget sweep (the last
  // point costs ~2^7x the first), run barrier-per-point vs flattened onto
  // the pool (run_supervised_sweep_points).  The ISSUE-5 acceptance bar is
  // >= 1.5x pipelined over sequential on an 8-core machine; on fewer cores
  // the pipelined path must simply not regress.
  {
    std::vector<SweepPoint> points;
    for (int i = 0; i < 8; ++i) {
      Scenario s;
      s.protocol = "one_to_one";
      s.adversary = "full_duel";
      s.budget = std::uint64_t{1} << (7 + i);
      s.trials = full ? 64 : 16;
      s.seed = seed + static_cast<std::uint64_t>(i) * 1000003;
      points.push_back(SweepPoint{s, ""});
    }
    const std::size_t trials_total =
        points.size() * static_cast<std::size_t>(points[0].scenario.trials);
    SupervisorOptions sup;
    const auto add_sched = [&](const char* name, const Measurement& m) {
      bench::BenchEntry e;
      e.name = std::string("m2/sweep/") + name;
      e.config = {{"points", static_cast<double>(points.size())},
                  {"trials", static_cast<double>(trials_total)}};
      e.wall_ms = m.wall_ms;
      e.events_per_sec = m.events_per_sec;  // completed trials per second
      report.add(std::move(e));
      table.add_row({"sweep_sched", name, Table::num(points.size()),
                     Table::num(trials_total), Table::num(m.reps),
                     Table::num(m.wall_ms, 3), Table::num(0),
                     Table::num(m.events_per_sec)});
    };
    const Measurement sequential = measure(
        [&](int) {
          std::uint64_t done = 0;
          for (const SweepPoint& p : points) {
            done += run_supervised_sweep(p.scenario, sup).records.size();
          }
          return done;
        },
        0.3, 6, 0);
    add_sched("sequential_points", sequential);
    const Measurement pipelined = measure(
        [&](int) {
          std::uint64_t done = 0;
          for (const SweepResult& r : run_supervised_sweep_points(points, sup)) {
            done += r.records.size();
          }
          return done;
        },
        0.3, 6, 0);
    add_sched("pipelined", pipelined);
    std::printf(
        "\nsweep scheduling: sequential %.3f ms -> pipelined %.3f ms for "
        "%zu points / %zu trials: %.2fx (acceptance bar: >= 1.5x on 8 "
        "cores; %zu pool threads here)\n",
        sequential.wall_ms, pipelined.wall_ms, points.size(), trials_total,
        sequential.wall_ms / pipelined.wall_ms,
        ThreadPool::global().num_threads());
  }

  // Journal commit strategy: N records as N synchronous one-record batches
  // (one flush each) vs the asynchronous group-commit writer (one flush per
  // drained batch).  Same bytes on disk either way; the difference is pure
  // flush amortisation.
  {
    const std::uint64_t n_records = full ? 16384 : 4096;
    Scenario s;
    s.protocol = "one_to_one";
    s.adversary = "full_duel";
    s.budget = 256;
    s.trials = n_records;
    s.seed = seed;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "rcb_bench_m2_journal")
            .string();
    const auto make_record = [](std::uint64_t trial) {
      CheckpointRecord rec;
      rec.trial = trial;
      return rec;
    };
    const auto add_journal = [&](const char* name, const Measurement& m) {
      bench::BenchEntry e;
      e.name = std::string("m2/journal/") + name;
      e.config = {{"records", static_cast<double>(n_records)}};
      e.wall_ms = m.wall_ms;
      e.events_per_sec = m.events_per_sec;  // records per second
      report.add(std::move(e));
      table.add_row({"journal", name, Table::num(1), Table::num(n_records),
                     Table::num(m.reps), Table::num(m.wall_ms, 3),
                     Table::num(0), Table::num(m.events_per_sec)});
    };
    const Measurement per_record = measure(
        [&](int) {
          std::filesystem::remove_all(dir);
          CheckpointWriter w;
          if (!w.create(dir, s).empty()) return std::uint64_t{0};
          for (std::uint64_t t = 0; t < n_records; ++t) {
            if (!w.append_batch({make_record(t)}).empty()) {
              return std::uint64_t{0};
            }
          }
          w.sync();
          w.close();
          return n_records;
        },
        0.3, 8, 0);
    add_journal("per_record_flush", per_record);
    const Measurement group = measure(
        [&](int) {
          std::filesystem::remove_all(dir);
          CheckpointWriter w;
          if (!w.create(dir, s).empty()) return std::uint64_t{0};
          AsyncJournalWriter journal(std::move(w));
          for (std::uint64_t t = 0; t < n_records; ++t) {
            if (!journal.enqueue(make_record(t))) return std::uint64_t{0};
          }
          if (!journal.finish().empty()) return std::uint64_t{0};
          return n_records;
        },
        0.3, 8, 0);
    add_journal("group_commit", group);
    std::filesystem::remove_all(dir);
    std::printf(
        "journal commit: per-record flush %.3f ms -> group commit %.3f ms "
        "per %llu records (%.2fx)\n",
        per_record.wall_ms, group.wall_ms,
        static_cast<unsigned long long>(n_records),
        per_record.wall_ms / group.wall_ms);
  }

  // Shard-journal merge: folding S complete shard journals back into the
  // canonical per-point result is the serial tail of every multi-process
  // sweep, so it must stay cheap relative to the trials it summarises.
  // Setup (spec + journals on disk) happens once; only the merge is timed.
  {
    const std::uint64_t n_trials = full ? 16384 : 4096;
    const std::size_t n_shards = 8;
    Scenario s;
    s.protocol = "one_to_one";
    s.adversary = "full_duel";
    s.budget = 256;
    s.trials = n_trials;
    s.seed = seed;
    const std::string root =
        (std::filesystem::temp_directory_path() / "rcb_bench_m2_shards")
            .string();
    std::filesystem::remove_all(root);
    ShardSpec spec;
    spec.points = {s};
    spec.shards = make_shard_plan({n_trials}, n_shards);
    bool setup_ok = write_shard_spec(root, spec).empty();
    for (std::size_t i = 0; setup_ok && i < spec.shards.size(); ++i) {
      CheckpointWriter w;
      setup_ok = w.create(shard_dir(root, i), s).empty();
      std::vector<CheckpointRecord> batch;
      for (std::uint64_t t = spec.shards[i].begin;
           setup_ok && t < spec.shards[i].end; ++t) {
        CheckpointRecord rec;
        rec.trial = t;
        batch.push_back(rec);
      }
      setup_ok = setup_ok && w.append_batch(batch).empty();
      w.sync();
      w.close();
    }
    const Measurement m = measure(
        [&](int) {
          if (!setup_ok) return std::uint64_t{0};
          const ShardMergeResult r = merge_shard_journals(root, spec);
          return r.ok ? static_cast<std::uint64_t>(r.points[0].records.size())
                      : std::uint64_t{0};
        },
        0.3, 8, 0);
    bench::BenchEntry e;
    e.name = "m2/shard/merge";
    e.config = {{"shards", static_cast<double>(spec.shards.size())},
                {"trials", static_cast<double>(n_trials)}};
    e.wall_ms = m.wall_ms;
    e.events_per_sec = m.events_per_sec;  // merged trial records per second
    report.add(std::move(e));
    table.add_row({"shard", "merge", Table::num(spec.shards.size()),
                   Table::num(n_trials), Table::num(m.reps),
                   Table::num(m.wall_ms, 3), Table::num(0),
                   Table::num(m.events_per_sec)});
    std::filesystem::remove_all(root);
    std::printf(
        "shard merge: %.3f ms to fold %zu shard journals / %llu records "
        "(%.0f records/sec)\n",
        m.wall_ms, spec.shards.size(),
        static_cast<unsigned long long>(n_trials), m.events_per_sec);
  }

  // Worker dispatch overhead through the two connection origins of the
  // worker transport: a sweep of trivially small shards (one cheap trial
  // each) makes the per-shard dispatch cost the dominant term — the
  // assign/complete/ack round trips over a spawned worker's socketpair vs
  // over an attached worker's loopback TCP connection, plus starting the
  // two workers.
  {
    const std::size_t n_shards = 8;
    Scenario s;
    s.protocol = "one_to_one";
    s.adversary = "full_duel";
    s.budget = 64;
    s.trials = n_shards;  // one trial per shard
    s.seed = seed;
    ShardSpec spec;
    spec.worker_threads = 1;
    spec.heartbeat_interval_sec = 0.02;
    spec.points = {s};
    spec.shards = make_shard_plan({n_shards}, n_shards);
    const std::string root =
        (std::filesystem::temp_directory_path() / "rcb_bench_m2_dispatch")
            .string();
    const auto run_dispatch = [&](bool attached) -> std::uint64_t {
      std::filesystem::remove_all(root);
      CoordinatorOptions opt;
      opt.root = root;
      opt.lease_timeout_sec = 5.0;
      opt.worker_argv = [&root](std::size_t index) {
        return std::vector<std::string>{"/proc/self/exe",
                                        "--rcb_dispatch_worker", root,
                                        std::to_string(index)};
      };
      std::vector<pid_t> pids;
      if (attached) {
        // Two --attach workers started once the listener is bound, from
        // the coordinator's thread (PR_SET_PDEATHSIG follows it).
        opt.workers = 0;
        opt.listen = "127.0.0.1:0";
        opt.on_listen = [&pids](std::uint16_t port) {
          for (int i = 0; i < 2; ++i) {
            pid_t pid = -1;
            int conn = -1;
            if (spawn_worker_process(
                    {"/proc/self/exe", "--rcb_dispatch_attach",
                     "127.0.0.1:" + std::to_string(port)},
                    pid, conn)
                    .empty()) {
              close(conn);
              pids.push_back(pid);
            }
          }
        };
      } else {
        opt.workers = 2;
      }
      const CoordinatorResult r = run_shard_coordinator(spec, opt);
      for (const pid_t pid : pids) {
        if (!r.ok) kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
      }
      return r.ok ? static_cast<std::uint64_t>(spec.shards.size()) : 0;
    };
    const auto add_dispatch = [&](const char* name, const Measurement& m) {
      bench::BenchEntry e;
      e.name = std::string("m2/shard/dispatch/") + name;
      e.config = {{"shards", static_cast<double>(n_shards)}, {"workers", 2}};
      e.wall_ms = m.wall_ms;
      e.events_per_sec = m.events_per_sec;  // shard dispatches per second
      report.add(std::move(e));
      table.add_row({"shard", std::string("dispatch_") + name, Table::num(2),
                     Table::num(n_shards), Table::num(m.reps),
                     Table::num(m.wall_ms, 3), Table::num(0),
                     Table::num(m.events_per_sec)});
    };
    const Measurement spawned =
        measure([&](int) { return run_dispatch(false); }, 0.2, 4, 0);
    add_dispatch("spawned", spawned);
    const Measurement attached =
        measure([&](int) { return run_dispatch(true); }, 0.2, 4, 0);
    add_dispatch("attached", attached);
    std::filesystem::remove_all(root);
    std::printf(
        "worker dispatch: spawned %.3f ms vs attached over loopback TCP "
        "%.3f ms for %zu shards / 2 workers (%.2fx)\n",
        spawned.wall_ms, attached.wall_ms, n_shards,
        attached.wall_ms / spawned.wall_ms);
  }

  table.print(std::cout);
  if (dense_at_accept > 0 && event_at_accept > 0) {
    // Machine-readable speedup ratio (dimensionless, carried in the
    // slots_per_sec field) so tools/bench_compare can gate on it directly
    // instead of the ratio being recomputed by hand from two entries.
    bench::BenchEntry e;
    e.name = "m2/speedup/event_vs_dense";
    e.config = {{"n", static_cast<double>(accept_n)},
                {"slots", static_cast<double>(accept_slots)}};
    e.slots_per_sec = event_at_accept / dense_at_accept;
    report.add(std::move(e));
    std::printf(
        "\nslotwise speedup (event-driven vs dense) at n=%u, slots=2^20: "
        "%.1fx (acceptance bar: >= 5x)\n",
        accept_n, event_at_accept / dense_at_accept);
  }
  report.write_json(out_path);
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) {
  // Internal worker re-entry modes: the dispatch bench's coordinators
  // spawn this binary as their own workers, or start it as attached ones.
  if (argc == 4 && std::string(argv[1]) == "--rcb_dispatch_worker") {
    return rcb::run_shard_worker(argv[2],
                                 static_cast<std::size_t>(std::atoi(argv[3])));
  }
  if (argc == 3 && std::string(argv[1]) == "--rcb_dispatch_attach") {
    rcb::AttachWorkerOptions opt;
    if (!rcb::parse_host_port(argv[2], opt.host, opt.port).empty()) return 2;
    opt.give_up_sec = 20.0;
    return rcb::run_attached_worker(opt);
  }
  rcb::FlagSet flags(
      "bench_m2_engine_scaling: channel-engine throughput sweep; emits "
      "BENCH_m2.json for tools/bench_compare");
  flags.add_string("out", "BENCH_m2.json", "output path for the JSON report");
  flags.add_bool("full", false,
                 "expand the grid to n=4096 and slots=2^22 (event-driven "
                 "engines only; several minutes)");
  flags.add_int("seed", 7, "master seed for the per-cell RNG streams");
  if (!flags.parse(argc, argv)) return 1;
  rcb::run_bench(flags.get_bool("full"), flags.get_string("out"),
                 static_cast<std::uint64_t>(flags.get_int("seed")));
  return 0;
}
