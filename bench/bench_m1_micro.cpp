// M1 — simulator micro-benchmarks (google-benchmark).
//
// Establishes the raw throughput of the RNG, the sparse slot sampler, and
// the channel engines, and quantifies the event-driven engines' advantage
// over the dense per-slot reference (the ablation DESIGN.md §4 calls out).
//
// Besides the usual console table, the run is captured into BENCH_m1.json
// (override with --rcb_out=<path>) in the bench_util.hpp schema so that
// tools/bench_compare can diff two runs; tools/ci.sh uses this to gate perf
// against bench/baselines/BENCH_m1_baseline.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/thread_pool.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniformDouble(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_double());
}
BENCHMARK(BM_RngUniformDouble);

void BM_SparseSampler(benchmark::State& state) {
  const auto slots = static_cast<SlotCount>(state.range(0));
  const double p = 1e-3;
  Rng rng(3);
  std::vector<SlotIndex> out;
  for (auto _ : state) {
    sample_bernoulli_slots(slots, p, rng, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["slots_per_sec"] = benchmark::Counter(
      static_cast<double>(slots) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseSampler)->Range(1 << 10, 1 << 20);

std::vector<NodeAction> make_actions(int n, double total_rate) {
  std::vector<NodeAction> actions;
  for (int u = 0; u < n; ++u) {
    actions.push_back(NodeAction{total_rate / n, Payload::kMessage,
                                 2.0 * total_rate / n});
  }
  return actions;
}

/// Never jams, needs no history (the cheapest adaptive adversary).
using Passive = McNoJam;

/// Jams iff the previous slot carried a transmission (1-slot lookback).
class Reactive final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    // Only the run's first slot can see a transmission in its lookback.
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }
};

void set_engine_counters(benchmark::State& state, SlotCount slots,
                         double total_events) {
  state.counters["slots_per_sec"] = benchmark::Counter(
      static_cast<double>(slots) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["events_per_sec"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
}

void BM_BatchEngine(benchmark::State& state) {
  const auto slots = static_cast<SlotCount>(state.range(0));
  const int n = 32;
  // Constant expected activity per phase, as in the protocols.
  const auto actions = make_actions(n, 64.0 / static_cast<double>(slots));
  Rng rng(4);
  const JamSchedule jam = JamSchedule::blocking_fraction(slots, 0.5);
  double events = 0;
  for (auto _ : state) {
    auto r = run_repetition(slots, actions, jam, rng);
    for (const auto& o : r.obs) {
      events += static_cast<double>(o.sends + o.listens);
    }
    benchmark::DoNotOptimize(r.obs.data());
  }
  set_engine_counters(state, slots, events);
}
BENCHMARK(BM_BatchEngine)->Range(1 << 10, 1 << 20);

// Layer split of the batch engine on the engine-call shape of Fig. 2
// broadcast (perfbench's broadcast_budget averages ~2.1k events per call):
// the sweep costs BM_BatchEngine/broadcast minus BM_PresamplePhase/2048,
// and the sort inside the presample costs about BM_SortEventKeys/2048.
constexpr SlotCount kBroadcastSlots = SlotCount{1} << 20;

/// 32 nodes, about `events` sends and listens per call, one send per 32
/// listens; the even nodes know m.
std::vector<NodeAction> broadcast_actions(double events) {
  const double per_node =
      events / (32.0 * static_cast<double>(kBroadcastSlots));
  std::vector<NodeAction> actions;
  for (int u = 0; u < 32; ++u) {
    actions.push_back(NodeAction{
        per_node / 33.0, u % 2 == 0 ? Payload::kMessage : Payload::kNoise,
        per_node * 32.0 / 33.0});
  }
  return actions;
}

void BM_PresamplePhase(benchmark::State& state) {
  const auto actions = broadcast_actions(static_cast<double>(state.range(0)));
  Rng rng(9);
  EngineWorkspace& ws = engine_workspace();
  double events = 0;
  for (auto _ : state) {
    const EngineWorkspace::PhaseScope scope(ws);
    engine_kernels::presample_phase(kBroadcastSlots, actions, rng, ws,
                                    nullptr);
    events += static_cast<double>(ws.events.size());
    benchmark::DoNotOptimize(ws.events.data());
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PresamplePhase)->Arg(1 << 11)->Arg(1 << 17);

void BM_BatchEngineBroadcast(benchmark::State& state) {
  const auto actions = broadcast_actions(2112.0);
  Rng rng(9);
  const JamSchedule jam = JamSchedule::blocking_fraction(kBroadcastSlots, 0.9);
  double events = 0;
  for (auto _ : state) {
    auto r = run_repetition(kBroadcastSlots, actions, jam, rng);
    for (const auto& o : r.obs) {
      events += static_cast<double>(o.sends + o.listens);
    }
    benchmark::DoNotOptimize(r.obs.data());
  }
  set_engine_counters(state, kBroadcastSlots, events);
}
BENCHMARK(BM_BatchEngineBroadcast)->Name("BM_BatchEngine/broadcast");

void BM_SortEventKeys(benchmark::State& state) {
  // Presample-shaped input: 32 nodes, each one sorted send run then one
  // sorted listen run, about range(0) keys over a sparse 2^24-slot phase.
  const auto target = static_cast<double>(state.range(0));
  const SlotCount slots = SlotCount{1} << 24;
  const auto actions =
      make_actions(32, target / (3.0 * static_cast<double>(slots)));
  Rng rng(7);
  std::vector<std::uint64_t> presampled;
  std::vector<SlotIndex> fired;
  for (NodeId u = 0; u < actions.size(); ++u) {
    for (const bool listen : {false, true}) {
      sample_bernoulli_slots(
          slots, listen ? actions[u].listen_prob : actions[u].send_prob, rng,
          fired);
      for (SlotIndex s : fired) {
        presampled.push_back(event_key::pack(s, 0, listen, u));
      }
    }
  }
  std::vector<std::uint64_t> keys(presampled.size());
  // presample_phase takes the bounds from its runs; here they are fixed.
  const auto [lo, hi] =
      std::minmax_element(presampled.begin(), presampled.end());
  Arena arena;
  for (auto _ : state) {
    std::copy(presampled.begin(), presampled.end(), keys.begin());
    engine_kernels::sort_event_keys(keys, *lo, *hi, arena);
    benchmark::DoNotOptimize(keys.data());
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(keys.size()) *
                             static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SortEventKeys)->Arg(1 << 11)->Arg(1 << 17);

template <typename Adversary>
void BM_SlotwiseEngine(benchmark::State& state) {
  const auto slots = static_cast<SlotCount>(state.range(0));
  const int n = 32;
  const auto actions = make_actions(n, 64.0 / static_cast<double>(slots));
  Adversary adversary;
  Rng rng(5);
  double events = 0;
  for (auto _ : state) {
    auto r = run_repetition_slotwise_mc(slots, actions, ChannelPlan{1, {}},
                                        adversary, rng);
    events += static_cast<double>(r.event_count);
    benchmark::DoNotOptimize(r.rep.obs.data());
  }
  set_engine_counters(state, slots, events);
}
BENCHMARK(BM_SlotwiseEngine<Passive>)->Range(1 << 10, 1 << 20);
BENCHMARK(BM_SlotwiseEngine<Reactive>)->Range(1 << 10, 1 << 20);

void BM_SlotwiseEngineDense(benchmark::State& state) {
  const auto slots = static_cast<SlotCount>(state.range(0));
  const int n = 32;
  const auto actions = make_actions(n, 64.0 / static_cast<double>(slots));
  Passive adversary;
  Rng rng(6);
  double events = 0;
  for (auto _ : state) {
    auto r = run_repetition_slotwise_mc_dense(slots, actions,
                                              ChannelPlan{1, {}}, adversary,
                                              rng);
    events += static_cast<double>(r.event_count);
    benchmark::DoNotOptimize(r.rep.obs.data());
  }
  set_engine_counters(state, slots, events);
}
BENCHMARK(BM_SlotwiseEngineDense)->Range(1 << 10, 1 << 16);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Pure dispatch overhead: 1024 single-iteration chunks whose bodies do
  // almost nothing, so the submit/steal/wake path dominates.  This is the
  // cost the Task small-buffer path (vs one std::function heap allocation
  // per chunk) is meant to shrink.
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    parallel_for_chunks(
        pool, 0, 1024,
        [&](std::size_t lo, std::size_t) { sink.fetch_add(lo + 1); }, 1);
  }
  benchmark::DoNotOptimize(sink.load());
  state.counters["events_per_sec"] = benchmark::Counter(
      1024.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

void BM_BroadcastNoJam(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const BroadcastNParams params = BroadcastNParams::sim();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    NoJamAdversary adv;
    Rng rng(seed++);
    auto r = run_broadcast_n(n, params, adv, rng);
    benchmark::DoNotOptimize(r.max_cost);
  }
}
BENCHMARK(BM_BroadcastNoJam)->Arg(8)->Arg(32)->Arg(128);

/// A one_to_one point with every fault knob set, so each double field of
/// the scenario codec takes the full "%.17g" path.
Scenario codec_scenario(std::uint64_t seed) {
  Scenario s;
  s.protocol = "one_to_one";
  s.eps = 0.01;
  s.trials = 50000;
  s.seed = seed;
  s.faults.seed = seed + 1;
  s.faults.loss_rate = 0.05;
  s.faults.corruption_rate = 0.01;
  s.faults.clock_skew_rate = 0.001;
  return s;
}

/// The renderer: two scenarios that differ only in `seed` alternate, so
/// every call misses scenario_to_json's per-thread memo.
void BM_ScenarioToJson(benchmark::State& state) {
  const Scenario a = codec_scenario(1);
  Scenario b = a;
  b.seed = 2;
  bool flip = false;
  for (auto _ : state) {
    const std::string json = scenario_to_json(flip ? b : a);
    flip = !flip;
    benchmark::DoNotOptimize(json.data());
  }
}
BENCHMARK(BM_ScenarioToJson);

/// The memo hit a sweep's trials take: the same scenario every call.
void BM_ScenarioToJsonMemoHit(benchmark::State& state) {
  const Scenario s = codec_scenario(1);
  for (auto _ : state) {
    const std::string json = scenario_to_json(s);
    benchmark::DoNotOptimize(json.data());
  }
}
BENCHMARK(BM_ScenarioToJsonMemoHit)->Name("BM_ScenarioToJson/memo_hit");

/// One whole trial at perfbench duel_sharded's eps = 0.01 point (Fig. 1,
/// no adversary, 64 slots): protocol work plus run_scenario_trial's own
/// validation, repro scope and digest.
void BM_ScenarioTrial(benchmark::State& state) {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "none";
  s.eps = 0.01;
  s.trials = 50000;
  std::uint64_t trial = 0;
  for (auto _ : state) {
    const TrialOutcome out = run_scenario_trial(s, trial);
    trial = (trial + 1) % s.trials;
    benchmark::DoNotOptimize(out.digest);
  }
}
BENCHMARK(BM_ScenarioTrial)->Name("BM_ScenarioTrial/one_to_one");

/// One journal record: the payload of a real trial's outcome, encoded
/// (journal_record_payload) or decoded (the strict reader).
void BM_JournalRecordCodec(benchmark::State& state, bool decode) {
  const Scenario s = codec_scenario(1);
  CheckpointRecord rec;
  rec.trial = 12345;
  rec.outcome = run_scenario_trial(s, rec.trial);
  const std::uint64_t dig = scenario_digest(s);
  const std::string payload = journal_record_payload(rec, dig);
  CheckpointRecord out;
  std::uint64_t out_dig = 0;
  for (auto _ : state) {
    if (decode) {
      const std::string err =
          parse_journal_record_payload(payload, out, out_dig);
      benchmark::DoNotOptimize(err.data());
      benchmark::DoNotOptimize(out.outcome.digest);
    } else {
      const std::string encoded = journal_record_payload(rec, dig);
      benchmark::DoNotOptimize(encoded.data());
    }
  }
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK_CAPTURE(BM_JournalRecordCodec, v2_encode, false);
BENCHMARK_CAPTURE(BM_JournalRecordCodec, v2_decode, true);

/// Console reporter that additionally captures per-iteration runs so main()
/// can convert them into the bench_util.hpp JSON schema.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& r : reports) {
      if (r.run_type == Run::RT_Iteration && !r.error_occurred) {
        runs_.push_back(r);
      }
    }
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

double counter_or_zero(const benchmark::UserCounters& counters,
                       const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) {
  // Strip our own flag before handing argv to google-benchmark.
  std::string out_path = "BENCH_m1.json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    constexpr const char kOutFlag[] = "--rcb_out=";
    if (std::strncmp(argv[i], kOutFlag, sizeof kOutFlag - 1) == 0) {
      out_path = argv[i] + sizeof kOutFlag - 1;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  rcb::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  rcb::bench::BenchReport report("m1");
  for (const auto& r : reporter.runs()) {
    rcb::bench::BenchEntry e;
    e.name = r.benchmark_name();
    const double iters =
        r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
    e.wall_ms = r.real_accumulated_time / iters * 1e3;
    e.slots_per_sec = rcb::counter_or_zero(r.counters, "slots_per_sec");
    e.events_per_sec = rcb::counter_or_zero(r.counters, "events_per_sec");
    report.add(std::move(e));
  }
  return report.write_json(out_path) ? 0 : 1;
}
