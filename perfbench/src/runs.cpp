#include "runs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "metrics.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "workload.hpp"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
/// The traced run alternates untraced and layered sweeps for this many
/// rounds (at least; more while --seconds last).
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 9;
/// Layer self times may undershoot zero by this share of the traced wall
/// (clock jitter on derived layers) before the split counts as wrong.
constexpr double kNegativeSlack = 0.01;
/// The ROADMAP's e2e accounting bar: the real-work layers of a traced
/// sweep account for the untraced wall to within 10%.
constexpr double kLayerSumTolerance = 0.10;

class Checker {
 public:
  explicit Checker(RunReport& report) : report_(report) {}
  bool operator()(bool ok, const std::string& what) {
    if (!ok) {
      report_.correct = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }

 private:
  RunReport& report_;
};

std::string hex_list(const std::vector<std::uint64_t>& digests) {
  std::string out;
  for (std::uint64_t d : digests) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, d);
    out += (out.empty() ? "" : ",") + std::string(buf);
  }
  return out;
}

/// Journal records of a finished sweep, one trial-sorted list per point,
/// with the time load_checkpoint took over every journal directory.
struct LoadedJournals {
  bool ok = true;
  std::string error;
  std::vector<std::vector<rcb::CheckpointRecord>> points;
  std::uint64_t bytes = 0;
  double load_s = 0.0;
};

LoadedJournals load_journals(const std::string& root,
                             const std::vector<rcb::Scenario>& points) {
  LoadedJournals out;
  out.points.resize(points.size());
  const std::vector<std::string> dirs = journal_dirs(root);
  std::vector<rcb::CheckpointLoadResult> loaded;
  const std::int64_t t0 = now_ns();
  for (const std::string& dir : dirs) {
    loaded.push_back(rcb::load_checkpoint(dir));
  }
  out.load_s = (now_ns() - t0) * 1e-9;
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    std::error_code ec;
    out.bytes += fs::file_size(
        fs::path(dirs[i]) / rcb::kCheckpointJournalFile, ec);
    if (!loaded[i].ok) {
      out.ok = false;
      out.error = dirs[i] + ": " + loaded[i].error;
      continue;
    }
    const auto point = std::find_if(
        points.begin(), points.end(), [&](const rcb::Scenario& s) {
          return rcb::scenario_digest(s) == loaded[i].scenario_digest;
        });
    if (point == points.end()) {
      out.ok = false;
      out.error = dirs[i] + ": journal of an unknown sweep point";
      continue;
    }
    auto& records = out.points[point - points.begin()];
    records.insert(records.end(), loaded[i].records.begin(),
                   loaded[i].records.end());
  }
  for (auto& records : out.points) {
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) { return a.trial < b.trial; });
  }
  return out;
}

/// aggregate_from_sweep plus the power-law fit over journaled records —
/// the stats work of a sweep, timed on its own.
double time_aggregation(const WorkloadConfig& w,
                        const LoadedJournals& journals) {
  const std::int64_t t0 = now_ns();
  std::vector<rcb::tools::SimAggregate> aggs;
  for (const auto& records : journals.points) {
    rcb::SweepResult sweep;
    sweep.ok = true;
    sweep.records = records;
    sweep.aggregate_digest = rcb::aggregate_digest(sweep.records);
    aggs.push_back(rcb::tools::aggregate_from_sweep(sweep));
  }
  fit_points(w, aggs);
  return (now_ns() - t0) * 1e-9;
}

std::int64_t last_span_end(const RecorderData& d) {
  std::int64_t last = 0;
  for (const Span& s : d.spans) last = std::max(last, s.end_ns);
  return last;
}

/// Wall-equivalent seconds per layer of one traced sweep: thread time
/// inside the trial window divided by the trial threads, plus the serial
/// phases before the first trial and after the last.
struct LayerSplit {
  double runtime = 0.0;     ///< pool gaps: scheduling, bookkeeping, idle
  double scenario = 0.0;    ///< run_scenario_trial around the protocol
  double protocols = 0.0;
  double adversary = 0.0;
  double sim = 0.0;
  double checkpoint = 0.0;  ///< journal setup and drain
  double transport = 0.0;   ///< worker start-up and shard hand-over
  double stats = 0.0;
  double trace = 0.0;       ///< trace-only work: replays, captures, clocks
  // Thread-nanosecond totals behind the in-trial layers.
  double adversary_mask_ns = 0.0;
  double adversary_bulk_ns = 0.0;
  double sim_thread_ns = 0.0;
  double scenario_thread_ns = 0.0;

  double sum() const {
    return runtime + scenario + protocols + adversary + sim + checkpoint +
           transport + stats + trace;
  }
};

LayerSplit split_layers(const rcb::Scenario& proto, const SweepRun& run,
                        double stats_post_s) {
  LayerSplit split;
  const RecorderData& d = run.recorded;
  const LayerCounters& c = d.counters;
  const double threads = static_cast<double>(run.threads);
  // A sampled call family: the mean timed call minus the mean control span
  // at the same site, scaled to every call; its clocks cost two reads, about
  // two control spans, per timed call and per control span.
  struct Sampled {
    double net_ns = 0.0;
    double clock_ns = 0.0;
  };
  const auto sampled = [](std::int64_t timed_ns, std::int64_t timed,
                          std::int64_t control_ns, std::int64_t control,
                          std::int64_t calls) {
    Sampled out;
    if (timed == 0 || control == 0) return out;
    const double span = static_cast<double>(control_ns) / control;
    const double per_call = static_cast<double>(timed_ns) / timed - span;
    out.net_ns = std::max(per_call, 0.0) * static_cast<double>(calls);
    out.clock_ns = 2.0 * span * static_cast<double>(timed + control);
    return out;
  };
  const Sampled mask = sampled(c.mask_timed_ns, c.mask_timed,
                               c.mask_control_ns, c.mask_control, c.mask_calls);
  const Sampled bulk = sampled(c.bulk_timed_ns, c.bulk_timed,
                               c.bulk_control_ns, c.bulk_control, c.bulk_calls);
  split.adversary_mask_ns = mask.net_ns;
  split.adversary_bulk_ns = bulk.net_ns;
  const double adversary_ns = static_cast<double>(c.plan_ns) +
                              split.adversary_mask_ns + split.adversary_bulk_ns;
  const std::int64_t mc_calls = c.mask_calls + c.bulk_calls;
  const double decorator_ns =
      mc_calls == 0 ? 0.0
                    : decorator_overhead_ns() * static_cast<double>(mc_calls);
  const double clock_ns = static_cast<double>(c.clock_ns) + mask.clock_ns +
                          bulk.clock_ns + decorator_ns;
  const double protocol_ns = static_cast<double>(c.protocol_ns);
  const double replay_ns = static_cast<double>(c.sim_replay_ns);
  double sim_ns = 0.0;
  double protocols_ns = 0.0;
  if (proto.protocol == "broadcast") {
    // The replay re-executes run_repetition: its time estimates the real
    // engine's share of step(), and is itself trace-only work.
    sim_ns = replay_ns;
    protocols_ns = protocol_ns - adversary_ns - clock_ns - replay_ns;
  } else if (proto.is_multichannel()) {
    // run_mc_broadcast drives the slotwise engine inline: protocol and
    // engine self time are reported together under sim.
    sim_ns = protocol_ns - adversary_ns - clock_ns;
  } else {
    // run_one_to_one calls the engine inside the protocol loop, where it
    // cannot be replayed: engine self time is reported under protocols.
    protocols_ns = protocol_ns - adversary_ns - clock_ns;
  }
  split.sim_thread_ns = sim_ns;
  split.scenario_thread_ns = static_cast<double>(c.trial_ns) - protocol_ns;

  std::int64_t busy_raw = 0;
  for (const Span& s : d.spans) busy_raw += s.end_ns - s.start_ns;
  const std::int64_t first = d.first_start_ns;
  const std::int64_t last = last_span_end(d);
  const double window_ns = static_cast<double>(last - first) * threads;
  double covered_ns = 0.0;  // thread time inside worker-process windows
  for (const auto& win : d.windows) {
    covered_ns += static_cast<double>(win.end_ns - win.begin_ns) *
                  static_cast<double>(win.threads);
  }

  split.scenario = split.scenario_thread_ns / threads * 1e-9;
  split.protocols = protocols_ns / threads * 1e-9;
  split.adversary = adversary_ns / threads * 1e-9;
  split.sim = sim_ns / threads * 1e-9;
  split.trace = (static_cast<double>(c.probe_ns) + clock_ns +
                 (proto.protocol == "broadcast" ? replay_ns : 0.0)) /
                threads * 1e-9;
  split.runtime = (covered_ns - static_cast<double>(busy_raw)) / threads * 1e-9;
  const double setup = (first - run.start_ns) * 1e-9;
  const double drain = (run.return_ns - last) * 1e-9;
  const double after = (run.end_ns - run.return_ns) * 1e-9;
  if (run.shards > 0) {
    // Sharded: start-up before the first trial and the hand-over gaps
    // between worker processes belong to the transport; the drain holds
    // the journal merge and the aggregation done inside run_sweep_sharded.
    split.transport = setup + (window_ns - covered_ns) / threads * 1e-9;
    split.stats = stats_post_s + after;
    split.checkpoint = drain - stats_post_s;
  } else {
    split.checkpoint = setup + drain;
    split.stats = after;
  }
  return split;
}

void add(RunReport& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics.push_back({name, value, unit});
}

/// The pinned-digest gate.  At kDefaultSeed the run's own digests must
/// equal the pins; at any other seed one extra sweep at kDefaultSeed is
/// checked against them.
void check_pins(const WorkloadConfig& w, const RunOptions& opt,
                const std::vector<std::uint64_t>& digests,
                const std::string& work, Checker& check) {
  if (opt.print_digests) return;
  if (!check(!w.pinned_digests.empty(), w.name + " has no pinned digests")) {
    return;
  }
  std::vector<std::uint64_t> at_default = digests;
  if (opt.seed != kDefaultSeed) {
    const SweepRun gate = run_sweep(w, make_points(w, kDefaultSeed), work,
                                    w.sharded, trial_threads(w),
                                    TraceMode::kFirstStart);
    if (!check(gate.ok, "default-seed sweep: " + gate.error)) return;
    at_default = gate.digests;
  }
  check(at_default == w.pinned_digests,
        "default-seed digests " + hex_list(at_default) +
            " differ from the pinned " + hex_list(w.pinned_digests));
}

/// One round of the traced run: a layered sweep and the untraced sweeps on
/// either side of it, reduced to what the report needs.
struct Round {
  double base_wall = 0.0;  ///< mean of the two untraced neighbours
  double wall = 0.0;  ///< the layered sweep's
  LayerSplit split;
  LayerCounters counters;
  std::size_t records = 0;
  std::uint64_t bytes = 0;
  double load_s = 0.0;
  double drain_s = 0.0;
  std::size_t shards = 0;
  std::size_t worker_restarts = 0;

  /// Share of the untraced wall the real-work layers leave unexplained.
  double unattributed() const {
    return (base_wall - (split.sum() - split.trace)) / base_wall;
  }
};

}  // namespace

RunReport untraced_run(const WorkloadConfig& w, const RunOptions& opt) {
  RunReport report;
  Checker check(report);
  const std::vector<rcb::Scenario> points = make_points(w, opt.seed);
  const std::size_t threads = trial_threads(w);
  const std::string work = opt.work_dir + "/" + w.name;

  std::vector<std::uint64_t> reference;
  std::vector<double> sweep_s, cpu_s, ns_event, setup_s, fsync_s, rss_mb;
  const std::int64_t start = now_ns();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && (now_ns() - start) * 1e-9 >= opt.seconds) break;
    const SweepRun run =
        run_sweep(w, points, work, w.sharded, threads, TraceMode::kFirstStart);
    report.attempted += run.attempted;
    if (opt.print_digests) {
      std::printf("# digests %s seed %" PRIu64 ": %s\n", w.name.c_str(),
                  opt.seed, hex_list(run.digests).c_str());
    }
    if (reference.empty()) reference = run.digests;
    const bool good =
        check(run.ok, "sweep failed: " + run.error) &&
        check(run.digests == reference,
              "digests " + hex_list(run.digests) +
                  " differ from the reference " + hex_list(reference));
    if (!good) {
      report.failed += run.attempted;
      continue;
    }
    report.failed += run.failed;
    std::printf("# sweep %d: sweep_s %.4f cpu_s %.4f setup_s %.5f "
                "setup_fsync_s %.5f rss %.1f (self %.1f)\n",
                rep, run.sweep_s(), run.cpu_s, run.setup_s(),
                run.setup_fsync_s(), run.peak_rss_mb(w.workers),
                run.peak_rss_kb / 1024.0);
    sweep_s.push_back(run.sweep_s());
    cpu_s.push_back(run.cpu_s);
    ns_event.push_back(ns_per_event(run.sweep_s(), run.events));
    setup_s.push_back(run.setup_s());
    fsync_s.push_back(run.setup_fsync_s());
    rss_mb.push_back(run.peak_rss_mb(w.workers));
  }

  // The remaining checks run after the timed sweeps, so that the memory
  // they leave behind does not shift the timed sweeps' peaks.  If one
  // fails, every timed trial counts as failed.
  const bool timed_ok = report.correct;
  check_pins(w, opt, reference, work, check);
  if (w.sharded) {
    const SweepRun in_process =
        run_sweep(w, points, work, false, threads, TraceMode::kFirstStart);
    check(in_process.ok && in_process.digests == reference,
          "sharded digests " + hex_list(reference) +
              " differ from the in-process " + hex_list(in_process.digests));
  }
  if (timed_ok && !report.correct) report.failed = report.attempted;
  std::error_code ec;
  fs::remove_all(work, ec);

  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  add(report, "sweep_s", median(sweep_s), "s");
  add(report, "cpu_s", median(cpu_s), "s");
  add(report, "ns_per_event", median(ns_event), "ns");
  add(report, "setup_s", median(setup_s), "s");
  add(report, "peak_rss_mb", median(rss_mb), "MiB");
  add(report, "completed_frac", 1.0 - failed_frac, "frac");
  std::printf("# %s: %zu sweeps, failed_frac %.6f, setup fsync median %.6f s\n",
              w.name.c_str(), sweep_s.size(), failed_frac, median(fsync_s));
  return report;
}

RunReport traced_run(const WorkloadConfig& w, const RunOptions& opt) {
  RunReport report;
  Checker check(report);
  const std::vector<rcb::Scenario> points = make_points(w, opt.seed);
  const std::size_t threads = trial_threads(w);
  const std::string work = opt.work_dir + "/" + w.name;
  for (const rcb::Scenario& s : points) {
    if (!check(layers_supported(s), "no layered trace for " + s.protocol)) {
      return report;
    }
  }
  const auto counted = [&report](const SweepRun& run) {
    report.attempted += run.attempted;
    report.failed += run.failed;
  };

  // Untraced and layered sweeps alternate, each layered sweep between two
  // untraced ones, so that host drift hits both alike.  The untraced sweeps
  // give the digests and per-trial records the decorated replica must
  // reproduce; each round's layered split must account for the mean wall
  // of its two untraced neighbours.
  std::vector<std::uint64_t> digests;
  LoadedJournals base_records;
  std::vector<double> setup_fsyncs, setup_fsync_s;
  const auto untraced = [&]() {
    const SweepRun base = run_sweep(w, points, work + "/base", w.sharded,
                                    threads, TraceMode::kFirstStart);
    counted(base);
    check(base.ok, "untraced sweep: " + base.error);
    if (digests.empty()) {
      digests = base.digests;
      base_records = load_journals(base.journal_root, points);
      check(base_records.ok, "baseline journals: " + base_records.error);
    }
    check(base.digests == digests, "untraced sweeps disagree");
    setup_fsyncs.push_back(static_cast<double>(base.setup_fsyncs.size()));
    setup_fsync_s.push_back(base.setup_fsync_s());
    return base.sweep_s();
  };
  std::vector<Round> rounds;
  double before = untraced();
  const std::int64_t start = now_ns();
  for (int r = 0; r < kMaxRounds; ++r) {
    if (r >= kMinRounds && (now_ns() - start) * 1e-9 >= opt.seconds) break;
    const SweepRun layered = run_sweep(w, points, work + "/layers", w.sharded,
                                       threads, TraceMode::kLayers);
    counted(layered);
    check(layered.ok, "layered sweep: " + layered.error);
    check(layered.digests == digests,
          "traced digests " + hex_list(layered.digests) +
              " differ from the untraced " + hex_list(digests));
    const LayerCounters& c = layered.recorded.counters;
    check(c.replay_mismatches == 0,
          std::to_string(c.replay_mismatches) +
              " replayed repetitions charged different costs");
    if (points.front().protocol == "broadcast") {
      check(static_cast<std::uint64_t>(c.sim_events) == layered.events,
            "replayed events " + std::to_string(c.sim_events) +
                " != outcome events " + std::to_string(layered.events));
    }
    const LoadedJournals journals =
        load_journals(layered.journal_root, points);
    check(journals.ok, "traced journals: " + journals.error);
    Round round;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < points.size() && journals.ok && base_records.ok;
         ++i) {
      const auto& traced = journals.points[i];
      const auto& real = base_records.points[i];
      round.records += traced.size();
      if (traced.size() != real.size()) {
        mismatched += std::max(traced.size(), real.size());
        continue;
      }
      for (std::size_t k = 0; k < traced.size(); ++k) {
        const rcb::TrialOutcome& a = traced[k].outcome;
        const rcb::TrialOutcome& b = real[k].outcome;
        mismatched += traced[k].trial != real[k].trial ||
                      a.digest != b.digest ||
                      a.adversary_cost != b.adversary_cost ||
                      a.latency != b.latency;
      }
    }
    check(mismatched == 0, std::to_string(mismatched) +
                               " decorated trials differ from the undecorated");

    const double stats_post = w.sharded ? time_aggregation(w, journals) : 0.0;
    const double after = untraced();
    round.base_wall = 0.5 * (before + after);
    before = after;
    round.wall = layered.sweep_s();
    round.split = split_layers(points.front(), layered, stats_post);
    round.counters = c;
    round.bytes = journals.bytes;
    round.load_s = journals.load_s;
    round.drain_s =
        (layered.return_ns - last_span_end(layered.recorded)) * 1e-9;
    round.shards = layered.shards;
    round.worker_restarts = layered.worker_restarts;
    const std::pair<const char*, double> layers[] = {
        {"runtime", round.split.runtime},
        {"scenario", round.split.scenario},
        {"protocols", round.split.protocols},
        {"adversary", round.split.adversary},
        {"sim", round.split.sim},
        {"checkpoint", round.split.checkpoint},
        {"transport", round.split.transport},
        {"stats", round.split.stats},
        {"trace", round.split.trace}};
    for (const auto& [name, value] : layers) {
      check(value >= -kNegativeSlack * round.wall,
            std::string("layer ") + name + " self time is negative");
    }
    std::printf("# round %d: untraced %.4f s, traced %.4f s, trace self "
                "%.4f s, unattributed %.4f\n",
                r, round.base_wall, round.wall, round.split.trace,
                round.unattributed());
    rounds.push_back(round);
  }
  check_pins(w, opt, digests, work + "/pins", check);

  // Reported split: the round whose unattributed share is the median one.
  std::vector<double> base_walls, walls;
  for (const Round& r : rounds) {
    base_walls.push_back(r.base_wall);
    walls.push_back(r.wall);
  }
  std::sort(rounds.begin(), rounds.end(), [](const Round& a, const Round& b) {
    return a.unattributed() < b.unattributed();
  });
  const Round& mid = rounds[rounds.size() / 2];
  const double median_unattributed = mid.unattributed();
  check(std::abs(median_unattributed) <= kLayerSumTolerance,
        "the real-work layers leave " + std::to_string(median_unattributed) +
            " of the untraced wall unattributed");
  const double base_wall = median(base_walls);

  double in_process_wall = base_wall;
  if (w.sharded) {
    const SweepRun run = run_sweep(w, points, work + "/in_process", false,
                                   threads, TraceMode::kFirstStart);
    check(run.ok && run.digests == digests,
          "sharded digests " + hex_list(digests) +
              " differ from the in-process " + hex_list(run.digests));
    in_process_wall = run.sweep_s();
  }
  const SweepRun single = run_sweep(w, points, work + "/single", false, 1,
                                    TraceMode::kFirstStart);
  check(single.ok && single.digests == digests,
        "single-thread digests differ");

  // Runtime: one span per trial, nothing else recorded.
  const SweepRun spans = run_sweep(w, points, work + "/spans", w.sharded,
                                   threads, TraceMode::kSpans);
  check(spans.ok && spans.digests == digests, "span-run digests differ");
  const PoolStats pool =
      pool_stats(spans.recorded.spans, spans.start_ns, spans.end_ns, threads);
  std::vector<double> trial_us;
  trial_us.reserve(spans.recorded.spans.size());
  for (const Span& s : spans.recorded.spans) {
    trial_us.push_back((s.end_ns - s.start_ns) * 1e-3);
  }
  const Percentile p50 = percentile(trial_us, 50.0);
  const Percentile p99 = percentile(trial_us, 99.0);
  if (!report.correct) report.failed = report.attempted;
  std::error_code ec;
  fs::remove_all(work, ec);

  const LayerSplit& split = mid.split;
  const LayerCounters& c = mid.counters;
  const double wall = mid.wall;
  const double trials =
      static_cast<double>(std::max<std::int64_t>(c.trials, 1));
  const double sim_events = static_cast<double>(c.sim_events);
  add(report, "runtime.trials", static_cast<double>(c.trials), "count");
  add(report, "runtime.retries", static_cast<double>(c.retries), "count");
  add(report, "runtime.trial_busy_s", pool.busy_s, "s");
  add(report, "runtime.pool_util", pool.util, "frac");
  add(report, "runtime.tail_s", pool.tail_s, "s");
  add(report, "runtime.trial_p50_us", p50.value, "us");
  add(report, "runtime.trial_p99_us", p99.value, "us");
  add(report, "runtime.trial_samples", static_cast<double>(p99.samples),
      "count");
  add(report, "runtime.speedup", single.sweep_s() / in_process_wall, "x");
  add(report, "runtime.self_s", split.runtime, "s");
  add(report, "scenario.trial_overhead_us",
      split.scenario_thread_ns / trials * 1e-3, "us");
  add(report, "scenario.self_s", split.scenario, "s");
  add(report, "checkpoint.records", static_cast<double>(mid.records),
      "count");
  add(report, "checkpoint.bytes", static_cast<double>(mid.bytes), "B");
  add(report, "checkpoint.drain_s", mid.drain_s, "s");
  add(report, "checkpoint.load_s", mid.load_s, "s");
  add(report, "checkpoint.setup_fsyncs", median(setup_fsyncs), "count");
  add(report, "checkpoint.setup_fsync_s", median(setup_fsync_s), "s");
  add(report, "checkpoint.self_s", split.checkpoint, "s");
  add(report, "transport.shards", static_cast<double>(mid.shards), "count");
  add(report, "transport.worker_restarts",
      static_cast<double>(mid.worker_restarts), "count");
  add(report, "transport.overhead_s",
      w.sharded ? base_wall - in_process_wall : 0.0, "s");
  add(report, "transport.self_s", split.transport, "s");
  add(report, "stats.aggregate_s", split.stats, "s");
  add(report, "adversary.plan_calls", static_cast<double>(c.plan_calls),
      "count");
  add(report, "adversary.plan_s", static_cast<double>(c.plan_ns) * 1e-9, "s");
  add(report, "adversary.mask_calls", static_cast<double>(c.mask_calls),
      "count");
  add(report, "adversary.mask_s", split.adversary_mask_ns * 1e-9, "s");
  add(report, "adversary.bulk_calls", static_cast<double>(c.bulk_calls),
      "count");
  add(report, "adversary.bulk_s", split.adversary_bulk_ns * 1e-9, "s");
  add(report, "adversary.bulk_answered_frac",
      c.bulk_calls == 0 ? 0.0
                        : static_cast<double>(c.bulk_answered) / c.bulk_calls,
      "frac");
  add(report, "adversary.bulk_slot_frac",
      c.bulk_slots == 0
          ? 0.0
          : static_cast<double>(c.bulk_slots_answered) / c.bulk_slots,
      "frac");
  add(report, "adversary.self_s", split.adversary, "s");
  add(report, "adversary.share", split.adversary / wall, "frac");
  add(report, "sim.calls", static_cast<double>(c.sim_calls), "count");
  add(report, "sim.slots", static_cast<double>(c.sim_slots), "count");
  add(report, "sim.events", sim_events, "count");
  add(report, "sim.events_per_slot",
      c.sim_slots == 0 ? 0.0 : sim_events / c.sim_slots, "1/slot");
  add(report, "sim.self_s", split.sim, "s");
  add(report, "sim.ns_per_event",
      sim_events == 0.0 ? 0.0 : split.sim_thread_ns / sim_events, "ns");
  add(report, "sim.share", split.sim / wall, "frac");
  add(report, "protocols.repetitions", static_cast<double>(c.repetitions),
      "count");
  add(report, "protocols.self_s", split.protocols, "s");
  add(report, "protocols.share", split.protocols / wall, "frac");
  add(report, "trace.overhead_frac", median(walls) / base_wall - 1.0, "frac");
  add(report, "trace.unattributed_frac", median_unattributed, "frac");
  add(report, "trace.self_s", split.trace, "s");
  return report;
}

}  // namespace perfbench
