#include "workload.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>

#include "rcb/stats/regression.hpp"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

void tally(SweepRun& run, const std::vector<rcb::Scenario>& points) {
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const rcb::tools::SimAggregate& agg = run.points[i];
    const auto completed = static_cast<double>(agg.completed_trials);
    run.digests.push_back(agg.aggregate_digest);
    run.attempted += points[i].trials;
    run.failed += points[i].trials - agg.completed_trials;
    run.failed += static_cast<std::size_t>(
        std::llround((agg.timed_out_rate + agg.failed_rate) * completed));
    run.events += events_from_mean_cost(agg.mean_cost.mean * completed,
                                        cost_nodes(points[i]));
    if (!agg.valid) {
      run.ok = false;
      if (run.error.empty()) {
        run.error = "point " + std::to_string(i) + ": " + agg.error;
      }
    }
  }
}

}  // namespace

void fit_points(const WorkloadConfig& w,
                const std::vector<rcb::tools::SimAggregate>& aggs) {
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const double x =
        w.sweep == "budget" ? aggs[i].adversary_cost.mean : w.values[i];
    const double y = aggs[i].max_cost.mean;
    if (x > 0.0 && y > 0.0) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  if (xs.size() >= 2) (void)rcb::fit_power_law(xs, ys);
}

double SweepRun::setup_s() const {
  if (recorded.first_start_ns == 0) return 0.0;
  return (recorded.first_start_ns - setup_begin_ns) * 1e-9 - setup_fsync_s();
}

double SweepRun::setup_fsync_s() const {
  if (recorded.first_start_ns == 0) return 0.0;
  return covered_ns(setup_fsyncs, setup_begin_ns, recorded.first_start_ns) *
         1e-9;
}

std::uint32_t cost_nodes(const rcb::Scenario& s) {
  return s.is_duel() ? 2u : s.n;
}

double SweepRun::peak_rss_mb(std::size_t workers) const {
  std::vector<std::int64_t> peaks = worker_peak_rss_kb;
  std::sort(peaks.begin(), peaks.end(), std::greater<>());
  peaks.resize(std::min(peaks.size(), workers));
  std::int64_t kb = peak_rss_kb;
  for (std::int64_t p : peaks) kb += p;
  return static_cast<double>(kb) / 1024.0;
}

std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

void reset_peak_rss() {
  // Hand memory freed by earlier sweeps back first, so the peak does not
  // depend on what ran before; "5" then resets the peak resident set to
  // the current one (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::vector<std::string> journal_dirs(const std::string& root) {
  std::vector<std::string> dirs;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->path().filename() == rcb::kCheckpointJournalFile) {
      dirs.push_back(it->path().parent_path().string());
    }
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

SweepRun run_sweep(const WorkloadConfig& w,
                   const std::vector<rcb::Scenario>& points,
                   const std::string& work_dir, bool sharded,
                   std::size_t threads, TraceMode mode) {
  SweepRun run;
  run.threads = threads;
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  if (ec) {
    run.error = "cannot create " + work_dir + ": " + ec.message();
    return run;
  }
  // Commit the previous sweep's deletions and journals before timing, and
  // give the device a moment to drain the flush: otherwise this sweep's
  // checkpoint fsyncs (most of setup_s) queue behind them.
  if (const int fd = open(work_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    syncfs(fd);
    close(fd);
  }
  usleep(20000);
  run.journal_root = work_dir + "/journal";
  rcb::SupervisorOptions sup;

  if (sharded) {
    const std::string span_dir = work_dir + "/spans";
    fs::create_directories(span_dir, ec);
    setenv(kSpanDirEnv, span_dir.c_str(), 1);
    setenv(kTraceModeEnv, std::to_string(static_cast<int>(mode)).c_str(), 1);
    reset_peak_rss();
    clear_fsync_log();
    const double cpu0 = cpu_seconds();
    run.setup_begin_ns = now_ns();
    run.start_ns = run.setup_begin_ns;
    const rcb::tools::ShardedSweepOutcome out = rcb::tools::run_sweep_sharded(
        points, sup, run.journal_root, w.workers,
        static_cast<int>(w.worker_threads));
    run.return_ns = now_ns();
    if (out.ok) fit_points(w, out.points);
    run.end_ns = now_ns();
    run.cpu_s = cpu_seconds() - cpu0;
    run.peak_rss_kb = peak_rss_kb();
    unsetenv(kSpanDirEnv);
    unsetenv(kTraceModeEnv);
    run.ok = out.ok;
    run.error = out.error;
    run.shards = out.shards_completed;
    run.worker_restarts = out.worker_restarts;
    run.points = out.points;
    for (const auto& entry : fs::directory_iterator(span_dir, ec)) {
      RecorderData worker;
      if (!load_recorder(entry.path().string(), worker)) {
        run.ok = false;
        run.error = "unreadable worker trace " + entry.path().string();
        continue;
      }
      for (auto& win : worker.windows) {
        win.threads = static_cast<std::int64_t>(w.worker_threads);
      }
      run.worker_peak_rss_kb.push_back(worker.peak_rss_kb);
      run.recorded.merge(worker);
    }
    run.setup_fsyncs = run.recorded.setup_fsyncs;
    for (const Interval& iv : fsync_log()) {
      if (iv.end_ns <= run.recorded.first_start_ns) {
        run.setup_fsyncs.push_back(iv);
      }
    }
  } else {
    std::vector<rcb::SweepPoint> sweep_points(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      sweep_points[i].scenario = points[i];
      sweep_points[i].checkpoint_dir =
          run.journal_root + "/point_" + std::to_string(i);
    }
    Recorder recorder(mode);
    reset_peak_rss();
    clear_fsync_log();
    const double cpu0 = cpu_seconds();
    run.setup_begin_ns = now_ns();
    rcb::ThreadPool pool(threads);
    run.start_ns = now_ns();
    const std::vector<rcb::SweepResult> results =
        rcb::run_supervised_sweep_points(sweep_points, sup, pool,
                                         recorder.runner());
    run.return_ns = now_ns();
    for (const rcb::SweepResult& r : results) {
      run.points.push_back(rcb::tools::aggregate_from_sweep(r));
    }
    fit_points(w, run.points);
    run.end_ns = now_ns();
    run.cpu_s = cpu_seconds() - cpu0;
    run.peak_rss_kb = peak_rss_kb();
    run.ok = true;
    run.recorded = recorder.data(static_cast<std::int64_t>(threads));
    run.setup_fsyncs = run.recorded.setup_fsyncs;
  }
  if (run.ok) tally(run, points);
  return run;
}

int shard_worker_main(const std::string& root, std::size_t shard_id) {
  const char* dir = std::getenv(kSpanDirEnv);
  const char* mode_text = std::getenv(kTraceModeEnv);
  const auto mode = static_cast<TraceMode>(
      mode_text != nullptr ? std::atoi(mode_text) : 0);
  Recorder recorder(mode);
  const int rc = rcb::run_shard_worker(root, shard_id, recorder.runner());
  if (dir != nullptr) {
    const std::string path = std::string(dir) + "/worker_" +
                             std::to_string(shard_id) + "_" +
                             std::to_string(getpid()) + ".bin";
    RecorderData data = recorder.data(0);
    data.peak_rss_kb = peak_rss_kb();
    if (!dump_recorder(data, path)) return 1;
  }
  return rc;
}

}  // namespace perfbench
