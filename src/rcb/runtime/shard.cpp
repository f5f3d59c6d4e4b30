#include "rcb/runtime/shard.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/contracts.hpp"
#include "rcb/runtime/retry_io.hpp"

namespace rcb {
namespace {

/// Fetches a required non-negative integer member of the spec object.
std::string get_u64(const JsonValue& obj, const char* key,
                    std::uint64_t& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    return std::string("shard spec: missing numeric \"") + key + "\"";
  }
  if (!json_exact_u64(v->as_number(), out)) {
    return std::string("shard spec: \"") + key +
           "\" must be a non-negative integer no larger than 2^53";
  }
  return "";
}

}  // namespace

std::vector<ShardAssignment> make_shard_plan(
    const std::vector<std::uint64_t>& trials_per_point,
    std::size_t target_shards) {
  if (target_shards == 0) target_shards = 1;
  std::uint64_t total = 0;
  for (const std::uint64_t t : trials_per_point) total += t;
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, (total + target_shards - 1) / target_shards);

  std::vector<ShardAssignment> plan;
  for (std::size_t p = 0; p < trials_per_point.size(); ++p) {
    const std::uint64_t trials = trials_per_point[p];
    if (trials == 0) {
      // Degenerate point: one empty shard so the point still gets a
      // checkpoint dir and the merge sees it as trivially complete.
      plan.push_back({p, 0, 0});
      continue;
    }
    for (std::uint64_t b = 0; b < trials; b += chunk) {
      plan.push_back({p, b, std::min(trials, b + chunk)});
    }
  }
  return plan;
}

std::string validate_shard_spec(const ShardSpec& spec) {
  if (spec.points.empty()) return "shard spec has no points";
  if (spec.shards.empty()) return "shard spec has no shards";
  if (!(spec.heartbeat_interval_sec > 0)) {
    return "shard spec: heartbeat interval must be positive";
  }
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    if (const std::string err = validate_scenario(spec.points[p]);
        !err.empty()) {
      return "shard spec point " + std::to_string(p) + ": " + err;
    }
  }
  // Each point's shards must exactly tile [0, trials): a gap would merge an
  // incomplete sweep, an overlap would double-count trials.
  std::vector<std::vector<ShardAssignment>> by_point(spec.points.size());
  for (std::size_t i = 0; i < spec.shards.size(); ++i) {
    const ShardAssignment& a = spec.shards[i];
    if (a.point >= spec.points.size()) {
      return "shard " + std::to_string(i) + " references unknown point " +
             std::to_string(a.point);
    }
    const std::uint64_t trials = spec.points[a.point].trials;
    if (a.begin > a.end || a.end > trials) {
      return "shard " + std::to_string(i) + " range [" +
             std::to_string(a.begin) + ", " + std::to_string(a.end) +
             ") exceeds point " + std::to_string(a.point) + "'s " +
             std::to_string(trials) + " trials";
    }
    by_point[a.point].push_back(a);
  }
  for (std::size_t p = 0; p < by_point.size(); ++p) {
    std::vector<ShardAssignment>& shards = by_point[p];
    std::sort(shards.begin(), shards.end(),
              [](const ShardAssignment& a, const ShardAssignment& b) {
                return a.begin < b.begin;
              });
    std::uint64_t expect = 0;
    for (const ShardAssignment& a : shards) {
      if (a.begin != expect) {
        return "point " + std::to_string(p) + " shards do not tile [0, " +
               std::to_string(spec.points[p].trials) + "): " +
               (a.begin > expect ? "gap" : "overlap") + " at trial " +
               std::to_string(std::min(a.begin, expect));
      }
      expect = a.end;
    }
    if (expect != spec.points[p].trials) {
      return "point " + std::to_string(p) + " shards cover only " +
             std::to_string(expect) + " of " +
             std::to_string(spec.points[p].trials) + " trials";
    }
  }
  return "";
}

std::string shard_dir(const std::string& root, std::size_t shard_id) {
  return root + "/shard_" + std::to_string(shard_id);
}

std::string shard_spec_path(const std::string& root) {
  return root + "/sweep.json";
}

std::string write_shard_spec(const std::string& root, const ShardSpec& spec) {
  if (const std::string err = validate_shard_spec(spec); !err.empty()) {
    return err;
  }
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) return "cannot create " + root + ": " + ec.message();

  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("rcb_shard_sweep").value(std::int64_t{1});
  w.key("worker_threads").value(static_cast<std::int64_t>(spec.worker_threads));
  w.key("trial_timeout_sec").value(spec.trial_timeout_sec);
  w.key("trial_slot_budget")
      .value(static_cast<std::uint64_t>(spec.trial_slot_budget));
  w.key("max_retries").value(static_cast<std::uint64_t>(spec.max_retries));
  w.key("heartbeat_sec").value(spec.heartbeat_interval_sec);
  // Scenarios travel as JSON *strings* (the canonical scenario codec output,
  // escaped by the writer), so the spec reuses the codec that the manifest
  // digests are keyed on instead of inventing a second scenario schema.
  w.key("points").begin_array();
  for (const Scenario& s : spec.points) w.value(scenario_to_json(s));
  w.end_array();
  w.key("shards").begin_array();
  for (const ShardAssignment& a : spec.shards) {
    w.begin_object();
    w.key("point").value(static_cast<std::uint64_t>(a.point));
    w.key("begin").value(a.begin);
    w.key("end").value(a.end);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return write_file_atomic(shard_spec_path(root), out);
}

ShardSpecLoadResult load_shard_spec(const std::string& root) {
  ShardSpecLoadResult out;
  const std::string path = shard_spec_path(root);
  std::string text;
  out.error = read_file_fully(path, text);
  if (!out.error.empty()) return out;
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    out.error = path + ": " + parsed.error;
    return out;
  }
  const JsonValue& doc = parsed.value;
  std::uint64_t version = 0;
  if (const std::string err = get_u64(doc, "rcb_shard_sweep", version);
      !err.empty()) {
    out.error = err;
    return out;
  }
  if (version != 1) {
    out.error = "shard spec: unsupported version " + std::to_string(version);
    return out;
  }

  std::uint64_t threads = 0, slot_budget = 0, retries = 0;
  std::string err;
  if ((err = get_u64(doc, "worker_threads", threads)).empty() &&
      (err = get_u64(doc, "trial_slot_budget", slot_budget)).empty()) {
    err = get_u64(doc, "max_retries", retries);
  }
  if (!err.empty()) {
    out.error = err;
    return out;
  }
  out.spec.worker_threads = static_cast<int>(threads);
  out.spec.trial_slot_budget = static_cast<SlotCount>(slot_budget);
  out.spec.max_retries = static_cast<std::uint32_t>(retries);
  const JsonValue* timeout = doc.find("trial_timeout_sec");
  if (timeout == nullptr || !timeout->is_number() ||
      timeout->as_number() < 0) {
    out.error = "shard spec: missing numeric \"trial_timeout_sec\"";
    return out;
  }
  out.spec.trial_timeout_sec = timeout->as_number();
  // Optional (older specs lack it); the default matches the historical
  // hard-coded 100ms beat.
  if (const JsonValue* hb = doc.find("heartbeat_sec"); hb != nullptr) {
    if (!hb->is_number() || !(hb->as_number() > 0)) {
      out.error = "shard spec: \"heartbeat_sec\" must be positive";
      return out;
    }
    out.spec.heartbeat_interval_sec = hb->as_number();
  }

  const JsonValue* points = doc.find("points");
  if (points == nullptr || !points->is_array()) {
    out.error = "shard spec: missing \"points\" array";
    return out;
  }
  for (const JsonValue& p : points->as_array()) {
    if (!p.is_string()) {
      out.error = "shard spec: points must be scenario JSON strings";
      return out;
    }
    const ScenarioParseResult sp = scenario_from_json(p.as_string());
    if (!sp.ok) {
      out.error = "shard spec point " +
                  std::to_string(out.spec.points.size()) + ": " + sp.error;
      return out;
    }
    out.spec.points.push_back(sp.scenario);
  }

  const JsonValue* shards = doc.find("shards");
  if (shards == nullptr || !shards->is_array()) {
    out.error = "shard spec: missing \"shards\" array";
    return out;
  }
  for (const JsonValue& sh : shards->as_array()) {
    if (!sh.is_object()) {
      out.error = "shard spec: shards must be objects";
      return out;
    }
    ShardAssignment a;
    std::uint64_t point = 0;
    if ((err = get_u64(sh, "point", point)).empty() &&
        (err = get_u64(sh, "begin", a.begin)).empty()) {
      err = get_u64(sh, "end", a.end);
    }
    if (!err.empty()) {
      out.error = err;
      return out;
    }
    a.point = static_cast<std::size_t>(point);
    out.spec.shards.push_back(a);
  }

  if (const std::string invalid = validate_shard_spec(out.spec);
      !invalid.empty()) {
    out.error = invalid;
    return out;
  }
  out.ok = true;
  return out;
}

std::string shard_attempt_dir(const std::string& root, std::size_t shard_id,
                              std::uint32_t attempt) {
  if (attempt == 0) return shard_dir(root, shard_id);
  return shard_dir(root, shard_id) + "/try_" + std::to_string(attempt);
}

namespace {

/// try_<k> attempt numbers present under the shard dir, ascending.
std::vector<std::uint32_t> list_shard_attempts(const std::string& root,
                                               std::size_t shard_id) {
  std::vector<std::uint32_t> out;
  std::error_code ec;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::directory_iterator(shard_dir(root, shard_id), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("try_", 0) != 0) continue;
    char* end = nullptr;
    const unsigned long k = std::strtoul(name.c_str() + 4, &end, 10);
    if (end == nullptr || *end != '\0' || k == 0) continue;
    out.push_back(static_cast<std::uint32_t>(k));
  }
  std::sort(out.begin(), out.end());
  return out;
}

FileStamp stamp_file(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return FileStamp{};
  const auto ns = [](const struct timespec& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
  };
  return FileStamp{static_cast<std::uint64_t>(st.st_dev),
                   static_cast<std::uint64_t>(st.st_ino),
                   static_cast<std::int64_t>(st.st_size), ns(st.st_mtim),
                   ns(st.st_ctim)};
}

/// Appends the manifest and journal stamps of candidate `dir`; returns the
/// manifest's.
FileStamp stamp_candidate(const std::string& dir,
                          std::vector<FileStamp>& out) {
  out.push_back(stamp_file(dir + "/" + kCheckpointManifestFile));
  out.push_back(stamp_file(dir + "/" + kCheckpointJournalFile));
  return out[out.size() - 2];
}

/// Candidate dirs of shard `shard_id` in walk order: the base dir, then
/// the given attempts.
std::vector<std::string> shard_candidates(
    const std::string& root, std::size_t shard_id,
    const std::vector<std::uint32_t>& attempts) {
  std::vector<std::string> dirs{shard_dir(root, shard_id)};
  for (const std::uint32_t k : attempts) {
    dirs.push_back(shard_attempt_dir(root, shard_id, k));
  }
  return dirs;
}

/// True while nothing has touched shard `shard_id`'s candidates since
/// `scan` read them: same try_<k> list, same stamp on every manifest and
/// journal.
bool scan_is_fresh(const std::string& root, std::size_t shard_id,
                   const ShardScan& scan) {
  const std::vector<std::uint32_t> attempts =
      list_shard_attempts(root, shard_id);
  if (attempts != scan.attempts) return false;
  std::vector<FileStamp> stamps;
  for (const std::string& dir : shard_candidates(root, shard_id, attempts)) {
    stamp_candidate(dir, stamps);
  }
  return stamps == scan.stamps;
}

/// Classifies one candidate checkpoint dir of shard `shard_id` (the PR 6
/// single-dir scan, verbatim), after appending its stamps to `stamps`.
ShardScan scan_shard_candidate(const std::string& dir, const ShardSpec& spec,
                               std::size_t shard_id,
                               std::vector<FileStamp>& stamps) {
  const ShardAssignment& a = spec.shards[shard_id];
  ShardScan scan;
  scan.dir = dir;

  if (stamp_candidate(dir, stamps) == FileStamp{}) {
    scan.state = ShardScanState::kMissing;
    return scan;
  }
  CheckpointLoadResult loaded = load_checkpoint(dir);
  if (!loaded.ok) {
    scan.state = ShardScanState::kCorrupt;
    scan.error = "shard " + std::to_string(shard_id) + ": " + loaded.error;
    return scan;
  }
  if (loaded.scenario_digest != scenario_digest(spec.points[a.point])) {
    scan.state = ShardScanState::kCorrupt;
    scan.error = "shard " + std::to_string(shard_id) +
                 ": manifest scenario does not match the sweep spec";
    return scan;
  }
  for (const CheckpointRecord& rec : loaded.records) {
    if (rec.trial < a.begin || rec.trial >= a.end) {
      scan.state = ShardScanState::kCorrupt;
      scan.error = "shard " + std::to_string(shard_id) +
                   ": record for trial " + std::to_string(rec.trial) +
                   " is outside its assigned range [" +
                   std::to_string(a.begin) + ", " + std::to_string(a.end) +
                   ")";
      return scan;
    }
  }
  scan.records = std::move(loaded.records);
  scan.state = scan.records.size() == a.end - a.begin
                   ? ShardScanState::kComplete
                   : ShardScanState::kPartial;
  return scan;
}

}  // namespace

std::uint32_t next_shard_attempt(const std::string& root,
                                 std::size_t shard_id) {
  std::uint32_t max_seen = 0;
  for (const std::uint32_t k : list_shard_attempts(root, shard_id)) {
    max_seen = std::max(max_seen, k);
  }
  return max_seen + 1;
}

ShardScan scan_shard(const std::string& root, const ShardSpec& spec,
                     std::size_t shard_id) {
  RCB_REQUIRE(shard_id < spec.shards.size());

  // Candidate order: the base dir, then attempts ascending — determinism
  // matters because the first complete candidate is the one adopted.
  std::vector<std::uint32_t> attempts = list_shard_attempts(root, shard_id);
  std::vector<FileStamp> stamps;
  std::vector<ShardScan> partial;
  ShardScan complete;
  bool have_complete = false;
  std::uint64_t complete_digest = 0;

  // Refusal (kCorrupt) short-circuits the candidate walk.
  const auto consider =
      [&](const std::string& dir) -> std::optional<ShardScan> {
    ShardScan scan = scan_shard_candidate(dir, spec, shard_id, stamps);
    switch (scan.state) {
      case ShardScanState::kMissing:
        return std::nullopt;
      case ShardScanState::kCorrupt:
        return scan;
      case ShardScanState::kPartial:
        partial.push_back(std::move(scan));
        return std::nullopt;
      case ShardScanState::kComplete: {
        const std::uint64_t digest = aggregate_digest(scan.records);
        if (!have_complete) {
          complete = std::move(scan);
          complete_digest = digest;
          have_complete = true;
        } else if (digest != complete_digest) {
          // Two finished journals for identical assigned work that
          // disagree: one of them fabricates results.  Refuse; never pick.
          ShardScan divergent;
          divergent.state = ShardScanState::kCorrupt;
          divergent.error =
              "shard " + std::to_string(shard_id) +
              ": divergent duplicate completions (" + complete.dir +
              " digest " + std::to_string(complete_digest) + " vs " +
              scan.dir + " digest " + std::to_string(digest) +
              "); refusing to choose";
          return divergent;
        }
        // Identical digest: a duplicate completion after a partition —
        // deduped, the extra candidate is simply ignored.
        return std::nullopt;
      }
    }
    return std::nullopt;
  };

  for (const std::string& dir : shard_candidates(root, shard_id, attempts)) {
    if (std::optional<ShardScan> refused = consider(dir)) {
      return std::move(*refused);
    }
  }

  ShardScan scan;
  if (have_complete) {
    scan = std::move(complete);
  } else if (!partial.empty()) {
    // Resume basis: the candidate with the most journaled trials (earliest
    // attempt on ties, for determinism — `partial` is in candidate order).
    std::size_t best = 0;
    for (std::size_t i = 1; i < partial.size(); ++i) {
      if (partial[i].records.size() > partial[best].records.size()) best = i;
    }
    scan = std::move(partial[best]);
  } else {
    scan.state = ShardScanState::kMissing;
    scan.dir = shard_dir(root, shard_id);
  }
  scan.attempts = std::move(attempts);
  scan.stamps = std::move(stamps);
  return scan;
}

std::string prepare_shard_attempt(const std::string& root,
                                  const ShardSpec& spec, std::size_t shard_id,
                                  std::uint32_t attempt) {
  const std::string dir = shard_attempt_dir(root, shard_id, attempt);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create " + dir + ": " + ec.message();

  const ShardScan scan = scan_shard(root, spec, shard_id);
  if (scan.state == ShardScanState::kCorrupt) return scan.error;
  if (scan.state == ShardScanState::kMissing || scan.dir == dir ||
      scan.records.empty()) {
    return "";  // nothing to carry forward
  }
  // Byte-copy the predecessor's manifest + journal.  The source may still
  // be appended to by a partitioned worker; a copy sheared mid-record is a
  // truncated tail, which resume recovers from.
  for (const char* name : {kCheckpointManifestFile, kCheckpointJournalFile}) {
    const std::string src = scan.dir + "/" + name;
    std::string bytes;
    if (const std::string err = read_file_fully(src, bytes); !err.empty()) {
      return "cannot seed attempt " + std::to_string(attempt) + ": " + err;
    }
    if (const std::string err = write_file_atomic(dir + "/" + name, bytes);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

ShardMergeResult merge_shard_journals(const std::string& root,
                                      const ShardSpec& spec) {
  return merge_shard_journals(root, spec, {});
}

ShardMergeResult merge_shard_journals(const std::string& root,
                                      const ShardSpec& spec,
                                      std::vector<ShardScan> adopted) {
  ShardMergeResult out;
  if (const std::string err = validate_shard_spec(spec); !err.empty()) {
    out.error = err;
    return out;
  }
  out.points.resize(spec.points.size());
  std::vector<std::vector<bool>> seen(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    seen[p].assign(spec.points[p].trials, false);
    out.points[p].records.reserve(spec.points[p].trials);
  }

  for (std::size_t i = 0; i < spec.shards.size(); ++i) {
    const bool adopt = i < adopted.size() &&
                       adopted[i].state == ShardScanState::kComplete &&
                       scan_is_fresh(root, i, adopted[i]);
    // A local: the shard's records are freed at the end of this iteration.
    ShardScan scan =
        adopt ? std::move(adopted[i]) : scan_shard(root, spec, i);
    switch (scan.state) {
      case ShardScanState::kCorrupt:
        out.points.clear();
        out.error = scan.error;
        return out;
      case ShardScanState::kMissing:
      case ShardScanState::kPartial: {
        const ShardAssignment& a = spec.shards[i];
        out.points.clear();
        out.error = "shard " + std::to_string(i) + " is incomplete: " +
                    std::to_string(scan.records.size()) + " of " +
                    std::to_string(a.end - a.begin) + " trials journaled";
        return out;
      }
      case ShardScanState::kComplete:
        break;
    }
    const std::size_t p = spec.shards[i].point;
    for (CheckpointRecord& rec : scan.records) {
      // Cross-journal duplicates cannot happen under a tiled plan with
      // in-range records, but the merge is the last line of defence against
      // double-counting, so it re-checks instead of trusting the plan.
      if (seen[p][rec.trial]) {
        out.points.clear();
        out.error = "trial " + std::to_string(rec.trial) + " of point " +
                    std::to_string(p) +
                    " appears in more than one shard journal; refusing to "
                    "double-count";
        return out;
      }
      seen[p][rec.trial] = true;
      out.points[p].records.push_back(std::move(rec));
    }
  }

  for (std::size_t p = 0; p < out.points.size(); ++p) {
    SweepResult& res = out.points[p];
    res.scenario = spec.points[p];
    res.resumed = res.records.size();
    finalize_sweep_result(res);
  }
  out.ok = true;
  return out;
}

}  // namespace rcb
