#include "rcb/runtime/checkpoint.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/frame.hpp"
#include "rcb/runtime/retry_io.hpp"

namespace rcb {

const char kCheckpointJournalFile[] = "journal.rcbj";
const char kCheckpointManifestFile[] = "manifest.json";

namespace {

std::string errno_string() { return std::strerror(errno); }

std::mutex g_write_fault_mutex;
WriteFaultHook g_write_fault;

/// Returns the injected errno for a write of `bytes` (0 = no fault).
int injected_write_errno(std::size_t bytes) {
  WriteFaultHook hook;
  {
    std::lock_guard<std::mutex> lock(g_write_fault_mutex);
    hook = g_write_fault;
  }
  return hook ? hook(bytes) : 0;
}

/// fsync a stdio stream (no-op on platforms without fileno/fsync).
bool sync_stream(std::FILE* f) {
  if (retry_fflush(f) != 0) return false;
#ifndef _WIN32
  return ::fsync(fileno(f)) == 0;
#else
  return true;
#endif
}

/// fsync a directory so a rename inside it is durable (POSIX requires the
/// directory entry itself to be synced; rename + file fsync alone may be
/// rolled back by a power loss on some filesystems).
bool sync_directory(const std::string& dir) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)dir;
  return true;
#endif
}

/// One-pass cursor over the exact byte layout journal_record_payload
/// writes.  Each method consumes one token or fails; nothing is skipped,
/// reordered or repaired.
class PayloadCursor {
 public:
  explicit PayloadCursor(std::string_view text) : text_(text) {}

  bool at_end() const { return pos_ == text_.size(); }
  std::size_t pos() const { return pos_; }

  /// Keys, separators and braces, byte for byte.
  bool lit(std::string_view expected) {
    if (text_.substr(pos_, expected.size()) != expected) return false;
    pos_ += expected.size();
    return true;
  }

  /// An unsigned integer with no sign, fraction, exponent or leading zero,
  /// no larger than kMaxExactJsonInt.
  bool count(std::uint64_t& out) {
    const char* first = text_.data() + pos_;
    if (!int_digits()) return false;
    const auto r = std::from_chars(first, text_.data() + pos_, out);
    return r.ec == std::errc() && out <= kMaxExactJsonInt;
  }

  /// A finite JSON number (RFC 8259 grammar).  from_chars rounds
  /// correctly, so it reads the value strtod would, and every "%.17g"
  /// text back to the double it was printed from.
  bool number(double& out) {
    const char* first = text_.data() + pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!int_digits()) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) return false;
    }
    const char* last = text_.data() + pos_;
    const auto r = std::from_chars(first, last, out);
    return r.ec == std::errc() && r.ptr == last && std::isfinite(out);
  }

  bool flag(bool& out) {
    if (lit("true")) {
      out = true;
      return true;
    }
    if (lit("false")) {
      out = false;
      return true;
    }
    return false;
  }

  /// A quoted 16-digit lowercase hex u64 (to_hex16's output).
  bool hex16(std::uint64_t& out) {
    if (text_.size() - pos_ < 18 || text_[pos_] != '"' ||
        text_[pos_ + 17] != '"') {
      return false;
    }
    std::uint64_t v = 0;
    for (std::size_t i = pos_ + 1; i < pos_ + 17; ++i) {
      const char c = text_[i];
      if (c >= '0' && c <= '9') {
        v = (v << 4) | static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v = (v << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return false;
      }
    }
    pos_ += 18;
    out = v;
    return true;
  }

  /// One of the three statuses the supervisor journals.
  bool status(std::string& out) {
    for (const std::string_view quoted :
         {"\"ok\"", "\"timed_out\"", "\"failed\""}) {
      if (lit(quoted)) {
        out = quoted.substr(1, quoted.size() - 2);
        return true;
      }
    }
    return false;
  }

 private:
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  /// "0" or a digit run that does not start with '0'.
  bool int_digits() {
    const std::size_t start = pos_;
    const std::size_t n = digits();
    return n == 1 || (n > 1 && text_[start] != '0');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string manifest_json(const Scenario& s) {
  // The scenario is the last key so loaders can slice its exact text out
  // (the digest is over that text; see load_manifest).
  std::string m = "{\"rcb_checkpoint\":1,\"scenario_digest\":\"";
  const std::string scenario = scenario_to_json(s);
  m += to_hex16(fnv1a64(scenario));
  m += "\",\"journal\":\"";
  m += kCheckpointJournalFile;
  m += "\",\"scenario\":";
  m += scenario;
  m += "}\n";
  return m;
}

/// Extracts the exact text of the "scenario" sub-object (the last key).
std::string_view scenario_slice(std::string_view manifest) {
  const std::size_t pos = manifest.find("\"scenario\":");
  if (pos == std::string_view::npos) return {};
  std::string_view slice = manifest.substr(pos + 11);
  std::size_t depth = 0;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    if (slice[i] == '{') ++depth;
    if (slice[i] == '}') {
      if (--depth == 0) return slice.substr(0, i + 1);
    }
  }
  return {};
}

}  // namespace

void set_checkpoint_write_fault(WriteFaultHook hook) {
  std::lock_guard<std::mutex> lock(g_write_fault_mutex);
  g_write_fault = std::move(hook);
}

std::string write_file_atomic(const std::string& path,
                              std::string_view content) {
  const std::string tmp_path = path + ".tmp";
  if (const int err = injected_write_errno(content.size()); err != 0) {
    return "cannot write '" + tmp_path + "': " + std::strerror(err);
  }
  {
    std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
    if (f == nullptr) {
      return "cannot open '" + tmp_path + "': " + errno_string();
    }
    const bool wrote =
        retry_fwrite(f, content.data(), content.size()) && sync_stream(f);
    std::fclose(f);
    if (!wrote) return "cannot write '" + tmp_path + "': " + errno_string();
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return "cannot rename '" + tmp_path + "' into place: " + errno_string();
  }
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  if (!parent.empty() && !sync_directory(parent)) {
    return "cannot fsync directory '" + parent + "': " + errno_string();
  }
  return "";
}

namespace {

/// A record payload is ~250-320 bytes: no regrowth while writing one.
constexpr std::size_t kRecordPayloadReserve = 384;

void append_count(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// "%.17g" (to_chars, general, precision 17): round-trips every finite
/// double.  JSON has no inf/nan, so a non-finite double is null.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];  // the longest "%.17g" text is 24 chars
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

void append_quoted_hex16(std::string& out, std::uint64_t v) {
  out += '"';
  append_hex16(out, v);
  out += '"';
}

/// The canonical payload, byte for byte in the order parse_journal_record_
/// payload reads it.  The status is written as is: the supervisor only
/// journals the three statuses, none of which needs escaping.
void append_record_payload(std::string& out, const CheckpointRecord& rec,
                           std::uint64_t scenario_digest) {
  const TrialOutcome& o = rec.outcome;
  out += "{\"trial\":";
  append_count(out, rec.trial);
  out += ",\"status\":\"";
  out += rec.status;
  out += "\",\"attempts\":";
  append_count(out, rec.attempts);
  out += ",\"scenario_digest\":";
  append_quoted_hex16(out, scenario_digest);
  out += ",\"outcome\":{\"max_cost\":";
  append_number(out, o.max_cost);
  out += ",\"mean_cost\":";
  append_number(out, o.mean_cost);
  out += ",\"adversary_cost\":";
  append_number(out, o.adversary_cost);
  out += ",\"latency\":";
  append_number(out, o.latency);
  out += o.success ? ",\"success\":true" : ",\"success\":false";
  out += o.aborted ? ",\"aborted\":true" : ",\"aborted\":false";
  out += ",\"dead_count\":";
  append_count(out, o.dead_count);
  out += ",\"crashed_count\":";
  append_count(out, o.crashed_count);
  out += ",\"digest\":";
  append_quoted_hex16(out, o.digest);
  out += "}}";
}

}  // namespace

void append_journal_frames(std::string& out,
                           std::span<const CheckpointRecord> recs,
                           std::uint64_t scenario_digest) {
  std::string payload;
  payload.reserve(kRecordPayloadReserve);
  for (const CheckpointRecord& rec : recs) {
    payload.clear();
    append_record_payload(payload, rec, scenario_digest);
    append_frame(out, kJournalFrameMagic, payload);
  }
}

std::string journal_record_payload(const CheckpointRecord& rec,
                                   std::uint64_t scenario_digest) {
  std::string out;
  out.reserve(kRecordPayloadReserve);
  append_record_payload(out, rec, scenario_digest);
  return out;
}

std::string parse_journal_record_payload(std::string_view payload,
                                         CheckpointRecord& rec,
                                         std::uint64_t& scenario_digest) {
  PayloadCursor c(payload);
  const auto bad = [&](const char* field) {
    return std::string("bad ") + field + " field at byte " +
           std::to_string(c.pos());
  };
  std::uint64_t attempts = 0;
  TrialOutcome& o = rec.outcome;
  if (!c.lit("{\"trial\":") || !c.count(rec.trial)) return bad("trial");
  if (!c.lit(",\"status\":") || !c.status(rec.status)) {
    return bad("status") + " (want \"ok\", \"timed_out\" or \"failed\")";
  }
  if (!c.lit(",\"attempts\":") || !c.count(attempts) || attempts == 0 ||
      attempts > UINT32_MAX) {
    return bad("attempts");
  }
  rec.attempts = static_cast<std::uint32_t>(attempts);
  if (!c.lit(",\"scenario_digest\":") || !c.hex16(scenario_digest)) {
    return bad("scenario_digest");
  }
  if (!c.lit(",\"outcome\":{\"max_cost\":") || !c.number(o.max_cost)) {
    return bad("max_cost");
  }
  if (!c.lit(",\"mean_cost\":") || !c.number(o.mean_cost)) {
    return bad("mean_cost");
  }
  if (!c.lit(",\"adversary_cost\":") || !c.number(o.adversary_cost)) {
    return bad("adversary_cost");
  }
  if (!c.lit(",\"latency\":") || !c.number(o.latency)) return bad("latency");
  if (!c.lit(",\"success\":") || !c.flag(o.success)) return bad("success");
  if (!c.lit(",\"aborted\":") || !c.flag(o.aborted)) return bad("aborted");
  if (!c.lit(",\"dead_count\":") || !c.count(o.dead_count)) {
    return bad("dead_count");
  }
  if (!c.lit(",\"crashed_count\":") || !c.count(o.crashed_count)) {
    return bad("crashed_count");
  }
  if (!c.lit(",\"digest\":") || !c.hex16(o.digest)) return bad("digest");
  if (!c.lit("}}") || !c.at_end()) {
    return "payload does not end after the outcome object (byte " +
           std::to_string(c.pos()) + ")";
  }
  return "";
}

CheckpointLoadResult load_checkpoint(const std::string& dir) {
  CheckpointLoadResult r;
  const std::string manifest_path =
      dir + "/" + kCheckpointManifestFile;
  std::string manifest;
  r.error = read_file_fully(manifest_path, manifest, "checkpoint manifest");
  if (!r.error.empty()) return r;

  const JsonParseResult parsed = json_parse(manifest);
  if (!parsed.ok || !parsed.value.is_object()) {
    r.error = "manifest is not valid JSON";
    return r;
  }
  const JsonValue* marker = parsed.value.find("rcb_checkpoint");
  if (marker == nullptr || !marker->is_number() ||
      marker->as_number() != 1.0) {
    r.error = "not an rcb checkpoint manifest (missing rcb_checkpoint:1)";
    return r;
  }
  const JsonValue* digest_field = parsed.value.find("scenario_digest");
  if (digest_field == nullptr || !digest_field->is_string() ||
      !parse_hex_u64(digest_field->as_string(), r.scenario_digest)) {
    r.error = "manifest scenario_digest missing or malformed";
    return r;
  }
  const std::string_view slice = scenario_slice(manifest);
  if (slice.empty()) {
    r.error = "manifest has no scenario object";
    return r;
  }
  if (fnv1a64(slice) != r.scenario_digest) {
    r.error =
        "manifest scenario digest mismatch: the embedded scenario does not "
        "hash to the recorded scenario_digest (manifest edited or corrupt)";
    return r;
  }
  const ScenarioParseResult sp = scenario_from_json(slice);
  if (!sp.ok) {
    r.error = "manifest scenario: " + sp.error;
    return r;
  }
  r.scenario = sp.scenario;
  const std::string invalid = validate_scenario(r.scenario);
  if (!invalid.empty()) {
    r.error = "manifest scenario is invalid: " + invalid;
    return r;
  }

  const std::string journal_path =
      dir + "/" + kCheckpointJournalFile;
  // A manifest with no journal yet is a checkpoint that was killed between
  // manifest creation and the first append — resumable, empty.  A journal
  // that exists but cannot be read is refused, never resumed as empty.
  std::error_code ec;
  if (!std::filesystem::exists(journal_path, ec)) {
    r.ok = true;
    return r;
  }
  std::string journal;
  r.error = read_file_fully(journal_path, journal, "checkpoint journal");
  if (!r.error.empty()) return r;

  std::vector<bool> seen;  // trial-index bitmap for duplicate detection
  std::size_t off = 0;
  while (off < journal.size()) {
    const auto corrupt = [&](const std::string& why) {
      r.error =
          "journal record " + std::to_string(r.records.size()) + ": " + why;
      return std::move(r);
    };
    // A frame cut short by EOF is a truncated tail (killed mid-append) and
    // is recoverable; any other deviation from the grammar is corruption.
    const FrameRead frame =
        read_frame(std::string_view(journal).substr(off), kJournalFrameMagic);
    if (frame.status == FrameRead::Status::kNeedMore) break;
    if (frame.status == FrameRead::Status::kCorrupt) {
      return corrupt(frame.error);
    }
    CheckpointRecord rec;
    std::uint64_t rec_digest = 0;
    if (const std::string perr =
            parse_journal_record_payload(frame.payload, rec, rec_digest);
        !perr.empty()) {
      return corrupt(perr);
    }
    if (rec_digest != r.scenario_digest) {
      return corrupt(
          "scenario digest mismatch: record was written for a different "
          "scenario than the manifest describes");
    }
    if (rec.trial >= r.scenario.trials) {
      return corrupt("trial index " + std::to_string(rec.trial) +
                     " out of range for " +
                     std::to_string(r.scenario.trials) + " trials");
    }
    if (seen.size() < r.scenario.trials) seen.resize(r.scenario.trials);
    if (seen[rec.trial]) {
      return corrupt("duplicate trial index " + std::to_string(rec.trial));
    }
    seen[rec.trial] = true;

    r.records.push_back(std::move(rec));
    off += frame.consumed;
  }
  r.truncated_tail = off < journal.size();
  r.journal_valid_bytes = off;
  r.ok = true;
  return r;
}

CheckpointWriter::~CheckpointWriter() { close(); }

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : dir_(std::move(other.dir_)),
      scenario_digest_(other.scenario_digest_),
      file_(other.file_) {
  other.file_ = nullptr;
}

CheckpointWriter& CheckpointWriter::operator=(
    CheckpointWriter&& other) noexcept {
  if (this != &other) {
    close();
    dir_ = std::move(other.dir_);
    scenario_digest_ = other.scenario_digest_;
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void CheckpointWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string CheckpointWriter::create(const std::string& dir,
                                     const Scenario& s) {
  close();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create checkpoint dir '" + dir + "': " + ec.message();

  // Manifest: temp file + fsync + rename, so a crash leaves either the old
  // manifest or the new one, never a torn write.
  const std::string final_path = dir + "/" + kCheckpointManifestFile;
  if (const std::string err = write_file_atomic(final_path, manifest_json(s));
      !err.empty()) {
    return err;
  }

  dir_ = dir;
  scenario_digest_ = scenario_digest(s);
  const std::string journal_path = dir + "/" + kCheckpointJournalFile;
  file_ = std::fopen(journal_path.c_str(), "wb");
  if (file_ == nullptr) {
    return "cannot open journal '" + journal_path + "': " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::open_for_append(const std::string& dir,
                                              std::uint64_t digest,
                                              std::uint64_t valid_bytes) {
  close();
  dir_ = dir;
  scenario_digest_ = digest;
  // A crash between the manifest temp-write and its rename leaves a stale
  // "manifest.json.tmp" next to the (old or absent) manifest.  It carries
  // no information the real manifest lacks, and left alone it would linger
  // forever, so recovery removes it here.
  std::error_code ec;
  std::filesystem::remove(
      dir + "/" + kCheckpointManifestFile + std::string(".tmp"), ec);
  const std::string journal_path = dir + "/" + kCheckpointJournalFile;
  // Drop any partial tail frame before appending: resize, then append.
  if (std::filesystem::exists(journal_path, ec)) {
    std::filesystem::resize_file(journal_path, valid_bytes, ec);
    if (ec) {
      return "cannot truncate journal '" + journal_path +
             "': " + ec.message();
    }
  }
  file_ = std::fopen(journal_path.c_str(), "ab");
  if (file_ == nullptr) {
    return "cannot open journal '" + journal_path + "': " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::append_frames(std::string_view frames) {
  if (frames.empty()) return "";
  if (file_ == nullptr) return "checkpoint writer is not open";
  if (const int err = injected_write_errno(frames.size()); err != 0) {
    return "journal append failed: " + std::string(std::strerror(err));
  }
  if (!retry_fwrite(file_, frames.data(), frames.size()) ||
      retry_fflush(file_) != 0) {
    return "journal append failed: " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::append_batch(
    const std::vector<CheckpointRecord>& recs) {
  std::string frames;
  append_journal_frames(frames, recs, scenario_digest_);
  return append_frames(frames);
}

std::string CheckpointWriter::sync() {
  if (file_ == nullptr) return "checkpoint writer is not open";
  if (!sync_stream(file_)) return "journal fsync failed: " + errno_string();
  return "";
}

}  // namespace rcb
