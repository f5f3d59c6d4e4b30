#include "rcb/runtime/checkpoint.hpp"

#include <algorithm>
#include <bit>
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

std::string_view trial_status_name(TrialStatus status) {
  switch (status) {
    case TrialStatus::kOk:
      return "ok";
    case TrialStatus::kTimedOut:
      return "timed_out";
    case TrialStatus::kFailed:
      return "failed";
  }
  return "ok";  // unreachable: every enumerator is handled above
}

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

/// True when `v` is written as a decimal count: an integer
/// in [0, 2^53) that is not -0.0.
bool has_decimal_form(double v) {
  return !std::signbit(v) && v < 0x1p53 &&
         static_cast<double>(static_cast<std::uint64_t>(v)) == v;
}

/// One-pass cursor over the exact bytes the record encoder writes.  Each
/// method consumes one token or fails; nothing is skipped, reordered or
/// repaired.
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

  bool lit(char expected) {
    if (pos_ == text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  /// An unsigned integer with no sign, fraction, exponent or leading zero,
  /// no larger than kMaxExactJsonInt.  Reads at most 17 digits: every
  /// longer run is too large anyway (2^53 has 16).
  bool count(std::uint64_t& out) {
    const std::size_t start = pos_;
    const std::size_t stop = std::min(text_.size(), start + 17);
    std::uint64_t v = 0;
    for (; pos_ < stop && text_[pos_] >= '0' && text_[pos_] <= '9'; ++pos_) {
      v = v * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
    }
    const std::size_t n = pos_ - start;
    if (n == 0 || (n > 1 && text_[start] == '0') || v > kMaxExactJsonInt) {
      return false;
    }
    out = v;
    return true;
  }

  /// A double: the decimal count of an integer in [0, 2^53), or
  /// 'x' and the bits of a finite double that has no such form.
  bool exact_double(double& out) {
    if (lit('x')) {
      std::uint64_t bits = 0;
      if (!hex16(bits)) return false;
      out = std::bit_cast<double>(bits);
      return std::isfinite(out) && !has_decimal_form(out);
    }
    std::uint64_t v = 0;
    if (!count(v) || v == kMaxExactJsonInt) return false;
    out = static_cast<double>(v);
    return true;
  }

  /// A flag: 0 or 1.
  bool bit(bool& out) {
    if (pos_ == text_.size() || (text_[pos_] != '0' && text_[pos_] != '1')) {
      return false;
    }
    out = text_[pos_++] == '1';
    return true;
  }

  /// 16 lowercase hex digits (append_hex16's output).
  bool hex16(std::uint64_t& out) {
    if (text_.size() - pos_ < 16) return false;
    std::uint64_t v = 0;
    for (std::size_t i = pos_; i < pos_ + 16; ++i) {
      const char c = text_[i];
      if (c >= '0' && c <= '9') {
        v = (v << 4) | static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v = (v << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return false;
      }
    }
    pos_ += 16;
    out = v;
    return true;
  }

  /// A status name.
  bool status(TrialStatus& out) {
    for (const TrialStatus s :
         {TrialStatus::kOk, TrialStatus::kTimedOut, TrialStatus::kFailed}) {
      if (lit(trial_status_name(s))) {
        out = s;
        return true;
      }
    }
    return false;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string manifest_json(const Scenario& s) {
  // The scenario is the last key so loaders can slice its exact text out
  // (the digest is over that text; see load_manifest).
  std::string m = "{\"rcb_checkpoint\":2,\"scenario_digest\":\"";
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

/// A payload is under 120 bytes for a typical trial and at most
/// append_payload's 315-byte bound: no regrowth while writing one.
constexpr std::size_t kRecordPayloadReserve = 384;

/// Field writers: each appends one field and the space after it.
char* put_count(char* p, std::uint64_t v) {
  p = std::to_chars(p, p + 20, v).ptr;
  *p = ' ';
  return p + 1;
}

char* put_hex16(char* p, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    p[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  p[16] = ' ';
  return p + 17;
}

char* put_double(char* p, double v) {
  if (has_decimal_form(v)) {
    return put_count(p, static_cast<std::uint64_t>(v));
  }
  *p = 'x';
  return put_hex16(p + 1, std::bit_cast<std::uint64_t>(v));
}

/// The payload, written in place into `out`.
void append_payload(std::string& out, const CheckpointRecord& rec,
                    std::uint64_t scenario_digest) {
  // Each field is at most 20 digits, or 17 bytes, plus its space.
  constexpr std::size_t kPayloadBound = 15 * 21;
  const TrialOutcome& o = rec.outcome;
  const std::string_view status = trial_status_name(rec.status);
  const std::size_t at = out.size();
  out.resize(at + kPayloadBound);
  char* p = put_count(out.data() + at, rec.trial);
  p = std::copy(status.begin(), status.end(), p);
  *p++ = ' ';
  p = put_count(p, rec.attempts);
  p = put_hex16(p, scenario_digest);
  p = put_double(p, o.max_cost);
  p = put_double(p, o.mean_cost);
  p = put_double(p, o.adversary_cost);
  p = put_double(p, o.latency);
  p = put_count(p, o.success ? 1 : 0);
  p = put_count(p, o.aborted ? 1 : 0);
  p = put_count(p, o.dead_count);
  p = put_count(p, o.crashed_count);
  p = put_hex16(p, o.digest);
  p = put_double(p, o.alice_cost);
  p = put_double(p, o.bob_cost);
  out.resize(static_cast<std::size_t>(p - out.data()) - 1);  // last space
}

}  // namespace

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
  if (!c.count(rec.trial)) return bad("trial");
  if (!c.lit(' ') || !c.status(rec.status)) {
    return bad("status") + " (want ok, timed_out or failed)";
  }
  if (!c.lit(' ') || !c.count(attempts) || attempts == 0 ||
      attempts > UINT32_MAX) {
    return bad("attempts");
  }
  rec.attempts = static_cast<std::uint32_t>(attempts);
  if (!c.lit(' ') || !c.hex16(scenario_digest)) {
    return bad("scenario_digest");
  }
  if (!c.lit(' ') || !c.exact_double(o.max_cost)) return bad("max_cost");
  if (!c.lit(' ') || !c.exact_double(o.mean_cost)) return bad("mean_cost");
  if (!c.lit(' ') || !c.exact_double(o.adversary_cost)) {
    return bad("adversary_cost");
  }
  if (!c.lit(' ') || !c.exact_double(o.latency)) return bad("latency");
  if (!c.lit(' ') || !c.bit(o.success)) return bad("success");
  if (!c.lit(' ') || !c.bit(o.aborted)) return bad("aborted");
  if (!c.lit(' ') || !c.count(o.dead_count)) return bad("dead_count");
  if (!c.lit(' ') || !c.count(o.crashed_count)) return bad("crashed_count");
  if (!c.lit(' ') || !c.hex16(o.digest)) return bad("digest");
  if (!c.lit(' ') || !c.exact_double(o.alice_cost)) return bad("alice_cost");
  if (!c.lit(' ') || !c.exact_double(o.bob_cost)) return bad("bob_cost");
  if (!c.at_end()) {
    return "payload does not end after bob_cost (byte " +
           std::to_string(c.pos()) + ")";
  }
  return "";
}

void append_journal_frames(std::string& out,
                           std::span<const CheckpointRecord> recs,
                           std::uint64_t scenario_digest) {
  std::string payload;
  payload.reserve(kRecordPayloadReserve);
  for (const CheckpointRecord& rec : recs) {
    payload.clear();
    append_payload(payload, rec, scenario_digest);
    append_frame(out, kJournalFrameMagic, payload);
  }
}

std::string journal_record_payload(const CheckpointRecord& rec,
                                   std::uint64_t scenario_digest) {
  std::string out;
  out.reserve(kRecordPayloadReserve);
  append_payload(out, rec, scenario_digest);
  return out;
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
  if (marker != nullptr && marker->is_number() && marker->as_number() == 1.0) {
    r.error = "checkpoint predates journal v2; re-run the sweep";
    return r;
  }
  if (marker == nullptr || !marker->is_number() ||
      marker->as_number() != 2.0) {
    r.error = "not an rcb checkpoint manifest (missing rcb_checkpoint:2)";
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

  // Every frame ends in the journal's only kind of newline, so their count
  // bounds the records: one allocation, no regrowth copies.
  r.records.reserve(static_cast<std::size_t>(
      std::count(journal.begin(), journal.end(), '\n')));
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

  scenario_digest_ = scenario_digest(s);
  const std::string journal_path = dir + "/" + kCheckpointJournalFile;
  file_ = std::fopen(journal_path.c_str(), "wb");
  if (file_ == nullptr) {
    return "cannot open journal '" + journal_path + "': " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::open_for_append(
    const std::string& dir, const CheckpointLoadResult& loaded) {
  close();
  scenario_digest_ = loaded.scenario_digest;
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
    std::filesystem::resize_file(journal_path, loaded.journal_valid_bytes,
                                 ec);
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

void CheckpointWriter::encode_frames(
    std::string& out, std::span<const CheckpointRecord> recs) const {
  append_journal_frames(out, recs, scenario_digest_);
}

std::string CheckpointWriter::append_batch(
    const std::vector<CheckpointRecord>& recs) {
  std::string frames;
  encode_frames(frames, recs);
  return append_frames(frames);
}

std::string CheckpointWriter::sync() {
  if (file_ == nullptr) return "checkpoint writer is not open";
  if (!sync_stream(file_)) return "journal fsync failed: " + errno_string();
  return "";
}

}  // namespace rcb
