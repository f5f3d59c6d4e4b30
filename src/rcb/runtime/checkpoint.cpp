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

#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/retry_io.hpp"

namespace rcb {

const char kCheckpointJournalFile[] = "journal.rcbj";
const char kCheckpointManifestFile[] = "manifest.json";

namespace {

constexpr std::string_view kFramePrefix = "RCBJ ";

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

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t got;
  while ((got = retry_fread(f, buf, sizeof buf)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
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

// 64-bit digests travel as hex strings; counts stay JSON numbers (bounded
// by fleet size and attempt caps, far below 2^53).
std::string journal_record_payload(const CheckpointRecord& rec,
                                   std::uint64_t scenario_digest) {
  std::string out;
  out.reserve(384);  // a record is ~250-320 bytes: no regrowth while writing
  JsonWriter w(out);
  w.begin_object();
  w.key("trial").value(static_cast<std::uint64_t>(rec.trial));
  w.key("status").value(rec.status);
  w.key("attempts").value(static_cast<std::uint64_t>(rec.attempts));
  w.key("scenario_digest").value(to_hex16(scenario_digest));
  const TrialOutcome& o = rec.outcome;
  w.key("outcome").begin_object();
  w.key("max_cost").value(o.max_cost);
  w.key("mean_cost").value(o.mean_cost);
  w.key("adversary_cost").value(o.adversary_cost);
  w.key("latency").value(o.latency);
  w.key("success").value(o.success);
  w.key("aborted").value(o.aborted);
  w.key("dead_count").value(o.dead_count);
  w.key("crashed_count").value(o.crashed_count);
  w.key("digest").value(to_hex16(o.digest));
  w.end_object();
  w.end_object();
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
  if (!read_file(manifest_path, manifest)) {
    r.error = "cannot read checkpoint manifest '" + manifest_path + "'";
    return r;
  }

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

  std::string journal;
  const std::string journal_path =
      dir + "/" + kCheckpointJournalFile;
  if (!read_file(journal_path, journal)) {
    // A manifest with no journal yet is a checkpoint that was killed
    // between manifest creation and the first append — resumable, empty.
    r.ok = true;
    return r;
  }

  std::vector<bool> seen;  // trial-index bitmap for duplicate detection
  std::size_t off = 0;
  std::size_t frame_index = 0;
  while (off < journal.size()) {
    const std::string_view rest = std::string_view(journal).substr(off);
    auto corrupt = [&](const std::string& why) {
      r.ok = false;
      r.error = "journal record " + std::to_string(frame_index) + ": " + why;
    };
    // Header: "RCBJ <len> <hex16> ".  A frame that deviates from the
    // grammar *before* EOF is corruption; one that runs out of bytes is a
    // truncated tail (killed mid-append) and is recoverable.
    const std::size_t avail = rest.size();
    const std::size_t cmp = std::min(avail, kFramePrefix.size());
    if (rest.substr(0, cmp) != kFramePrefix.substr(0, cmp)) {
      corrupt("bad frame prefix");
      return r;
    }
    if (avail < kFramePrefix.size()) break;  // truncated inside the prefix
    std::size_t i = kFramePrefix.size();
    std::uint64_t len = 0;
    std::size_t len_digits = 0;
    while (i < avail && rest[i] >= '0' && rest[i] <= '9') {
      len = len * 10 + static_cast<std::uint64_t>(rest[i] - '0');
      if (++len_digits > 9) {
        corrupt("frame length out of range");
        return r;
      }
      ++i;
    }
    if (i >= avail) break;  // truncated inside the length
    if (len_digits == 0 || rest[i] != ' ') {
      corrupt("malformed frame length");
      return r;
    }
    ++i;
    if (avail - i < 16) {
      // Could still be a prefix of a valid digest: truncation only if every
      // remaining byte is hex, corruption otherwise.
      std::uint64_t ignored = 0;
      if (avail == i || parse_hex_u64(rest.substr(i), ignored)) break;
      corrupt("malformed frame digest");
      return r;
    }
    std::uint64_t frame_digest = 0;
    if (!parse_hex_u64(rest.substr(i, 16), frame_digest)) {
      corrupt("malformed frame digest");
      return r;
    }
    i += 16;
    if (i >= avail) break;  // truncated before the payload separator
    if (rest[i] != ' ') {
      corrupt("malformed frame header");
      return r;
    }
    ++i;
    if (avail - i < len + 1) break;  // truncated inside the payload
    const std::string_view payload = rest.substr(i, len);
    if (rest[i + len] != '\n') {
      corrupt("payload not newline-terminated");
      return r;
    }
    if (fnv1a64(payload) != frame_digest) {
      corrupt("payload digest mismatch (flipped byte?)");
      return r;
    }

    CheckpointRecord rec;
    std::uint64_t rec_digest = 0;
    const std::string perr =
        parse_journal_record_payload(payload, rec, rec_digest);
    if (!perr.empty()) {
      corrupt(perr);
      return r;
    }
    if (rec_digest != r.scenario_digest) {
      corrupt(
          "scenario digest mismatch: record was written for a different "
          "scenario than the manifest describes");
      return r;
    }
    if (rec.trial >= r.scenario.trials) {
      corrupt("trial index " + std::to_string(rec.trial) +
              " out of range for " + std::to_string(r.scenario.trials) +
              " trials");
      return r;
    }
    if (seen.size() < r.scenario.trials) seen.resize(r.scenario.trials);
    if (seen[rec.trial]) {
      corrupt("duplicate trial index " + std::to_string(rec.trial));
      return r;
    }
    seen[rec.trial] = true;

    r.records.push_back(std::move(rec));
    off += i + len + 1;
    ++frame_index;
  }
  r.truncated_tail = off < journal.size();
  r.journal_valid_bytes = off;
  r.ok = true;
  return r;
}

namespace {

/// Appends one framed record to `out` (shared by append / append_batch so
/// the two paths are byte-identical by construction).
void append_frame(std::string& out, const CheckpointRecord& rec,
                  std::uint64_t scenario_dig) {
  const std::string payload = journal_record_payload(rec, scenario_dig);
  out.reserve(out.size() + payload.size() + 32);
  out += kFramePrefix;
  out += std::to_string(payload.size());
  out += ' ';
  out += to_hex16(fnv1a64(payload));
  out += ' ';
  out += payload;
  out += '\n';
}

}  // namespace

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

std::string CheckpointWriter::append(const CheckpointRecord& rec) {
  if (file_ == nullptr) return "checkpoint writer is not open";
  std::string frame;
  append_frame(frame, rec, scenario_digest_);
  if (const int err = injected_write_errno(frame.size()); err != 0) {
    return "journal append failed: " + std::string(std::strerror(err));
  }
  if (!retry_fwrite(file_, frame.data(), frame.size()) ||
      retry_fflush(file_) != 0) {
    return "journal append failed: " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::append_batch(
    const std::vector<CheckpointRecord>& recs) {
  if (recs.empty()) return "";
  if (file_ == nullptr) return "checkpoint writer is not open";
  std::string frames;
  for (const CheckpointRecord& rec : recs) {
    append_frame(frames, rec, scenario_digest_);
  }
  if (const int err = injected_write_errno(frames.size()); err != 0) {
    return "journal append failed: " + std::string(std::strerror(err));
  }
  if (!retry_fwrite(file_, frames.data(), frames.size()) ||
      retry_fflush(file_) != 0) {
    return "journal append failed: " + errno_string();
  }
  return "";
}

std::string CheckpointWriter::sync() {
  if (file_ == nullptr) return "checkpoint writer is not open";
  if (!sync_stream(file_)) return "journal fsync failed: " + errno_string();
  return "";
}

AsyncJournalWriter::AsyncJournalWriter(CheckpointWriter writer,
                                       std::size_t capacity)
    : writer_(std::move(writer)),
      capacity_(capacity == 0 ? 1 : capacity),
      thread_([this] { writer_loop(); }) {}

AsyncJournalWriter::~AsyncJournalWriter() { finish(); }

bool AsyncJournalWriter::enqueue(CheckpointRecord rec) {
  std::unique_lock lock(mutex_);
  not_full_.wait(lock, [this] {
    return queue_.size() < capacity_ || finishing_ || !first_error_.empty();
  });
  if (finishing_ || !first_error_.empty()) return false;
  queue_.push_back(std::move(rec));
  work_available_.notify_one();
  return true;
}

std::uint64_t AsyncJournalWriter::acked_count() const {
  return acked_.load(std::memory_order_acquire);
}

void AsyncJournalWriter::writer_loop() {
  std::vector<CheckpointRecord> batch;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return !queue_.empty() || finishing_; });
      if (queue_.empty() && finishing_) return;
      // Take everything queued so far as one group commit; producers that
      // arrive during the write form the next batch.
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      not_full_.notify_all();
    }
    const std::string err = writer_.append_batch(batch);
    if (!err.empty()) {
      std::unique_lock lock(mutex_);
      if (first_error_.empty()) first_error_ = err;
      queue_.clear();  // nothing more will be written; unblock producers
      not_full_.notify_all();
      return;
    }
    // The batch is flushed to the OS: acknowledge every record in it.
    acked_.fetch_add(batch.size(), std::memory_order_release);
    batch.clear();
  }
}

std::string AsyncJournalWriter::finish() {
  {
    std::unique_lock lock(mutex_);
    if (finished_) return finish_result_;
    finished_ = true;
    finishing_ = true;
    work_available_.notify_all();
    not_full_.notify_all();
  }
  thread_.join();
  std::string result;
  {
    std::unique_lock lock(mutex_);
    result = first_error_;
  }
  if (result.empty()) {
    result = writer_.sync();
  }
  writer_.close();
  {
    std::unique_lock lock(mutex_);
    finish_result_ = result;
  }
  return result;
}

}  // namespace rcb
