#include "rcb/runtime/transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/runtime/shard.hpp"

namespace rcb {

const char kShardLeaseFile[] = "lease";

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Lease files (local transport).

void write_lease_file(const std::string& path, pid_t pid) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;  // heartbeat is advisory; the next beat retries
  std::fprintf(f, "%ld\n", static_cast<long>(pid));
  std::fclose(f);
}

pid_t read_lease_pid(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  long pid = -1;
  const int got = std::fscanf(f, "%ld", &pid);
  std::fclose(f);
  return got == 1 ? static_cast<pid_t>(pid) : -1;
}

double lease_age_sec(const std::string& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 1e18;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

// ---------------------------------------------------------------------------
// Control-frame codec.

const char* ctrl_type_name(CtrlType type) {
  switch (type) {
    case CtrlType::kHello:
      return "hello";
    case CtrlType::kHeartbeat:
      return "heartbeat";
    case CtrlType::kProgress:
      return "progress";
    case CtrlType::kComplete:
      return "complete";
    case CtrlType::kFailed:
      return "failed";
    case CtrlType::kAssign:
      return "assign";
    case CtrlType::kAck:
      return "ack";
    case CtrlType::kAbandon:
      return "abandon";
    case CtrlType::kShutdown:
      return "shutdown";
  }
  return "?";
}

namespace {

bool ctrl_type_from_name(std::string_view name, CtrlType& out) {
  static constexpr CtrlType kAll[] = {
      CtrlType::kHello,  CtrlType::kHeartbeat, CtrlType::kProgress,
      CtrlType::kComplete, CtrlType::kFailed,  CtrlType::kAssign,
      CtrlType::kAck,    CtrlType::kAbandon,   CtrlType::kShutdown,
  };
  for (const CtrlType t : kAll) {
    if (name == ctrl_type_name(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

/// Payload limit: control messages are a few hundred bytes (the largest
/// carries a filesystem path); anything bigger is a framing desync.
constexpr std::size_t kMaxCtrlPayload = 1 << 16;

std::string decode_ctrl_payload(std::string_view payload, CtrlMessage& out) {
  const JsonParseResult parsed = json_parse(payload);
  if (!parsed.ok) return "control payload: " + parsed.error;
  const JsonValue& obj = parsed.value;
  const JsonValue* t = obj.find("t");
  if (t == nullptr || !t->is_string()) {
    return "control payload: missing \"t\"";
  }
  if (!ctrl_type_from_name(t->as_string(), out.type)) {
    return "control payload: unknown type \"" + t->as_string() + "\"";
  }
  const auto hex_field = [&obj](const char* key, std::uint64_t& dst) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return true;  // optional; keep the default
    return v->is_string() && parse_hex_u64(v->as_string(), dst);
  };
  const auto num_field = [&obj](const char* key, std::uint64_t& dst) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return true;
    return v->is_number() && json_exact_u64(v->as_number(), dst);
  };
  // 64-bit identities (uids, digests, trial-range shard ids) travel as
  // hex16 strings: JSON numbers are doubles and would shear their low bits.
  if (!hex_field("uid", out.uid) || !hex_field("shard", out.shard) ||
      !hex_field("value", out.value) || !hex_field("digest", out.digest) ||
      !num_field("pid", out.pid) || !num_field("attempt", out.attempt) ||
      !num_field("hb", out.heartbeat_ms)) {
    return "control payload: malformed field";
  }
  if (const JsonValue* v = obj.find("root"); v != nullptr) {
    if (!v->is_string()) return "control payload: malformed \"root\"";
    out.root = v->as_string();
  }
  if (const JsonValue* v = obj.find("err"); v != nullptr) {
    if (!v->is_string()) return "control payload: malformed \"err\"";
    out.error = v->as_string();
  }
  return "";
}

}  // namespace

std::string encode_ctrl_frame(const CtrlMessage& m) {
  std::string payload;
  JsonWriter w(payload);
  w.begin_object();
  w.key("t").value(ctrl_type_name(m.type));
  w.key("uid").value(to_hex16(m.uid));
  w.key("pid").value(m.pid);
  w.key("shard").value(to_hex16(m.shard));
  w.key("attempt").value(m.attempt);
  w.key("value").value(to_hex16(m.value));
  w.key("digest").value(to_hex16(m.digest));
  w.key("hb").value(m.heartbeat_ms);
  if (!m.root.empty()) w.key("root").value(m.root);
  if (!m.error.empty()) w.key("err").value(m.error);
  w.end_object();
  std::string frame = "RCBC ";
  frame += std::to_string(payload.size());
  frame += ' ';
  frame += to_hex16(fnv1a64(payload));
  frame += ' ';
  frame += payload;
  frame += '\n';
  return frame;
}

void CtrlFrameDecoder::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

int CtrlFrameDecoder::next(CtrlMessage& out, std::string& error) {
  const std::string_view v(buf_.data() + off_, buf_.size() - off_);
  if (v.size() < 5) return 0;
  if (v.substr(0, 5) != "RCBC ") {
    error = "control frame: bad magic";
    return -1;
  }
  std::size_t i = 5;
  std::size_t len = 0;
  std::size_t digits = 0;
  while (i < v.size() &&
         std::isdigit(static_cast<unsigned char>(v[i])) != 0) {
    len = len * 10 + static_cast<std::size_t>(v[i] - '0');
    ++i;
    if (++digits > 7) {
      error = "control frame: oversized length field";
      return -1;
    }
  }
  if (i >= v.size()) return 0;
  if (digits == 0 || v[i] != ' ') {
    error = "control frame: malformed length";
    return -1;
  }
  if (len > kMaxCtrlPayload) {
    error = "control frame: payload too large";
    return -1;
  }
  ++i;
  if (v.size() - i < 17) return 0;
  std::uint64_t sum = 0;
  if (!parse_hex_u64(v.substr(i, 16), sum)) {
    error = "control frame: malformed checksum";
    return -1;
  }
  i += 16;
  if (v[i] != ' ') {
    error = "control frame: malformed header";
    return -1;
  }
  ++i;
  if (v.size() - i < len + 1) return 0;
  const std::string_view payload = v.substr(i, len);
  if (v[i + len] != '\n') {
    error = "control frame: missing terminator";
    return -1;
  }
  if (fnv1a64(payload) != sum) {
    error = "control frame: checksum mismatch";
    return -1;
  }
  out = CtrlMessage{};
  if (std::string err = decode_ctrl_payload(payload, out); !err.empty()) {
    error = std::move(err);
    return -1;
  }
  off_ += i + len + 1;
  if (off_ > (1u << 16)) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Deterministic control-plane faults.

bool NetFaultConfig::any_active() const {
  return seed != 0 &&
         (drop_rate > 0 || delay_rate > 0 || duplicate_rate > 0 ||
          reorder_rate > 0 || close_rate > 0);
}

NetFaultConfig NetFaultConfig::chaos(std::uint64_t seed, double rate) {
  NetFaultConfig cfg;
  cfg.seed = seed;
  cfg.drop_rate = rate;
  cfg.delay_rate = rate;
  cfg.duplicate_rate = rate;
  cfg.reorder_rate = rate;
  cfg.close_rate = rate / 5.0;
  cfg.delay_ms = 10.0;
  return cfg;
}

const char* net_fault_action_name(NetFaultAction a) {
  switch (a) {
    case NetFaultAction::kDeliver:
      return "deliver";
    case NetFaultAction::kDrop:
      return "drop";
    case NetFaultAction::kDelay:
      return "delay";
    case NetFaultAction::kDuplicate:
      return "duplicate";
    case NetFaultAction::kReorder:
      return "reorder";
    case NetFaultAction::kClose:
      return "close";
  }
  return "?";
}

NetFaultAction NetFaultPlan::next(CtrlType type) {
  if (!cfg_.any_active()) return NetFaultAction::kDeliver;
  // Decision k for message type t is a pure function of (seed, k, t): mix
  // them into one splitmix64 draw, same per-decision idiom as FaultPlan.
  std::uint64_t s = cfg_.seed ^
                    (0x9E3779B97F4A7C15ull * (counter_ + 1)) ^
                    (static_cast<std::uint64_t>(type) << 56);
  ++counter_;
  const std::uint64_t x = splitmix64_next(s);
  double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  const double rates[] = {cfg_.drop_rate, cfg_.delay_rate,
                          cfg_.duplicate_rate, cfg_.reorder_rate,
                          cfg_.close_rate};
  const NetFaultAction acts[] = {NetFaultAction::kDrop, NetFaultAction::kDelay,
                                 NetFaultAction::kDuplicate,
                                 NetFaultAction::kReorder,
                                 NetFaultAction::kClose};
  for (std::size_t i = 0; i < 5; ++i) {
    if (u < rates[i]) return acts[i];
    u -= rates[i];
  }
  return NetFaultAction::kDeliver;
}

// ---------------------------------------------------------------------------
// Lease policy validation.

std::string validate_lease_config(double lease_timeout_sec,
                                  double heartbeat_interval_sec) {
  if (!(heartbeat_interval_sec > 0)) {
    return "heartbeat interval must be positive";
  }
  if (lease_timeout_sec <= 0) return "";  // watchdog disabled
  if (lease_timeout_sec <= 2.0 * heartbeat_interval_sec) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "lease timeout (%.3gs) must exceed 2x the heartbeat "
                  "interval (%.3gs): one delayed beat would revoke a "
                  "healthy worker",
                  lease_timeout_sec, heartbeat_interval_sec);
    return buf;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Worker process spawning (shared by both transports).

std::string spawn_worker_process(const std::vector<std::string>& argv_strings,
                                 pid_t& pid, int& pipe_read) {
  if (argv_strings.empty()) return "worker argv is empty";
  // Materialise the argv *before* fork: the parent may carry threads
  // (gtest, pools), so the child must not allocate between fork and exec —
  // it only calls async-signal-safe prctl/exec/_exit.
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& a : argv_strings) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    return std::string("pipe failed: ") + std::strerror(errno);
  }
  // Read end stays in the parent only; the write end is deliberately
  // inherited across exec so the worker holds it open for its lifetime
  // (EOF on the read end the instant the worker dies, even if waitpid
  // lags).
  fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  fcntl(fds[0], F_SETFL, O_NONBLOCK);

  const pid_t child = fork();
  if (child < 0) {
    const int err = errno;
    close(fds[0]);
    close(fds[1]);
    return std::string("fork failed: ") + std::strerror(err);
  }
  if (child == 0) {
#ifdef __linux__
    // Die with the parent: a SIGKILLed coordinator must not leave workers
    // appending to journals a resumed coordinator is adopting.
    // Caveat: the kernel delivers this on death of the spawning *thread*,
    // not the process — callers must spawn from a thread that outlives the
    // worker (the coordinator loop does; short-lived helper threads don't).
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(127);  // parent already gone
#endif
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid = child;
  pipe_read = fds[0];
  return "";
}

// ---------------------------------------------------------------------------
// LocalProcessTransport.

namespace {

class LocalProcessTransport final : public WorkerTransport {
 public:
  explicit LocalProcessTransport(const LocalTransportOptions& opt)
      : opt_(opt), plan_(opt.net_faults) {}

  ~LocalProcessTransport() override { shutdown(false); }

  std::string start() override { return ""; }

  bool can_assign() override { return running_.size() < opt_.workers; }

  std::string assign(std::size_t shard, std::uint32_t attempt) override {
    const std::string dir = shard_dir(opt_.root, shard);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::vector<std::string> argv =
        opt_.worker_argv ? opt_.worker_argv(shard)
                         : default_worker_argv(shard);
    Running w;
    w.attempt = attempt;
    if (std::string err = spawn_worker_process(argv, w.pid, w.pipe_read);
        !err.empty()) {
      return err;
    }
    // Seed the lease with the child's pid so the staleness clock starts at
    // spawn and a resuming coordinator can find the orphan.
    write_lease_file(dir + "/" + kShardLeaseFile, w.pid);
    running_[shard] = w;
    if (opt_.on_worker_spawn) opt_.on_worker_spawn(shard, w.pid);
    return "";
  }

  void poll(std::vector<TransportEvent>& out) override {
    for (TransportEvent& ev : pending_) out.push_back(std::move(ev));
    pending_.clear();

    std::vector<std::size_t> shards;
    shards.reserve(running_.size());
    for (const auto& [shard, w] : running_) shards.push_back(shard);
    for (const std::size_t shard : shards) {
      const Running w = running_[shard];  // by value: erased below
      // Death reaches us as pipe EOF (a superset of waitpid: the kernel
      // closes the inherited write end on any exit, including SIGKILL);
      // wedging reaches us as a stale lease.
      char buf[16];
      const ssize_t k = retry_read_some(w.pipe_read, buf, sizeof buf);
      const bool dead = (k == 0);
      bool stale = false;
      if (!dead && opt_.lease_timeout_sec > 0) {
        const std::string lease =
            shard_dir(opt_.root, shard) + "/" + kShardLeaseFile;
        stale = lease_age_sec(lease) > opt_.lease_timeout_sec;
      }
      if (!dead && !stale) continue;
      // Control-plane faults map onto this observation channel: drop and
      // delay suppress the observation for one poll round (ground truth
      // re-derives it next round, the lossy-link analogue of a missed
      // status frame); duplicate/reorder/close deliver — events here are
      // re-derived from process state, so they cannot duplicate or invert.
      if (plan_.active()) {
        const NetFaultAction act = plan_.next(
            dead ? CtrlType::kComplete : CtrlType::kHeartbeat);
        if (act == NetFaultAction::kDrop || act == NetFaultAction::kDelay) {
          continue;
        }
      }
      if (stale) kill(w.pid, SIGKILL);  // wedged: alive but heartbeat stopped
      int status = 0;
      waitpid(w.pid, &status, 0);
      close(w.pipe_read);
      running_.erase(shard);
      TransportEvent ev;
      ev.kind = TransportEvent::Kind::kShardExited;
      ev.shard = shard;
      ev.attempt = w.attempt;
      ev.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (stale) ev.detail = "lease expired";
      out.push_back(std::move(ev));
    }
  }

  void revoke(std::size_t shard) override {
    const auto it = running_.find(shard);
    if (it == running_.end()) return;
    kill(it->second.pid, SIGKILL);
    int status = 0;
    waitpid(it->second.pid, &status, 0);
    close(it->second.pipe_read);
    TransportEvent ev;
    ev.kind = TransportEvent::Kind::kShardExited;
    ev.shard = shard;
    ev.attempt = it->second.attempt;
    ev.detail = "revoked";
    pending_.push_back(std::move(ev));
    running_.erase(it);
  }

  std::size_t fleet_size() const override {
    // The local fleet is spawn-on-demand: capacity, not attachment, is the
    // fleet, so it never parks.
    return opt_.workers;
  }

  std::string attempt_dir(std::size_t shard,
                          std::uint32_t /*attempt*/) const override {
    // Attempt-less on purpose: revocation on the local transport really
    // kills the process, so a replacement can safely resume the same
    // journal in place (and stays byte-compatible with pre-socket sweeps).
    return shard_dir(opt_.root, shard);
  }

  void shutdown(bool graceful) override {
    const int sig = graceful ? SIGTERM : SIGKILL;
    for (auto& [shard, w] : running_) kill(w.pid, sig);
    for (auto& [shard, w] : running_) {
      int status = 0;
      waitpid(w.pid, &status, 0);
      close(w.pipe_read);
    }
    running_.clear();
  }

 private:
  struct Running {
    pid_t pid = -1;
    int pipe_read = -1;
    std::uint32_t attempt = 0;
  };

  std::vector<std::string> default_worker_argv(std::size_t shard_id) const {
    return {"/proc/self/exe", "--shard_worker=" + opt_.root,
            "--shard_id=" + std::to_string(shard_id)};
  }

  const LocalTransportOptions opt_;
  NetFaultPlan plan_;
  std::map<std::size_t, Running> running_;
  std::vector<TransportEvent> pending_;
};

}  // namespace

std::unique_ptr<WorkerTransport> make_local_process_transport(
    const LocalTransportOptions& opt) {
  return std::make_unique<LocalProcessTransport>(opt);
}

}  // namespace rcb
