#include "rcb/runtime/transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/runtime/frame.hpp"

namespace rcb {

// ---------------------------------------------------------------------------
// Control-frame codec.

namespace {

/// Wire names, in CtrlType order.
constexpr const char* kCtrlTypeNames[] = {
    "hello",    "heartbeat", "progress", "complete", "failed",
    "assign",   "ack",       "abandon",  "shutdown",
};
static_assert(std::size(kCtrlTypeNames) ==
              static_cast<std::size_t>(CtrlType::kShutdown) + 1);

bool ctrl_type_from_name(std::string_view name, CtrlType& out) {
  for (std::size_t i = 0; i < std::size(kCtrlTypeNames); ++i) {
    if (name == kCtrlTypeNames[i]) {
      out = static_cast<CtrlType>(i);
      return true;
    }
  }
  return false;
}

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

const char* ctrl_type_name(CtrlType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < std::size(kCtrlTypeNames) ? kCtrlTypeNames[i] : "?";
}

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
  std::string frame;
  append_frame(frame, kControlFrameMagic, payload);
  return frame;
}

void CtrlFrameDecoder::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

int CtrlFrameDecoder::next(CtrlMessage& out, std::string& error) {
  const FrameRead frame = read_frame(
      std::string_view(buf_.data() + off_, buf_.size() - off_),
      kControlFrameMagic);
  if (frame.status == FrameRead::Status::kNeedMore) return 0;
  if (frame.status == FrameRead::Status::kCorrupt) {
    error = std::string("control frame: ") + frame.error;
    return -1;
  }
  out = CtrlMessage{};
  if (std::string err = decode_ctrl_payload(frame.payload, out);
      !err.empty()) {
    error = std::move(err);
    return -1;
  }
  off_ += frame.consumed;
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
  // In NetFaultAction order.
  static constexpr const char* kNames[] = {"deliver",   "drop",    "delay",
                                           "duplicate", "reorder", "close"};
  const auto i = static_cast<std::size_t>(a);
  return i < std::size(kNames) ? kNames[i] : "?";
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
// Worker process spawning.

std::string spawn_worker_process(const std::vector<std::string>& argv_strings,
                                 pid_t& pid, int& conn) {
  if (argv_strings.empty()) return "worker argv is empty";
  // Materialise the argv *before* fork: the parent may carry threads
  // (gtest, pools), so the child must not allocate between fork and exec —
  // it only calls async-signal-safe prctl/fcntl/dup2/exec/_exit.
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& a : argv_strings) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  // Both ends close on exec, so no other child ever holds them; the child
  // re-opens its own end as kWorkerControlFd, which it keeps for its
  // lifetime (EOF on `conn` the instant it dies, even if waitpid lags).
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return std::string("socketpair failed: ") + std::strerror(errno);
  }
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
    // dup2 clears close-on-exec on the copy; an end that already sits on
    // the target fd needs it cleared by hand.
    if (fds[1] == kWorkerControlFd) {
      if (fcntl(kWorkerControlFd, F_SETFD, 0) != 0) _exit(127);
    } else if (dup2(fds[1], kWorkerControlFd) != kWorkerControlFd) {
      _exit(127);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  fcntl(fds[0], F_SETFL, O_NONBLOCK);
  pid = child;
  conn = fds[0];
  return "";
}

}  // namespace rcb
