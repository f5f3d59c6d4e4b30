// Lightweight contract checking with machine-readable failure records.
//
// RCB_REQUIRE is kept on in all build types: the simulator is a research
// instrument, and a silently-violated precondition invalidates experiment
// output, which is worse than the branch cost.  Hot inner loops use
// RCB_ASSERT, which compiles out when NDEBUG is defined.
//
// Crash repro: a contract failure emits a one-line JSON record
// ("RCB_REPRO {...}") to stderr before aborting.  If the failing thread has
// a ReproScope installed (the Monte-Carlo runners install one per trial),
// the record carries the master seed, trial index, and scenario JSON needed
// to re-execute the exact failing trial bit-identically — see
// runtime/scenario.hpp and tools/replay.  Tests can intercept the record
// (and avoid the abort) with set_contract_failure_handler.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rcb {

/// Ambient description of the experiment the current thread is executing,
/// attached to contract-failure repro records.
struct ReproContext {
  std::uint64_t master_seed = 0;
  std::uint64_t trial = 0;
  /// JSON text describing the scenario (see runtime/scenario.hpp), or
  /// empty when unknown.  Embedded verbatim into the repro record.
  std::string scenario_json;
};

/// RAII installer for the thread-local ReproContext; nests.
class ReproScope {
 public:
  ReproScope(std::uint64_t master_seed, std::uint64_t trial,
             std::string scenario_json);
  ~ReproScope();
  ReproScope(const ReproScope&) = delete;
  ReproScope& operator=(const ReproScope&) = delete;

 private:
  const ReproContext* previous_;
  ReproContext context_;
};

/// Formats a one-line machine-readable repro record ("{...}", without the
/// RCB_REPRO prefix) from an explicit context.  `ctx` may be null (the
/// failure happened outside any trial).  Used by the contract-failure path
/// and by runners that report non-contract events (watchdog timeouts,
/// escaped exceptions) in the same replayable format.  When the context
/// carries scenario JSON, the record also embeds its FNV-1a digest as
/// "scenario_digest", so tools can detect a tampered or stale scenario.
std::string format_repro_record(std::string_view kind, std::string_view expr,
                                std::string_view file, int line,
                                const ReproContext* ctx);

/// Invoked with the repro record before the default stderr+abort path.
/// A handler may throw (test capture) or terminate; if it returns, the
/// default path runs.  Process-global; returns the previous handler.
using ContractFailureHandler = void (*)(std::string_view record_json);
ContractFailureHandler set_contract_failure_handler(ContractFailureHandler h);

namespace detail {

[[noreturn]] void contract_failure(std::string_view kind, std::string_view expr,
                                   std::string_view file, int line);

}  // namespace detail
}  // namespace rcb

#define RCB_REQUIRE(expr)                                                     \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::rcb::detail::contract_failure("precondition", #expr, __FILE__,        \
                                      __LINE__);                              \
    }                                                                         \
  } while (false)

#ifdef NDEBUG
#define RCB_ASSERT(expr) ((void)0)
#else
#define RCB_ASSERT(expr)                                                      \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::rcb::detail::contract_failure("assertion", #expr, __FILE__,           \
                                      __LINE__);                              \
    }                                                                         \
  } while (false)
#endif
