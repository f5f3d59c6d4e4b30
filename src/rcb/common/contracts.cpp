#include "rcb/common/contracts.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "rcb/common/mathutil.hpp"

namespace rcb {
namespace {

thread_local const ReproContext* t_repro_context = nullptr;
std::atomic<ContractFailureHandler> g_handler{nullptr};

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string format_repro_record(std::string_view kind, std::string_view expr,
                                std::string_view file, int line,
                                const ReproContext* ctx) {
  std::string r = "{\"rcb_repro\":1,\"kind\":\"";
  append_escaped(r, kind);
  r += "\",\"expr\":\"";
  append_escaped(r, expr);
  r += "\",\"file\":\"";
  append_escaped(r, file);
  r += "\",\"line\":" + std::to_string(line);
  if (ctx != nullptr) {
    r += ",\"master_seed\":" + std::to_string(ctx->master_seed);
    r += ",\"trial\":" + std::to_string(ctx->trial);
    if (!ctx->scenario_json.empty()) {
      r += ",\"scenario_digest\":\"" + to_hex16(fnv1a64(ctx->scenario_json)) +
           "\"";
    }
    r += ",\"scenario\":";
    r += ctx->scenario_json.empty() ? "null" : ctx->scenario_json;
  }
  r += "}";
  return r;
}

ReproScope::ReproScope(std::uint64_t master_seed, std::uint64_t trial,
                       std::string scenario_json)
    : previous_(t_repro_context) {
  context_.master_seed = master_seed;
  context_.trial = trial;
  context_.scenario_json = std::move(scenario_json);
  t_repro_context = &context_;
}

ReproScope::~ReproScope() { t_repro_context = previous_; }

ContractFailureHandler set_contract_failure_handler(ContractFailureHandler h) {
  return g_handler.exchange(h);
}

namespace detail {

void contract_failure(std::string_view kind, std::string_view expr,
                      std::string_view file, int line) {
  const std::string record =
      format_repro_record(kind, expr, file, line, t_repro_context);
  if (ContractFailureHandler h = g_handler.load()) {
    h(record);  // may throw or terminate; falling through aborts below
  }
  std::fprintf(stderr, "rcb: %.*s failed: %.*s at %.*s:%d\n",
               static_cast<int>(kind.size()), kind.data(),
               static_cast<int>(expr.size()), expr.data(),
               static_cast<int>(file.size()), file.data(), line);
  std::fprintf(stderr, "RCB_REPRO %s\n", record.c_str());
  std::abort();
}

}  // namespace detail
}  // namespace rcb
