#include "rcb/runtime/frame.hpp"

#include <cstdint>

#include "rcb/common/mathutil.hpp"

namespace rcb {

void append_frame(std::string& out, std::string_view magic,
                  std::string_view payload) {
  out.reserve(out.size() + magic.size() + payload.size() + 32);
  out += magic;
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += to_hex16(fnv1a64(payload));
  out += ' ';
  out += payload;
  out += '\n';
}

namespace {

FrameRead corrupt(const char* why) {
  return {FrameRead::Status::kCorrupt, {}, 0, why};
}

}  // namespace

// Each `return {}` is need-more: the bytes ran out before any check failed.
FrameRead read_frame(std::string_view bytes, std::string_view magic) {
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i <= magic.size(); ++i) {
    if (i == n) return {};
    if (bytes[i] != (i < magic.size() ? magic[i] : ' ')) {
      return corrupt("bad frame magic");
    }
  }
  const std::size_t len_at = i;
  std::size_t len = 0;
  for (; i < n && bytes[i] >= '0' && bytes[i] <= '9'; ++i) {
    if (i > len_at && bytes[len_at] == '0') {
      return corrupt("malformed frame length");
    }
    len = len * 10 + static_cast<std::size_t>(bytes[i] - '0');
    if (len > kMaxFramePayload) return corrupt("frame length out of range");
  }
  if (i == n) return {};
  if (i == len_at || bytes[i++] != ' ') {
    return corrupt("malformed frame length");
  }
  std::uint64_t digest = 0;
  for (const std::size_t end = i + 16; i < end; ++i) {
    if (i == n) return {};
    const char c = bytes[i];
    const bool decimal = c >= '0' && c <= '9';
    if (!decimal && (c < 'a' || c > 'f')) {
      return corrupt("malformed frame digest");
    }
    digest = (digest << 4) |
             static_cast<std::uint64_t>(decimal ? c - '0' : c - 'a' + 10);
  }
  if (i == n) return {};
  if (bytes[i++] != ' ') return corrupt("malformed frame header");
  if (n - i < len + 1) return {};
  if (bytes[i + len] != '\n') return corrupt("payload not newline-terminated");
  if (fnv1a64(bytes.substr(i, len)) != digest) {
    return corrupt("payload digest mismatch (checksum failed)");
  }
  return {FrameRead::Status::kFrame, bytes.substr(i, len), i + len + 1, ""};
}

}  // namespace rcb
