// The one frame codec: checkpoint journal records (magic "RCBJ") and
// worker control messages (magic "RCBC") share the grammar
//
//   <magic> <payload-bytes> <fnv1a-hex16> <payload>\n
//
// and its limits: a canonical decimal length (no leading zero) of at most
// kMaxFramePayload (64 KiB), the FNV-1a 64 of the payload in 16 lowercase
// hex digits, and a payload that holds no '\n', whatever its encoding
// (append_frame enforces both payload limits as contracts).  read_frame
// checks each byte as soon as it is present, so it reads need-more only
// while the bytes are a strict prefix of a valid frame (a kill mid-append,
// a short socket read), and no single-byte flip of a frame is read as a
// payload that was not written.  A killed writer leaves a prefix of a
// valid length field, so a length past the cap is corruption; it leaves no
// '\n' inside a payload, so one before the declared end is corruption too
// (a length digit flipped upward, say, which would otherwise read as
// need-more up to some later frame's newline).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace rcb {

inline constexpr std::string_view kJournalFrameMagic = "RCBJ";
inline constexpr std::string_view kControlFrameMagic = "RCBC";

inline constexpr std::size_t kMaxFramePayload = 1 << 16;  // records are < 1 KiB

/// Appends one frame around `payload` (at most kMaxFramePayload bytes, no
/// '\n'; both are contract checks).
void append_frame(std::string& out, std::string_view magic,
                  std::string_view payload);

struct FrameRead {
  enum class Status { kFrame, kNeedMore, kCorrupt };
  Status status = Status::kNeedMore;
  std::string_view payload;  ///< kFrame: a view into the bytes read
  std::size_t consumed = 0;  ///< kFrame: header + payload + newline
  const char* error = "";    ///< kCorrupt: the reason
};

/// Reads the frame at the front of `bytes`.
FrameRead read_frame(std::string_view bytes, std::string_view magic);

}  // namespace rcb
