// Tests for the frame codec (runtime/frame.hpp) that the checkpoint journal
// and the worker control plane share, run under both magics: the exact
// bytes append_frame writes, need-more on every strict prefix, corrupt on
// a length past the cap or a foreign magic, and no single-byte flip ever
// turning into an accepted payload that was not written.
#include "rcb/runtime/frame.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "rcb/common/mathutil.hpp"

namespace rcb {
namespace {

using Status = FrameRead::Status;

class FrameTest : public ::testing::TestWithParam<std::string_view> {
 protected:
  std::string_view magic() const { return GetParam(); }
  std::string_view other_magic() const {
    return magic() == kJournalFrameMagic ? kControlFrameMagic
                                         : kJournalFrameMagic;
  }
  std::string frame(std::string_view payload) const {
    std::string out;
    append_frame(out, magic(), payload);
    return out;
  }
};

/// Payloads shaped like what each magic carries, plus the edge cases the
/// grammar allows: empty, and a newline inside (the length governs).
const std::vector<std::string> kPayloads = {
    R"({"trial":12,"status":"ok","attempts":1,"scenario_digest":)"
    R"("0123456789abcdef","outcome":{"max_cost":1234,"mean_cost":0.1}})",
    R"({"t":"assign","uid":"deadbeefcafef00d","root":"/a b/c"})",
    "",
    "two\nlines",
};

TEST_P(FrameTest, AppendWritesTheGrammar) {
  const std::string payload = "hello";
  EXPECT_EQ(frame(payload), std::string(magic()) + " 5 " +
                                to_hex16(fnv1a64(payload)) + " hello\n");
  std::string two = frame("a");
  append_frame(two, magic(), "b");
  EXPECT_EQ(two, frame("a") + frame("b"));
}

TEST_P(FrameTest, CompleteFrameReadsBackExactly) {
  for (const std::string& payload : kPayloads) {
    const std::string bytes = frame(payload) + "trailing";
    const FrameRead r = read_frame(bytes, magic());
    ASSERT_EQ(r.status, Status::kFrame) << r.error;
    EXPECT_EQ(r.payload, payload);
    EXPECT_EQ(r.consumed, bytes.size() - 8);
  }
}

TEST_P(FrameTest, EveryStrictPrefixNeedsMore) {
  for (const std::string& payload : kPayloads) {
    const std::string bytes = frame(payload);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      const FrameRead r =
          read_frame(std::string_view(bytes).substr(0, keep), magic());
      ASSERT_EQ(r.status, Status::kNeedMore)
          << "prefix of " << keep << " bytes: " << r.error;
    }
  }
}

TEST_P(FrameTest, LengthAboveTheCapIsCorrupt) {
  const std::string at_cap(kMaxFramePayload, 'x');
  EXPECT_EQ(read_frame(frame(at_cap), magic()).status, Status::kFrame);

  const std::string over = std::to_string(kMaxFramePayload + 1);
  const std::string header = std::string(magic()) + " " + over;
  // Corrupt as soon as the digits pass the cap, complete field or not.
  for (const std::string& bytes :
       {header + " " + to_hex16(0) + " ", header, header + "0"}) {
    const FrameRead r = read_frame(bytes, magic());
    EXPECT_EQ(r.status, Status::kCorrupt) << bytes;
    EXPECT_EQ(std::string(r.error), "frame length out of range") << bytes;
  }
}

TEST_P(FrameTest, ForeignOrBrokenMagicIsCorrupt) {
  std::string foreign;
  append_frame(foreign, other_magic(), kPayloads[0]);
  const std::string m(magic());
  for (const std::string& bytes :
       {foreign, std::string("HTTP/1.1 200 OK\r\n"), m + "x",
        m.substr(0, 3) + "?"}) {
    const FrameRead r = read_frame(bytes, magic());
    EXPECT_EQ(r.status, Status::kCorrupt) << bytes;
    EXPECT_EQ(std::string(r.error), "bad frame magic") << bytes;
  }
}

TEST_P(FrameTest, NonCanonicalHeadersAreCorrupt) {
  const std::string digest = to_hex16(fnv1a64("hello"));
  std::string upper = digest;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  ASSERT_NE(upper, digest);
  const std::string m(magic());
  for (const std::string& bytes :
       {m + " 05 " + digest + " hello\n", m + "  5 " + digest + " hello\n",
        m + " 5 " + upper + " hello\n", m + " 5 g" + digest.substr(1) +
        " hello\n", m + " 5  " + digest + "hello\n",
        m + " 5 " + digest + " hello!"}) {
    EXPECT_EQ(read_frame(bytes, magic()).status, Status::kCorrupt) << bytes;
  }
}

TEST_P(FrameTest, NoSingleByteFlipYieldsAPayloadThatWasNotWritten) {
  // Two back-to-back frames; flip every byte to every other value and read
  // the stream front to back, as both users do.  Need-more and corrupt are
  // both fine outcomes; an accepted payload must be the one written at
  // that place, and the flip must stop the read before its end.
  const std::vector<std::string> written = {kPayloads[0], kPayloads[1]};
  const std::string stream = frame(written[0]) + frame(written[1]);
  for (std::size_t at = 0; at < stream.size(); ++at) {
    for (int v = 0; v < 256; ++v) {
      if (static_cast<char>(v) == stream[at]) continue;
      std::string bytes = stream;
      bytes[at] = static_cast<char>(v);
      std::size_t off = 0;
      std::size_t k = 0;  // frames accepted so far
      for (; off < bytes.size(); ++k) {
        const FrameRead r =
            read_frame(std::string_view(bytes).substr(off), magic());
        if (r.status != Status::kFrame) break;
        ASSERT_LT(k, written.size());
        ASSERT_EQ(r.payload, written[k])
            << "flip of byte " << at << " to " << v << ", frame " << k;
        off += r.consumed;
      }
      ASSERT_LT(k, written.size())
          << "flip of byte " << at << " to " << v << " went unnoticed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Magics, FrameTest,
    ::testing::Values(kJournalFrameMagic, kControlFrameMagic),
    [](const ::testing::TestParamInfo<std::string_view>& p) {
      return std::string(p.param);
    });

}  // namespace
}  // namespace rcb
