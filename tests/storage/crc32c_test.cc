#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace kbtim {
namespace {

// Known-answer vectors for CRC32C (iSCSI / RFC 3720 appendix B.4 and the
// classic check value).
TEST(Crc32cTest, KnownAnswerVectors) {
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);

  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62A8AB43u);

  std::string ascending(32, '\0');
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<char>(i);
  }
  EXPECT_EQ(crc32c::Value(ascending.data(), ascending.size()), 0x46DD794Eu);

  std::string descending(32, '\0');
  for (size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc32c::Value(descending.data(), descending.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, EmptyBuffer) {
  EXPECT_EQ(crc32c::Value("", 0), 0u);
  EXPECT_EQ(crc32c::Extend(0xDEADBEEFu, "", 0), 0xDEADBEEFu);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  std::mt19937 rng(20260808);
  std::string data(4097, '\0');
  for (char& c : data) c = static_cast<char>(rng());

  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{63}, size_t{1000}, size_t{4096}, data.size()}) {
    uint32_t crc = crc32c::Value(data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }

  // Many small extends (byte-at-a-time) agree too.
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    crc = crc32c::Extend(crc, data.data() + i, 1);
  }
  EXPECT_EQ(crc, whole);
}

TEST(Crc32cTest, UnalignedBuffers) {
  // Both kernels have an alignment prologue; every start offset
  // within a word must yield the same checksum for the same bytes.
  std::mt19937 rng(7);
  std::vector<char> backing(256 + 16, '\0');
  for (char& c : backing) c = static_cast<char>(rng());

  for (size_t offset = 0; offset < 9; ++offset) {
    std::string copy(backing.data() + offset, 256);
    EXPECT_EQ(crc32c::Value(backing.data() + offset, 256),
              crc32c::Value(copy.data(), copy.size()))
        << "offset " << offset;
  }
}

TEST(Crc32cTest, MaskRoundTripAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0x12345678u}) {
    const uint32_t masked = crc32c::Mask(crc);
    EXPECT_NE(masked, crc);
    EXPECT_EQ(crc32c::Unmask(masked), crc);
  }
}

TEST(Crc32cTest, SingleBitFlipAlwaysDetected) {
  std::string data(512, '\0');
  std::mt19937 rng(42);
  for (char& c : data) c = static_cast<char>(rng());
  const uint32_t good = crc32c::Value(data.data(), data.size());

  for (size_t byte : {size_t{0}, size_t{1}, size_t{255}, size_t{511}}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(crc32c::Value(flipped.data(), flipped.size()), good)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// Extend dispatches to the SSE4.2 kernel where the CPU has it; the
// portable slice-by-8 kernel is the reference it must match bit for bit.
class Crc32cKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!crc32c::internal::HardwareSelected()) {
      GTEST_SKIP() << "no CRC32C instruction: Extend is the portable kernel";
    }
  }

  static std::string RandomBytes(size_t n, uint32_t seed) {
    std::mt19937 rng(seed);
    std::string data(n, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    return data;
  }
};

TEST_F(Crc32cKernelTest, MatchesPortableOnEveryShortLengthAndOffset) {
  // Every length up to 300, plus the edges of the hardware kernel's
  // three-stream rounds (3 x 256 and 3 x 4096 bytes).
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (size_t edge : {size_t{768}, size_t{12288}, size_t{12288 + 768}}) {
    for (size_t len = edge - 9; len <= edge + 9; ++len) lengths.push_back(len);
  }
  const std::string data = RandomBytes(lengths.back() + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : lengths) {
      const char* p = data.data() + offset;
      for (uint32_t crc : {0u, 0xE3069283u}) {
        ASSERT_EQ(crc32c::Extend(crc, p, len),
                  crc32c::internal::ExtendPortable(crc, p, len))
            << "offset " << offset << " length " << len << " crc " << crc;
      }
    }
  }
}

TEST_F(Crc32cKernelTest, MatchesPortableOnMultiMegabyteBuffers) {
  const std::string data = RandomBytes((size_t{8} << 20) + 4093, 29);
  for (size_t len : {size_t{1} << 20, (size_t{3} << 20) + 5, data.size() - 3}) {
    for (size_t offset : {size_t{0}, size_t{3}}) {
      EXPECT_EQ(crc32c::Value(data.data() + offset, len),
                crc32c::internal::ExtendPortable(0, data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(Crc32cKernelTest, ExtendChainsSwitchKernelsMidStream) {
  const std::string data = RandomBytes(200000, 31);
  const uint32_t whole = crc32c::internal::ExtendPortable(0, data.data(),
                                                          data.size());
  // Chunk lengths straddle both kernels' stride and stream boundaries.
  std::mt19937 rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t crc = 0;
    size_t pos = 0;
    bool hardware = (trial % 2) == 0;
    while (pos < data.size()) {
      const size_t len = std::min<size_t>(data.size() - pos, rng() % 20000);
      crc = hardware
                ? crc32c::Extend(crc, data.data() + pos, len)
                : crc32c::internal::ExtendPortable(crc, data.data() + pos, len);
      hardware = !hardware;
      pos += len;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace kbtim
