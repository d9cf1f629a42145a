#include "storage/pfor_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/math_util.h"
#include "common/rng.h"
#include "storage/bitpacking.h"

namespace kbtim {
namespace {

std::vector<uint32_t> RandomValues(uint64_t seed, size_t n, uint32_t bound) {
  Rng rng(seed);
  std::vector<uint32_t> values(n);
  for (auto& v : values) v = rng.NextU32Below(bound);
  return values;
}

class CodecSweep
    : public ::testing::TestWithParam<std::tuple<CodecKind, size_t>> {};

TEST_P(CodecSweep, RoundTripRandom) {
  const auto [kind, n] = GetParam();
  const auto codec = MakeCodec(kind);
  const auto values = RandomValues(n + 1, n, 1u << 20);
  std::string buf;
  codec->Encode(values, &buf);
  std::vector<uint32_t> out;
  ASSERT_TRUE(codec->Decode(buf, &out).ok()) << codec->Name();
  EXPECT_EQ(out, values);
}

TEST_P(CodecSweep, RoundTripAdversarial) {
  const auto [kind, n] = GetParam();
  const auto codec = MakeCodec(kind);
  std::vector<std::vector<uint32_t>> cases = {
      {},                                  // empty
      std::vector<uint32_t>(n, 0),         // all zero
      std::vector<uint32_t>(n, ~0u),       // all max
  };
  // One huge outlier in a sea of small values (PFOR exception path).
  std::vector<uint32_t> outlier(n, 3);
  if (!outlier.empty()) outlier[n / 2] = ~0u;
  cases.push_back(outlier);
  // Strictly increasing (delta-friendly).
  std::vector<uint32_t> increasing(n);
  for (size_t i = 0; i < n; ++i) increasing[i] = static_cast<uint32_t>(i * 7);
  cases.push_back(increasing);

  for (const auto& values : cases) {
    std::string buf;
    codec->Encode(values, &buf);
    std::vector<uint32_t> out;
    ASSERT_TRUE(codec->Decode(buf, &out).ok()) << codec->Name();
    EXPECT_EQ(out, values) << codec->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecSweep,
    ::testing::Combine(::testing::Values(CodecKind::kRaw, CodecKind::kVarint,
                                         CodecKind::kPfor),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{127},
                                         size_t{128}, size_t{129},
                                         size_t{1000}, size_t{4096})));

TEST(PforCodecTest, CompressesSmallDeltasWellBelowRaw) {
  // Sorted id lists delta-encode to small gaps: PFOR must beat raw by a
  // wide margin (this is Table 4's compression effect).
  auto values = RandomValues(42, 10000, 1u << 24);
  std::sort(values.begin(), values.end());
  DeltaEncode(&values);
  std::string raw_buf, pfor_buf;
  RawCodec().Encode(values, &raw_buf);
  PforCodec().Encode(values, &pfor_buf);
  EXPECT_LT(pfor_buf.size() * 2, raw_buf.size());
}

TEST(PforCodecTest, BlockWidthMinimizesPackedPlusExceptionCost) {
  // Per block the encoder picks the width b minimizing packed bytes plus
  // 3 bytes per value wider than b, ties to the smaller b; the index
  // bytes depend on it. Reference: that cost evaluated directly.
  PforCodec codec;
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    // Blocks of `bits`-wide values with zeros and full-width spikes mixed
    // in at rates that move the best width across the exception boundary.
    const size_t n = 1 + rng.NextU32Below(127);  // 1-byte count varint
    const uint32_t bits = 1 + rng.NextU32Below(32);
    const double zeros = 0.4 * (trial % 3);
    const double spikes = 0.1 * (trial % 4);
    std::vector<uint32_t> values(n);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.NextU64()) >> (32 - bits);
      if (rng.Bernoulli(zeros)) v = 0;
      if (rng.Bernoulli(spikes)) v = static_cast<uint32_t>(rng.NextU64());
    }
    std::string encoded;
    codec.Encode(values, &encoded);
    uint32_t want = 32;
    size_t best = BitPackedSize(n, 32);
    for (uint32_t b = 0; b <= 32; ++b) {
      size_t exceptions = 0;
      for (uint32_t v : values) exceptions += BitWidth(v) > b ? 1 : 0;
      const size_t cost = BitPackedSize(n, b) + exceptions * 3;
      if (cost < best) {
        best = cost;
        want = b;
      }
    }
    ASSERT_GT(encoded.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(encoded[1]), want) << "trial " << trial;
  }
}

TEST(PforCodecTest, DecodeRejectsCorruptedBuffers) {
  const auto values = RandomValues(7, 500, 1000);
  std::string buf;
  PforCodec().Encode(values, &buf);
  std::vector<uint32_t> out;
  // Truncations at various points must fail cleanly, never crash.
  for (size_t cut : {size_t{0}, buf.size() / 4, buf.size() / 2,
                     buf.size() - 1}) {
    const Status s =
        PforCodec().Decode(std::string_view(buf.data(), cut), &out);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_TRUE(s.IsCorruption());
  }
  // A bogus bit width byte must be rejected.
  std::string bad = buf;
  bad[1] = 60;  // width > 32 (byte 0 is the count varint for small counts)
  EXPECT_FALSE(PforCodec().Decode(bad, &out).ok());
}

TEST(DeltaCodingTest, RoundTrip) {
  std::vector<uint32_t> values = {3, 3, 7, 20, 21, 100};
  const auto original = values;
  DeltaEncode(&values);
  EXPECT_EQ(values, (std::vector<uint32_t>{3, 0, 4, 13, 1, 79}));
  DeltaDecode(&values);
  EXPECT_EQ(values, original);
}

TEST(DeltaCodingTest, EmptyAndSingle) {
  std::vector<uint32_t> empty;
  DeltaEncode(&empty);
  DeltaDecode(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<uint32_t> one = {9};
  DeltaEncode(&one);
  EXPECT_EQ(one, std::vector<uint32_t>{9});
  DeltaDecode(&one);
  EXPECT_EQ(one, std::vector<uint32_t>{9});
}

TEST(CodecFactoryTest, NamesAreStable) {
  EXPECT_STREQ(MakeCodec(CodecKind::kRaw)->Name(), "raw");
  EXPECT_STREQ(MakeCodec(CodecKind::kVarint)->Name(), "varint");
  EXPECT_STREQ(MakeCodec(CodecKind::kPfor)->Name(), "pfor");
}

}  // namespace
}  // namespace kbtim
