// Edge cases of the batch decode kernels: tails shorter than one group /
// block, max-width values, zero-length lists, short buffers, and exact
// agreement with the byte-at-a-time reference decoders on randomized
// inputs.
#include "storage/decode_kernels.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "storage/bitpacking.h"
#include "storage/pfor_codec.h"
#include "testing/scalar_decode.h"

namespace kbtim {
namespace {

using testing::ScalarBitUnpack;
using testing::ScalarGroupVarintDecode;

std::vector<uint32_t> RandomValues(Rng& rng, size_t n, uint32_t max_bits) {
  std::vector<uint32_t> values(n);
  const uint32_t mask =
      max_bits >= 32 ? ~0u : ((uint32_t{1} << max_bits) - 1);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64()) & mask;
  return values;
}

TEST(BitUnpackTest, MatchesScalarAcrossWidthsAndLengths) {
  Rng rng(11);
  for (uint32_t bits = 0; bits <= 32; ++bits) {
    // Lengths straddling the unroll factor, the 128-value PFOR block, and
    // sub-block tails.
    for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                     size_t{31}, size_t{127}, size_t{128}, size_t{129},
                     size_t{1000}}) {
      const uint32_t mask =
          bits >= 32 ? ~0u : (bits == 0 ? 0u : ((1u << bits) - 1));
      std::vector<uint32_t> values(n);
      for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64()) & mask;
      std::string packed;
      BitPack(values.data(), n, bits, &packed);

      std::vector<uint32_t> batch(n, 0xDEADBEEF);
      const size_t used_batch =
          BitUnpack(packed.data(), packed.size(), n, bits, batch.data());
      std::vector<uint32_t> scalar(n, 0xDEADBEEF);
      const size_t used_scalar = ScalarBitUnpack(
          packed.data(), packed.size(), n, bits, scalar.data());
      EXPECT_EQ(used_batch, used_scalar) << "bits=" << bits << " n=" << n;
      EXPECT_EQ(batch, values) << "bits=" << bits << " n=" << n;
      EXPECT_EQ(scalar, values) << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(BitUnpackTest, ShortBufferIsRejectedNotOverread) {
  const std::vector<uint32_t> values(100, 0x1FFFFF);
  std::string packed;
  BitPack(values.data(), values.size(), 21, &packed);
  std::vector<uint32_t> out(values.size());
  EXPECT_EQ(BitUnpack(packed.data(), packed.size() - 1, values.size(), 21,
                      out.data()),
            0u);
}

TEST(BitUnpackTest, ExactAvailNeverLoadsPastEnd) {
  // The 8-byte-load fast path must hand the last values to the scalar
  // tail: decode from a buffer sized EXACTLY to the packed bytes (ASan
  // would flag any overread; the value check catches wrong splits).
  Rng rng(12);
  for (uint32_t bits : {1u, 3u, 7u, 11u, 13u, 19u, 25u, 26u, 31u}) {
    for (size_t n : {size_t{4}, size_t{9}, size_t{64}, size_t{301}}) {
      const uint32_t mask = (uint32_t{1} << bits) - 1;
      std::vector<uint32_t> values(n);
      for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64()) & mask;
      std::string packed;
      BitPack(values.data(), n, bits, &packed);
      // Heap copy sized exactly: any load past `need` reads unowned bytes.
      std::vector<char> exact(packed.begin(), packed.end());
      std::vector<uint32_t> out(n, 0);
      EXPECT_EQ(BitUnpack(exact.data(), exact.size(), n, bits, out.data()),
                exact.size());
      EXPECT_EQ(out, values) << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(GroupVarintKernelTest, TailShorterThanOneGroup) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{6}, size_t{7}}) {
    std::vector<uint32_t> values;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(static_cast<uint32_t>(i * 1000003));
    }
    std::string encoded;
    GroupVarintEncode(values, &encoded);
    if (n == 0) EXPECT_TRUE(encoded.empty());
    std::vector<uint32_t> out(n, 0xDEADBEEF);
    const char* end = GroupVarintDecode(
        encoded.data(), encoded.data() + encoded.size(), n, out.data());
    ASSERT_NE(end, nullptr) << "n=" << n;
    EXPECT_EQ(end, encoded.data() + encoded.size());
    EXPECT_EQ(out, values);
  }
}

TEST(GroupVarintKernelTest, MaxWidthValues) {
  const std::vector<uint32_t> values = {0xFFFFFFFFu, 0,          0xFFFFFFFFu,
                                        0x01000000u, 0x00FFFFFFu, 0xFFFFFFFFu,
                                        0xFFFFFFFFu};
  std::string encoded;
  GroupVarintEncode(values, &encoded);
  const char* limit = encoded.data() + encoded.size();
  std::vector<uint32_t> batch(values.size(), 0);
  std::vector<uint32_t> scalar(values.size(), 0);
  ASSERT_NE(GroupVarintDecode(encoded.data(), limit, values.size(),
                              batch.data()),
            nullptr);
  ASSERT_NE(ScalarGroupVarintDecode(encoded.data(), limit, values.size(),
                                    scalar.data()),
            nullptr);
  EXPECT_EQ(batch, values);
  EXPECT_EQ(scalar, values);
}

TEST(GroupVarintKernelTest, TruncatedInputFailsCleanly) {
  const std::vector<uint32_t> values = {1, 70000, 3, 0xFFFFFFFFu, 9};
  std::string encoded;
  GroupVarintEncode(values, &encoded);
  std::vector<uint32_t> out(values.size());
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_EQ(GroupVarintDecode(encoded.data(), encoded.data() + cut,
                                values.size(), out.data()),
              nullptr)
        << "cut=" << cut;
    EXPECT_EQ(ScalarGroupVarintDecode(encoded.data(), encoded.data() + cut,
                                      values.size(), out.data()),
              nullptr)
        << "cut=" << cut;
  }
}

TEST(GroupVarintCodecTest, RoundTrip) {
  GroupVarintCodec codec;
  EXPECT_STREQ(codec.Name(), "gvarint");
  Rng rng(21);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{127},
                   size_t{1000}}) {
    for (uint32_t width : {4u, 12u, 20u, 32u}) {
      const std::vector<uint32_t> values = RandomValues(rng, n, width);
      std::string encoded;
      codec.Encode(values, &encoded);
      std::vector<uint32_t> decoded;
      ASSERT_TRUE(codec.Decode(encoded, &decoded).ok());
      EXPECT_EQ(decoded, values) << "n=" << n << " width=" << width;
    }
  }
}

TEST(GroupVarintCodecTest, ZeroLengthListDecodes) {
  GroupVarintCodec codec;
  std::string encoded;
  codec.Encode({}, &encoded);
  std::vector<uint32_t> out = {123};
  ASSERT_TRUE(codec.Decode(encoded, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(GroupVarintCodecTest, CorruptCountRejected) {
  GroupVarintCodec codec;
  std::string encoded;
  codec.Encode(std::vector<uint32_t>{1, 2, 3}, &encoded);
  std::vector<uint32_t> out;
  // Truncate inside the payload.
  EXPECT_FALSE(
      codec.Decode(std::string_view(encoded.data(), encoded.size() - 1),
                   &out)
          .ok());
  // Empty input has no count at all.
  EXPECT_FALSE(codec.Decode(std::string_view(), &out).ok());
}

TEST(PforCodecTest, RoundTripOnBlocksAndTails) {
  PforCodec codec;
  Rng rng(31);
  // Tails shorter than one 128-value block, exact blocks, and a skewed
  // distribution that forces exceptions (outliers above the chosen width).
  for (size_t n : {size_t{1}, size_t{100}, size_t{128}, size_t{129},
                   size_t{300}, size_t{1024}}) {
    std::vector<uint32_t> values = RandomValues(rng, n, 10);
    for (size_t i = 0; i < n; i += 37) values[i] = 0xFFFFFFFFu;  // outliers
    std::string encoded;
    codec.Encode(values, &encoded);
    std::vector<uint32_t> decoded;
    ASSERT_TRUE(codec.Decode(encoded, &decoded).ok());
    EXPECT_EQ(decoded, values) << "n=" << n;
  }
}

TEST(MakeCodecTest, GroupVarintIsConstructible) {
  auto codec = MakeCodec(CodecKind::kGroupVarint);
  ASSERT_NE(codec, nullptr);
  EXPECT_STREQ(codec->Name(), "gvarint");
  const std::vector<uint32_t> values = {5, 0, 1u << 30};
  std::string encoded;
  codec->Encode(values, &encoded);
  std::vector<uint32_t> out;
  ASSERT_TRUE(codec->Decode(encoded, &out).ok());
  EXPECT_EQ(out, values);
}

}  // namespace
}  // namespace kbtim
