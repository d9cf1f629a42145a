// Property / fuzz round-trips for the payload codecs under the index hot
// path: GroupVarintCodec and the monomorphic PforDecodeAppend kernel must
// round-trip ADVERSARIAL inputs — all-zero lists, max-width values,
// block/group-boundary lengths, empty lists — across a seeded RNG sweep,
// and the group-varint kernel must agree byte-for-byte with the scalar
// reference decoder (tests/testing/scalar_decode.h), on valid buffers and
// on corrupt ones; truncated and bit-flipped buffers must fail closed (no
// crash, no OOM, caller's data intact). Run under ASan+UBSan in CI, this
// is the codecs' memory-safety net.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/decode_kernels.h"
#include "storage/pfor_codec.h"
#include "storage/varint.h"
#include "testing/scalar_decode.h"

namespace kbtim {
namespace {

using testing::ScalarGroupVarintDecode;

/// Decodes a GroupVarintCodec buffer (count varint, then groups) with the
/// scalar reference decoder. Returns false wherever the codec must fail.
bool ScalarGroupVarintCodecDecode(std::string_view data,
                                  std::vector<uint32_t>* out) {
  const char* limit = data.data() + data.size();
  uint64_t count = 0;
  const char* p = GetVarint64(data.data(), limit, &count);
  if (p == nullptr || count > static_cast<uint64_t>(limit - p) * 4) {
    return false;
  }
  out->assign(count, 0);
  return ScalarGroupVarintDecode(p, limit, count, out->data()) != nullptr;
}

/// Lengths that straddle every framing boundary: the group-varint group
/// (4), the PFoR block (128), its multiples, and the empty list.
const size_t kBoundaryLengths[] = {0,   1,   2,   3,   4,   5,   7,
                                   8,   63,  64,  127, 128, 129, 255,
                                   256, 257, 383, 384, 511, 512, 513};

/// One adversarial value-shape family per entry.
enum class Shape {
  kAllZero,       // every value 0 (width-0 blocks, 1-byte gvarint lanes)
  kMaxWidth,      // every value 0xFFFFFFFF (32-bit blocks, 4-byte lanes)
  kUniformTiny,   // random values < 16 (dense small widths)
  kUniformFull,   // random full-range u32 (exception-heavy PFoR)
  kMostlySmallWithSpikes,  // PFoR's target case: small + rare outliers
};
const Shape kShapes[] = {Shape::kAllZero, Shape::kMaxWidth,
                         Shape::kUniformTiny, Shape::kUniformFull,
                         Shape::kMostlySmallWithSpikes};

std::vector<uint32_t> MakeValues(Rng& rng, Shape shape, size_t n) {
  std::vector<uint32_t> values(n);
  switch (shape) {
    case Shape::kAllZero:
      std::fill(values.begin(), values.end(), 0u);
      break;
    case Shape::kMaxWidth:
      std::fill(values.begin(), values.end(), ~0u);
      break;
    case Shape::kUniformTiny:
      for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64()) & 15u;
      break;
    case Shape::kUniformFull:
      for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64());
      break;
    case Shape::kMostlySmallWithSpikes:
      for (auto& v : values) {
        v = static_cast<uint32_t>(rng.NextU64()) & 255u;
        if (rng.Bernoulli(0.03)) v |= static_cast<uint32_t>(rng.NextU64());
      }
      break;
  }
  return values;
}

/// Decodes one PforCodec buffer through the monomorphic append kernel,
/// checking framing invariants the production decoders rely on.
void ExpectPforAppendMatches(const std::string& encoded,
                             const std::vector<uint32_t>& want) {
  // Pre-existing data must survive the append untouched.
  std::vector<uint32_t> out = {7u, 8u, 9u};
  size_t added = 0;
  const char* end = PforDecodeAppend(
      encoded.data(), encoded.data() + encoded.size(), out, &added);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end, encoded.data() + encoded.size());
  ASSERT_EQ(added, want.size());
  ASSERT_EQ(out.size(), want.size() + 3);
  EXPECT_EQ(out[0], 7u);
  EXPECT_EQ(out[1], 8u);
  EXPECT_EQ(out[2], 9u);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + 3));
}

TEST(CodecPropertyTest, PforAppendRoundTripSweep) {
  PforCodec codec;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    for (Shape shape : kShapes) {
      for (size_t n : kBoundaryLengths) {
        const std::vector<uint32_t> values = MakeValues(rng, shape, n);
        std::string encoded;
        codec.Encode(values, &encoded);

        ExpectPforAppendMatches(encoded, values);

        // The virtual-dispatch reference decoder agrees.
        std::vector<uint32_t> reference;
        ASSERT_TRUE(codec.Decode(encoded, &reference).ok())
            << "seed=" << seed << " n=" << n;
        EXPECT_EQ(reference, values);
      }
    }
  }
}

TEST(CodecPropertyTest, PforAppendWithTrailingSlackAndConcatenation) {
  // The index partition decoders hand PforDecodeAppend a limit far past
  // the list (the enclosing buffer); several lists decode back-to-back.
  PforCodec codec;
  Rng rng(4242);
  std::string buffer;
  std::vector<std::vector<uint32_t>> lists;
  for (size_t n : {size_t{0}, size_t{5}, size_t{128}, size_t{129},
                   size_t{77}, size_t{256}}) {
    lists.push_back(MakeValues(rng, Shape::kMostlySmallWithSpikes, n));
    codec.Encode(lists.back(), &buffer);
  }
  buffer.append(16, '\xFF');  // slack the decoder must never interpret

  const char* p = buffer.data();
  const char* limit = buffer.data() + buffer.size();
  std::vector<uint32_t> out;
  for (const auto& want : lists) {
    size_t added = 0;
    const size_t before = out.size();
    p = PforDecodeAppend(p, limit, out, &added);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(added, want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + before));
  }
  EXPECT_EQ(p, buffer.data() + buffer.size() - 16);
}

TEST(CodecPropertyTest, PforAppendFailsClosedOnEveryTruncation) {
  PforCodec codec;
  Rng rng(31337);
  for (size_t n : {size_t{1}, size_t{4}, size_t{127}, size_t{128},
                   size_t{200}, size_t{257}}) {
    const std::vector<uint32_t> values =
        MakeValues(rng, Shape::kMostlySmallWithSpikes, n);
    std::string encoded;
    codec.Encode(values, &encoded);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<uint32_t> out = {1u, 2u};
      size_t added = 0;
      const char* end =
          PforDecodeAppend(encoded.data(), encoded.data() + cut, out,
                           &added);
      EXPECT_EQ(end, nullptr) << "n=" << n << " cut=" << cut;
      // Failure restores the caller's vector exactly.
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], 1u);
      EXPECT_EQ(out[1], 2u);
    }
  }
}

TEST(CodecPropertyTest, PforAppendSurvivesBitFlipFuzz) {
  // Random single-byte corruptions: the decoder must either fail closed
  // or produce exactly the framed count — never crash, overread (ASan),
  // or balloon memory (the anti-OOM bound on the leading count).
  PforCodec codec;
  Rng rng(99991);
  const std::vector<uint32_t> values =
      MakeValues(rng, Shape::kMostlySmallWithSpikes, 300);
  std::string pristine;
  codec.Encode(values, &pristine);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = pristine;
    const size_t pos = static_cast<size_t>(
        rng.NextU64Below(corrupt.size()));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^
                                     (1u << rng.NextU64Below(8)));
    std::vector<uint32_t> out;
    size_t added = 0;
    const char* end = PforDecodeAppend(
        corrupt.data(), corrupt.data() + corrupt.size(), out, &added);
    if (end == nullptr) {
      EXPECT_TRUE(out.empty());
    } else {
      EXPECT_EQ(out.size(), added);
      // The anti-OOM bound: whatever the flipped count claims, it fits
      // the sanity envelope of the buffer that framed it.
      EXPECT_LE(added, corrupt.size() * 64 + 128);
    }
  }
}

TEST(CodecPropertyTest, GroupVarintRoundTripSweepMatchesScalar) {
  GroupVarintCodec codec;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 104729);
    for (Shape shape : kShapes) {
      for (size_t n : kBoundaryLengths) {
        const std::vector<uint32_t> values = MakeValues(rng, shape, n);
        std::string encoded;
        codec.Encode(values, &encoded);
        std::vector<uint32_t> decoded, scalar;
        ASSERT_TRUE(codec.Decode(encoded, &decoded).ok())
            << "seed=" << seed << " n=" << n;
        ASSERT_TRUE(ScalarGroupVarintCodecDecode(encoded, &scalar))
            << "seed=" << seed << " n=" << n;
        EXPECT_EQ(decoded, values);
        EXPECT_EQ(scalar, values);
      }
    }
  }
}

TEST(CodecPropertyTest, GroupVarintTruncationFailsLikeScalar) {
  GroupVarintCodec codec;
  Rng rng(271828);
  const std::vector<uint32_t> values =
      MakeValues(rng, Shape::kUniformFull, 41);  // 4-byte lanes + tail
  std::string encoded;
  codec.Encode(values, &encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::string_view truncated(encoded.data(), cut);
    std::vector<uint32_t> decoded;
    const Status status = codec.Decode(truncated, &decoded);
    EXPECT_TRUE(status.IsCorruption()) << "cut=" << cut << " -> " << status;
    EXPECT_FALSE(ScalarGroupVarintCodecDecode(truncated, &decoded))
        << "cut=" << cut;
  }
}

TEST(CodecPropertyTest, GroupVarintBitFlipFuzzMatchesScalar) {
  GroupVarintCodec codec;
  Rng rng(161803);
  const std::vector<uint32_t> values =
      MakeValues(rng, Shape::kMostlySmallWithSpikes, 200);
  std::string pristine;
  codec.Encode(values, &pristine);
  for (int trial = 0; trial < 600; ++trial) {
    std::string corrupt = pristine;
    const size_t pos = static_cast<size_t>(rng.NextU64Below(corrupt.size()));
    corrupt[pos] =
        static_cast<char>(corrupt[pos] ^ (1u << rng.NextU64Below(8)));
    // Either outcome is fine; crashing, overreading, or disagreeing with
    // the scalar reference on the same corrupt bytes is not.
    std::vector<uint32_t> decoded, scalar;
    const Status status = codec.Decode(corrupt, &decoded);
    ASSERT_EQ(status.ok(), ScalarGroupVarintCodecDecode(corrupt, &scalar))
        << "trial=" << trial << " -> " << status;
    if (status.ok()) {
      EXPECT_LE(decoded.size(), corrupt.size() * 4);
      EXPECT_EQ(decoded, scalar) << "trial=" << trial;
    }
  }
}

TEST(CodecPropertyTest, BatchAndScalarGroupVarintAgreeOnRandomBuffers) {
  // Decode-level equivalence on VALID buffers of every residue mod 4
  // (full groups + each partial-group tail), including zero-length.
  Rng rng(55511);
  for (size_t n = 0; n <= 21; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<uint32_t> values(n);
      for (auto& v : values) {
        // Mixed byte-lengths inside one group.
        const uint32_t bytes = 1 + static_cast<uint32_t>(
                                       rng.NextU64Below(4));
        v = static_cast<uint32_t>(rng.NextU64()) &
            (bytes == 4 ? ~0u : ((1u << (8 * bytes)) - 1));
      }
      std::string encoded;
      GroupVarintEncode(values, &encoded);
      std::vector<uint32_t> batch(n, 0xABABABAB);
      std::vector<uint32_t> scalar(n, 0xCDCDCDCD);
      const char* limit = encoded.data() + encoded.size();
      ASSERT_NE(GroupVarintDecode(encoded.data(), limit, n, batch.data()),
                nullptr);
      ASSERT_NE(
          ScalarGroupVarintDecode(encoded.data(), limit, n, scalar.data()),
          nullptr);
      EXPECT_EQ(batch, scalar);
      EXPECT_EQ(batch, values);
    }
  }
}

}  // namespace
}  // namespace kbtim
