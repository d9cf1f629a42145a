// Format compatibility: version 2 is the only index format. A v2 index
// serves RR and IRR answers that agree with every byte CRC-verified and
// no extra logical reads; the verifier recomputes every stored CRC; a
// tampered meta fails its checksum; and a meta of any other version is
// refused by every reader with kCorruption that names the version and
// asks for a rebuild — never served with its checksums unchecked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "index/index_verifier.h"
#include "index/irr_index.h"
#include "index/keyword_cache.h"
#include "index/rr_index.h"
#include "storage/crc32c.h"
#include "storage/io_counter.h"

namespace kbtim {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class IndexFormatCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_fmt_compat_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "compat";
    spec.graph.num_vertices = 800;
    spec.graph.avg_degree = 4.0;
    spec.graph.num_communities = 4;
    spec.graph.seed = 51;
    spec.profiles.num_topics = 4;
    spec.profiles.seed = 52;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 10;
    opts.partition_size = 20;
    opts.num_threads = 2;
    opts.seed = 53;
    opts.max_theta_per_keyword = 10000;
    opts.opt_estimate.pilot_initial = 256;
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts.model), opts);
    ASSERT_TRUE(builder.Build(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void ExpectSameResult(const SeedSetResult& a,
                               const SeedSetResult& b) {
    ASSERT_EQ(a.seeds, b.seeds);
    ASSERT_DOUBLE_EQ(a.estimated_influence, b.estimated_influence);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(IndexFormatCompatTest, MetaReportsItsVersion) {
  auto meta = ReadIndexMeta(MetaFileName(dir_));
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->format_version, kIndexFormatV2);
  // The meta carries the RR preamble of every non-empty topic.
  for (const auto& tm : meta->topics) {
    if (tm.theta > 0) {
      EXPECT_GT(tm.rr_preamble, 0u);
    }
  }
}

TEST_F(IndexFormatCompatTest, VerifiedReadsServeAgreeingAnswers) {
  auto cache = KeywordCache::Create(dir_, {});
  ASSERT_TRUE(cache.ok()) << cache.status();
  auto irr = IrrIndex::Open(*cache);
  auto rr = RrIndex::Open(*cache);
  ASSERT_TRUE(irr.ok() && rr.ok());

  for (const Query& q :
       {Query{{0}, 6}, Query{{1, 2}, 6}, Query{{0, 1, 2, 3}, 10}}) {
    auto a = irr->Query(q);
    auto b = rr->Query(q);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ExpectSameResult(*a, *b);
  }
  // Every byte either path read was checked against its stored CRC.
  EXPECT_GT((*cache)->stats().crc_checks, 0u);
  EXPECT_EQ((*cache)->stats().crc_failures, 0u);
}

TEST_F(IndexFormatCompatTest, ChecksumsAddNoLogicalReads) {
  // Prefetch off, so every read below is a foreground one.
  KeywordCacheOptions options;
  options.prefetch_threads = 0;
  auto cache = KeywordCache::Create(dir_, options);
  ASSERT_TRUE(cache.ok()) << cache.status();
  auto irr = IrrIndex::Open(*cache);
  ASSERT_TRUE(irr.ok());
  const Query q{{0, 1}, 6};

  // Verify-on-read hashes bytes already in memory: a cold query makes
  // exactly one logical read per parsed preamble and per decoded
  // partition, checksums included.
  const IoStats before = IoCounter::Snapshot();
  ASSERT_TRUE(irr->Query(q).ok());
  const IoStats cold = IoCounter::Snapshot() - before;
  const KeywordCacheStats stats = (*cache)->stats();
  EXPECT_GT(stats.crc_checks, 0u);
  EXPECT_EQ(cold.read_ops, stats.preamble_loads + stats.misses);

  // And the warm path is untouched: zero logical reads on repeat.
  const IoStats wbefore = IoCounter::Snapshot();
  ASSERT_TRUE(irr->Query(q).ok());
  EXPECT_EQ((IoCounter::Snapshot() - wbefore).read_ops, 0u);
}

TEST_F(IndexFormatCompatTest, VerifierChecksEveryStoredChecksum) {
  auto verified = VerifyIndex(dir_);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->format_version, kIndexFormatV2);
  EXPECT_GT(verified->checksums_verified, 0u);
  EXPECT_GT(verified->rr_sets_checked, 0u);
  EXPECT_GT(verified->partitions_checked, 0u);
}

TEST_F(IndexFormatCompatTest, V2MetaChecksumCatchesTampering) {
  // Flip one byte of the meta: the whole-file CRC must refuse it.
  const std::string meta_path = MetaFileName(dir_);
  const auto size = std::filesystem::file_size(meta_path);
  {
    std::fstream f(meta_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(size / 2));
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  auto meta = ReadIndexMeta(meta_path);
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsCorruption()) << meta.status();
}

TEST_F(IndexFormatCompatTest, OtherMetaVersionsAreRefusedWithRebuildMessage) {
  const std::string meta_path = MetaFileName(dir_);
  const std::string pristine = ReadFile(meta_path);
  ASSERT_GT(pristine.size(), 12u);
  for (const uint32_t version : {1u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    // Rewrite the version field (bytes 4..7) and reseal the whole-file
    // CRC, so the version check alone has to refuse the meta.
    std::string patched = pristine;
    std::memcpy(patched.data() + 4, &version, sizeof(version));
    const uint32_t crc = crc32c::Mask(
        crc32c::Value(patched.data(), patched.size() - sizeof(crc)));
    std::memcpy(patched.data() + patched.size() - sizeof(crc), &crc,
                sizeof(crc));
    WriteFile(meta_path, patched);

    auto meta = ReadIndexMeta(meta_path);
    ASSERT_FALSE(meta.ok());
    EXPECT_TRUE(meta.status().IsCorruption()) << meta.status();
    const std::string message = meta.status().ToString();
    EXPECT_NE(message.find("version " + std::to_string(version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("rebuild"), std::string::npos) << message;

    auto cache = KeywordCache::Create(dir_, {});
    ASSERT_FALSE(cache.ok());
    EXPECT_TRUE(cache.status().IsCorruption()) << cache.status();

    auto verified = VerifyIndex(dir_);
    ASSERT_FALSE(verified.ok());
    EXPECT_TRUE(verified.status().IsCorruption()) << verified.status();
  }
  // The untouched bytes still read: only the version was refused.
  WriteFile(meta_path, pristine);
  EXPECT_TRUE(ReadIndexMeta(meta_path).ok());
}

}  // namespace
}  // namespace kbtim
