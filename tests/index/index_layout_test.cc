// The index file layout, pinned outside the code that writes and parses it.
//
// testdata/layout_v2/ holds a small index that IndexBuilder built from the
// spec in its README. The tests read every header field at offsets written
// out here, check index_format's Parse functions against them, require its
// Encode functions to reproduce the committed bytes, and require
// VerifyIndex and one RR and one IRR query to give the recorded results.
// The fixture is never rebuilt: the builder samples in floating point, so a
// rebuild with another compiler or libm need not be byte-equal.
//
// A seeded mutation sweep then damages one preamble at a time, reseals its
// checksums so the damage gets past them, and requires every reader — the
// three Parse functions, KeywordCache, IndexScrubber and VerifyIndex — to
// answer OK or kCorruption: never a crash, an exception or another code.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "index/index_format.h"
#include "index/index_scrubber.h"
#include "index/index_verifier.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "storage/crc32c.h"

namespace kbtim {
namespace {

const std::string kFixtureDir =
    std::string(KBTIM_SOURCE_DIR) + "/tests/index/testdata/layout_v2";

constexpr uint64_t kTheta = 200;  // every topic's θ_w (clipped)
constexpr uint64_t kRrPreamble = 1649;
constexpr uint64_t kIrrPreamble[2] = {824, 820};
constexpr uint64_t kUsers[2] = {118, 117};
constexpr uint64_t kPartitions = 15;
constexpr uint32_t kDelta = 8;

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
T At(const std::string& bytes, uint64_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

template <typename T>
void Put(std::string* bytes, uint64_t offset, T v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

uint32_t Masked(const std::string& bytes, uint64_t begin, uint64_t end) {
  return crc32c::Mask(crc32c::Value(bytes.data() + begin, end - begin));
}

TEST(IndexLayoutTest, HeaderFieldsSitAtTheirOffsets) {
  auto meta = ReadIndexMeta(MetaFileName(kFixtureDir));
  ASSERT_TRUE(meta.ok()) << meta.status();
  ASSERT_EQ(meta->num_topics, 2u);
  EXPECT_EQ(meta->codec, CodecKind::kRaw);
  EXPECT_EQ(meta->partition_size, kDelta);
  for (TopicId w = 0; w < 2; ++w) {
    SCOPED_TRACE("topic " + std::to_string(w));
    const IndexMeta::TopicMeta& tm = meta->topics[w];
    EXPECT_EQ(tm.theta, kTheta);
    EXPECT_EQ(tm.rr_preamble, kRrPreamble);
    EXPECT_EQ(tm.irr_preamble, kIrrPreamble[w]);
    CrcTally tally;

    // rr_<w>.dat: "KBR2" | topic u32 @4 | count u64 @8 | codec u8 @16 |
    // num_pages u64 @17 | header CRC @25 | 201 offsets @29 | directory
    // CRC @1637 | 2 page CRCs @1641 | payload @1649.
    const std::string rr_path = RrFileName(kFixtureDir, w);
    const std::string rr = Slurp(rr_path);
    EXPECT_EQ(rr.substr(0, 4), "KBR2");
    EXPECT_EQ(At<uint32_t>(rr, 4), w);
    EXPECT_EQ(At<uint64_t>(rr, 8), kTheta);
    EXPECT_EQ(At<uint8_t>(rr, 16), 0u);  // CodecKind::kRaw
    EXPECT_EQ(At<uint64_t>(rr, 17), 2u);
    EXPECT_EQ(At<uint32_t>(rr, 25), Masked(rr, 0, 25));
    EXPECT_EQ(At<uint64_t>(rr, 29), kRrPreamble);
    EXPECT_EQ(At<uint64_t>(rr, 29 + 8 * kTheta), rr.size());
    EXPECT_EQ(At<uint32_t>(rr, 1637), Masked(rr, 29, 1637));
    EXPECT_EQ(At<uint32_t>(rr, 1641), Masked(rr, 1649, 1649 + 4096));
    EXPECT_EQ(At<uint32_t>(rr, 1645), Masked(rr, 1649 + 4096, rr.size()));
    auto rr_parsed =
        ParseRrPreamble(std::string_view(rr).substr(0, kRrPreamble),
                        rr.size(), w, CodecKind::kRaw, kTheta, rr_path,
                        &tally);
    ASSERT_TRUE(rr_parsed.ok()) << rr_parsed.status();
    EXPECT_EQ(rr_parsed->header.topic, w);
    EXPECT_EQ(rr_parsed->header.count, kTheta);
    EXPECT_EQ(rr_parsed->header.codec, CodecKind::kRaw);
    EXPECT_EQ(rr_parsed->header.num_pages, 2u);
    ASSERT_EQ(rr_parsed->offsets.size(), kTheta + 1);
    for (uint64_t i = 0; i <= kTheta; ++i) {
      EXPECT_EQ(rr_parsed->offsets[i], At<uint64_t>(rr, 29 + 8 * i));
    }
    EXPECT_EQ(rr_parsed->page_crcs,
              (std::vector<uint32_t>{At<uint32_t>(rr, 1641),
                                     At<uint32_t>(rr, 1645)}));

    // lists_<w>.dat: "KBL2" | topic u32 @4 | count u64 @8 | codec u8 @16 |
    // payload CRC @17 | header CRC @21 | payload @25.
    const std::string lists_path = ListsFileName(kFixtureDir, w);
    const std::string lists = Slurp(lists_path);
    EXPECT_EQ(lists.substr(0, 4), "KBL2");
    EXPECT_EQ(At<uint32_t>(lists, 4), w);
    EXPECT_EQ(At<uint64_t>(lists, 8), kUsers[w]);
    EXPECT_EQ(At<uint8_t>(lists, 16), 0u);
    EXPECT_EQ(At<uint32_t>(lists, 17), Masked(lists, 25, lists.size()));
    EXPECT_EQ(At<uint32_t>(lists, 21), Masked(lists, 0, 21));
    auto lists_parsed =
        ParseListsFile(lists, w, CodecKind::kRaw, lists_path, &tally);
    ASSERT_TRUE(lists_parsed.ok()) << lists_parsed.status();
    EXPECT_EQ(lists_parsed->header.topic, w);
    EXPECT_EQ(lists_parsed->header.num_entries, kUsers[w]);
    EXPECT_EQ(lists_parsed->header.codec, CodecKind::kRaw);
    EXPECT_EQ(lists_parsed->payload, std::string_view(lists).substr(25));

    // irr_<w>.dat: "KBI2" | topic u32 @4 | num_users u64 @8 |
    // num_partitions u64 @16 | delta u32 @24 | codec u8 @28 | theta u64
    // @29 | header CRC @37 | IP map @41 | 15 directory entries of 36 bytes
    // ending at the preamble CRC @(preamble - 4).
    const std::string irr_path = IrrFileName(kFixtureDir, w);
    const std::string irr = Slurp(irr_path);
    const uint64_t pre = kIrrPreamble[w];
    const uint64_t dir_at = pre - 4 - 36 * kPartitions;
    EXPECT_EQ(irr.substr(0, 4), "KBI2");
    EXPECT_EQ(At<uint32_t>(irr, 4), w);
    EXPECT_EQ(At<uint64_t>(irr, 8), kUsers[w]);
    EXPECT_EQ(At<uint64_t>(irr, 16), kPartitions);
    EXPECT_EQ(At<uint32_t>(irr, 24), kDelta);
    EXPECT_EQ(At<uint8_t>(irr, 28), 0u);
    EXPECT_EQ(At<uint64_t>(irr, 29), kTheta);
    EXPECT_EQ(At<uint32_t>(irr, 37), Masked(irr, 0, 37));
    EXPECT_EQ(At<uint32_t>(irr, pre - 4), Masked(irr, 0, pre - 4));
    auto irr_parsed =
        ParseIrrPreamble(std::string_view(irr).substr(0, pre), irr.size(), w,
                         CodecKind::kRaw, kTheta, irr_path, &tally);
    ASSERT_TRUE(irr_parsed.ok()) << irr_parsed.status();
    EXPECT_EQ(irr_parsed->header.topic, w);
    EXPECT_EQ(irr_parsed->header.num_users, kUsers[w]);
    EXPECT_EQ(irr_parsed->header.num_partitions, kPartitions);
    EXPECT_EQ(irr_parsed->header.delta, kDelta);
    EXPECT_EQ(irr_parsed->header.codec, CodecKind::kRaw);
    EXPECT_EQ(irr_parsed->header.theta, kTheta);
    EXPECT_EQ(irr_parsed->ip_map,
              std::string_view(irr).substr(41, dir_at - 41));
    ASSERT_EQ(irr_parsed->directory.size(), kPartitions);
    uint64_t next = pre;
    for (uint64_t p = 0; p < kPartitions; ++p) {
      const uint64_t e = dir_at + 36 * p;
      const IrrPartitionInfo& info = irr_parsed->directory[p];
      EXPECT_EQ(At<uint64_t>(irr, e), next);  // partitions are contiguous
      EXPECT_EQ(info.offset, At<uint64_t>(irr, e));
      EXPECT_EQ(info.length, At<uint64_t>(irr, e + 8));
      EXPECT_EQ(info.num_users, At<uint32_t>(irr, e + 16));
      EXPECT_EQ(info.num_sets, At<uint32_t>(irr, e + 20));
      EXPECT_EQ(info.max_list_len, At<uint32_t>(irr, e + 24));
      EXPECT_EQ(info.min_list_len, At<uint32_t>(irr, e + 28));
      EXPECT_EQ(info.crc, At<uint32_t>(irr, e + 32));
      EXPECT_EQ(info.crc, Masked(irr, info.offset, info.offset + info.length));
      next = info.offset + info.length;
    }
    EXPECT_EQ(next, irr.size());
    // Header and directory CRCs per file kind: RR 2, lists 2, IRR 2.
    EXPECT_EQ(tally.checks, 6u);
    EXPECT_EQ(tally.failures, 0u);
  }
}

TEST(IndexLayoutTest, EncodeReproducesTheCommittedBytes) {
  CrcTally tally;
  for (TopicId w = 0; w < 2; ++w) {
    SCOPED_TRACE("topic " + std::to_string(w));
    const std::string rr = Slurp(RrFileName(kFixtureDir, w));
    auto rr_parsed =
        ParseRrPreamble(std::string_view(rr).substr(0, kRrPreamble),
                        rr.size(), w, CodecKind::kRaw, kTheta, "rr", &tally);
    ASSERT_TRUE(rr_parsed.ok()) << rr_parsed.status();
    std::vector<uint64_t> relative = rr_parsed->offsets;
    for (uint64_t& off : relative) off -= kRrPreamble;
    const std::string rr_payload = rr.substr(kRrPreamble);
    EXPECT_TRUE(EncodeRrPreamble(w, CodecKind::kRaw, relative, rr_payload) +
                    rr_payload ==
                rr);

    const std::string lists = Slurp(ListsFileName(kFixtureDir, w));
    auto lists_parsed =
        ParseListsFile(lists, w, CodecKind::kRaw, "lists", &tally);
    ASSERT_TRUE(lists_parsed.ok()) << lists_parsed.status();
    EXPECT_TRUE(EncodeListsHeader(lists_parsed->header,
                                  lists_parsed->payload) +
                    std::string(lists_parsed->payload) ==
                lists);

    const std::string irr = Slurp(IrrFileName(kFixtureDir, w));
    const uint64_t pre = kIrrPreamble[w];
    auto irr_parsed =
        ParseIrrPreamble(std::string_view(irr).substr(0, pre), irr.size(), w,
                         CodecKind::kRaw, kTheta, "irr", &tally);
    ASSERT_TRUE(irr_parsed.ok()) << irr_parsed.status();
    std::vector<IrrPartitionInfo> directory = irr_parsed->directory;
    for (IrrPartitionInfo& info : directory) info.offset -= pre;
    const std::string partitions = irr.substr(pre);
    EXPECT_TRUE(EncodeIrrPreamble(irr_parsed->header, irr_parsed->ip_map,
                                  directory, partitions) +
                    partitions ==
                irr);
  }
}

TEST(IndexLayoutTest, VerifyIndexAcceptsTheFixture) {
  auto verified = VerifyIndex(kFixtureDir);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->topics_checked, 2u);
  EXPECT_EQ(verified->rr_sets_checked, 2 * kTheta);
  EXPECT_EQ(verified->inverted_entries_checked, kUsers[0] + kUsers[1]);
  EXPECT_EQ(verified->partitions_checked, 2 * kPartitions);
  // Per topic: RR header, directory and 2 pages; lists header and
  // payload; IRR header, preamble and 15 partitions.
  EXPECT_EQ(verified->checksums_verified, 46u);
}

TEST(IndexLayoutTest, QueriesAnswerTheRecordedSeeds) {
  auto rr = RrIndex::Open(kFixtureDir);
  ASSERT_TRUE(rr.ok()) << rr.status();
  auto rr_answer = rr->Query(Query{{1}, 4});
  ASSERT_TRUE(rr_answer.ok()) << rr_answer.status();
  EXPECT_EQ(rr_answer->seeds, (std::vector<VertexId>{14, 8, 21, 11}));
  EXPECT_DOUBLE_EQ(rr_answer->estimated_influence, 22.172006751805945);

  auto irr = IrrIndex::Open(kFixtureDir);
  ASSERT_TRUE(irr.ok()) << irr.status();
  auto irr_answer = irr->Query(Query{{0, 1}, 3});
  ASSERT_TRUE(irr_answer.ok()) << irr_answer.status();
  EXPECT_EQ(irr_answer->seeds, (std::vector<VertexId>{14, 8, 2}));
  EXPECT_DOUBLE_EQ(irr_answer->estimated_influence, 38.263416403915585);
}

// ---- Mutation sweep ----------------------------------------------------------

enum class FileKind { kRr, kLists, kIrr };

std::string FileName(const std::string& dir, FileKind kind, TopicId w) {
  switch (kind) {
    case FileKind::kRr:
      return RrFileName(dir, w);
    case FileKind::kLists:
      return ListsFileName(dir, w);
    case FileKind::kIrr:
      return IrrFileName(dir, w);
  }
  return "";
}

uint64_t PreambleLength(FileKind kind, TopicId w, uint64_t file_size) {
  switch (kind) {
    case FileKind::kRr:
      return kRrPreamble;
    case FileKind::kLists:
      return file_size;  // read whole
    case FileKind::kIrr:
      return kIrrPreamble[w];
  }
  return 0;
}

/// Reseals the CRCs a mutation of `kind`'s fixed fields invalidated, at
/// the positions the (possibly mutated) header claims where they fit, so
/// the damage reaches the layout checks behind the checksums.
void Reseal(FileKind kind, TopicId w, std::string* b) {
  switch (kind) {
    case FileKind::kRr: {
      Put<uint32_t>(b, 25, Masked(*b, 0, 25));
      // (count + 1) * 8 may wrap, as a reader trusting count computes it.
      uint64_t dir_end = 29 + (At<uint64_t>(*b, 8) + 1) * 8;
      if (dir_end < 29 || dir_end > kRrPreamble - 4) dir_end = 29 + 8 * 201;
      Put<uint32_t>(b, dir_end, Masked(*b, 29, dir_end));
      break;
    }
    case FileKind::kLists:
      Put<uint32_t>(b, 17, Masked(*b, 25, b->size()));
      Put<uint32_t>(b, 21, Masked(*b, 0, 21));
      break;
    case FileKind::kIrr: {
      const uint64_t pre = kIrrPreamble[w];
      Put<uint32_t>(b, 37, Masked(*b, 0, 37));
      Put<uint32_t>(b, pre - 4, Masked(*b, 0, pre - 4));
      break;
    }
  }
}

/// Offset of field `field` (0..6) of IRR directory entry `p`.
uint64_t IrrEntryField(TopicId w, uint64_t p, int field) {
  static constexpr uint64_t kAt[] = {0, 8, 16, 20, 24, 28, 32};
  return kIrrPreamble[w] - 4 - 36 * kPartitions + 36 * p + kAt[field];
}

struct Field {
  uint64_t offset;
  int width;  // bytes: 1, 4 or 8
};

/// The fixed-width fields of one file kind: header fields, then (for RR
/// and IRR) directory entries.
std::vector<Field> FieldsOf(FileKind kind, TopicId w) {
  std::vector<Field> fields;
  switch (kind) {
    case FileKind::kRr:
      fields = {{4, 4}, {8, 8}, {16, 1}, {17, 8}};
      for (uint64_t i = 0; i <= kTheta; ++i) fields.push_back({29 + 8 * i, 8});
      break;
    case FileKind::kLists:
      fields = {{4, 4}, {8, 8}, {16, 1}};
      break;
    case FileKind::kIrr:
      fields = {{4, 4}, {8, 8}, {16, 8}, {24, 4}, {28, 1}, {29, 8}};
      for (uint64_t p = 0; p < kPartitions; ++p) {
        for (int f = 0; f < 7; ++f) {
          fields.push_back({IrrEntryField(w, p, f), f < 2 ? 8 : 4});
        }
      }
      break;
  }
  return fields;
}

void WriteField(std::string* b, const Field& field, uint64_t v) {
  switch (field.width) {
    case 1:
      Put<uint8_t>(b, field.offset, static_cast<uint8_t>(v));
      break;
    case 4:
      Put<uint32_t>(b, field.offset, static_cast<uint32_t>(v));
      break;
    default:
      Put<uint64_t>(b, field.offset, v);
  }
}

uint64_t ReadField(const std::string& b, const Field& field) {
  switch (field.width) {
    case 1:
      return At<uint8_t>(b, field.offset);
    case 4:
      return At<uint32_t>(b, field.offset);
    default:
      return At<uint64_t>(b, field.offset);
  }
}

struct Mutant {
  std::string name;
  FileKind kind;
  TopicId topic;
  std::function<void(std::string*)> mutate;  // then Reseal
};

class IndexLayoutSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_layout_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::copy(kFixtureDir, dir_);
    // The scrubber logs every detection; the sweep makes hundreds.
    saved_severity_ = MinLogSeverity();
    SetMinLogSeverity(LogSeverity::kError);
  }

  void TearDown() override {
    SetMinLogSeverity(saved_severity_);
    std::filesystem::remove_all(dir_);
  }

  /// Writes the mutant's file, runs every reader over it, and restores the
  /// pristine file. Every reader must answer OK or kCorruption; when the
  /// file's Parse refuses it, every reader of that file must refuse it
  /// too. With `must_refuse`, Parse must refuse it.
  void Probe(const Mutant& m, bool must_refuse) {
    SCOPED_TRACE(m.name);
    const std::string path = FileName(dir_, m.kind, m.topic);
    const std::string pristine = Slurp(path);
    std::string bytes = pristine;
    m.mutate(&bytes);
    if (bytes.size() == pristine.size()) Reseal(m.kind, m.topic, &bytes);
    Spit(path, bytes);
    try {
      RunReaders(m, bytes, must_refuse);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "unknown exception";
    }
    Spit(path, pristine);
  }

  void RunReaders(const Mutant& m, const std::string& bytes,
                  bool must_refuse) {
    auto expect_clean = [](const Status& s, const char* reader) {
      EXPECT_TRUE(s.ok() || s.IsCorruption()) << reader << ": " << s;
    };
    const TopicId w = m.topic;
    const std::string_view view(bytes);
    const uint64_t pre =
        std::min<uint64_t>(PreambleLength(m.kind, w, bytes.size()),
                           bytes.size());
    CrcTally tally;
    Status parsed;
    switch (m.kind) {
      case FileKind::kRr:
        parsed = ParseRrPreamble(view.substr(0, pre), bytes.size(), w,
                                 CodecKind::kRaw, kTheta, "rr", &tally)
                     .status();
        break;
      case FileKind::kLists:
        parsed =
            ParseListsFile(view, w, CodecKind::kRaw, "lists", &tally).status();
        break;
      case FileKind::kIrr:
        parsed = ParseIrrPreamble(view.substr(0, pre), bytes.size(), w,
                                  CodecKind::kRaw, kTheta, "irr", &tally)
                     .status();
        break;
    }
    expect_clean(parsed, "Parse");
    if (must_refuse) {
      EXPECT_TRUE(parsed.IsCorruption()) << parsed;
    }
    // When Parse refuses the file, so must every reader of it.
    auto expect_agrees = [&](const Status& s, const char* reader) {
      expect_clean(s, reader);
      if (!parsed.ok()) {
        EXPECT_TRUE(s.IsCorruption()) << reader << ": " << s;
      }
    };

    KeywordCacheOptions copts;
    copts.prefetch_threads = 0;
    auto cache = KeywordCache::Create(dir_, copts);
    ASSERT_TRUE(cache.ok()) << cache.status();
    const Status rr = (*cache)->GetRrKeyword(w, kTheta).status();
    Status irr;
    if (auto entry = (*cache)->GetIrrKeyword(w); entry.ok()) {
      for (uint64_t p = 0; p < (*entry)->num_partitions && irr.ok(); ++p) {
        irr = (*cache)->GetIrrPartition(**entry, p).status();
      }
    } else {
      irr = entry.status();
    }
    if (m.kind == FileKind::kIrr) {
      expect_agrees(irr, "KeywordCache IRR");
      expect_clean(rr, "KeywordCache RR");
    } else {
      expect_agrees(rr, "KeywordCache RR");
      expect_clean(irr, "KeywordCache IRR");
    }

    IndexScrubberOptions sopts;
    sopts.pace_ms = 0;
    sopts.repair = false;
    IndexScrubber scrubber(*cache, sopts);
    expect_agrees(scrubber.ScrubTopic(w), "IndexScrubber");
    expect_agrees(VerifyIndex(dir_).status(), "VerifyIndex");
  }

  std::string dir_;
  LogSeverity saved_severity_ = LogSeverity::kInfo;
};

TEST_F(IndexLayoutSweepTest, PinnedDamageIsRefusedByEveryReader) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const uint64_t irr0_size = Slurp(IrrFileName(dir_, 0)).size();
  const std::vector<Mutant> pinned = {
      // (count + 1) * 8 wraps to 8 and num_pages keeps the preamble length
      // the meta records; a reader trusting count sizes a 2^61-entry
      // directory.
      {"rr count 2^61", FileKind::kRr, 0,
       [](std::string* b) {
         Put<uint64_t>(b, 8, uint64_t{1} << 61);
         Put<uint64_t>(b, 17, (kRrPreamble - 29 - 8 - 4) / 4);
       }},
      {"rr count 0", FileKind::kRr, 0,
       [](std::string* b) { Put<uint64_t>(b, 8, 0); }},
      // One offset fewer, two pages more: the preamble length still
      // matches, but the page table runs past the payload.
      {"rr num_pages past the payload", FileKind::kRr, 1,
       [](std::string* b) {
         Put<uint64_t>(b, 8, kTheta - 1);
         Put<uint64_t>(b, 17, 4);
       }},
      {"rr offsets unsorted", FileKind::kRr, 0,
       [](std::string* b) {
         const uint64_t a = At<uint64_t>(*b, 29 + 8 * 10);
         Put<uint64_t>(b, 29 + 8 * 10, At<uint64_t>(*b, 29 + 8 * 11));
         Put<uint64_t>(b, 29 + 8 * 11, a);
       }},
      {"lists of another topic", FileKind::kLists, 1,
       [this](std::string* b) { *b = Slurp(ListsFileName(dir_, 0)); }},
      {"irr num_partitions past the preamble", FileKind::kIrr, 0,
       [](std::string* b) { Put<uint64_t>(b, 16, 1000); }},
      {"irr num_users past the preamble", FileKind::kIrr, 1,
       [](std::string* b) { Put<uint64_t>(b, 8, 100000); }},
      // The layout holds; the file stores fewer sets than the meta's θ_w.
      {"irr theta below the meta", FileKind::kIrr, 0,
       [](std::string* b) { Put<uint64_t>(b, 29, 10); }},
      {"irr partition offset inside the preamble", FileKind::kIrr, 0,
       [](std::string* b) { Put<uint64_t>(b, IrrEntryField(0, 0, 0), 100); }},
      {"irr partition offset past EOF", FileKind::kIrr, 0,
       [irr0_size](std::string* b) {
         Put<uint64_t>(b, IrrEntryField(0, kPartitions - 1, 0),
                       irr0_size + 1);
       }},
      // offset + length wraps to 16, inside the file.
      {"irr partition length wraps", FileKind::kIrr, 0,
       [](std::string* b) {
         const uint64_t offset = At<uint64_t>(*b, IrrEntryField(0, 0, 0));
         Put<uint64_t>(b, IrrEntryField(0, 0, 1), kMax - offset + 17);
       }},
      // A decoder reserving from this count asks for 2^32 entries.
      {"irr partition num_users 2^32-1", FileKind::kIrr, 0,
       [](std::string* b) {
         Put<uint32_t>(b, IrrEntryField(0, 0, 2), ~uint32_t{0});
       }},
      // The preamble verifies; the last partition is cut short.
      {"irr tail truncated", FileKind::kIrr, 1,
       [](std::string* b) { b->resize(b->size() - 64); }},
  };
  for (const Mutant& m : pinned) Probe(m, /*must_refuse=*/true);
}

TEST_F(IndexLayoutSweepTest, SeededMutationsEndInOkOrCorruption) {
  constexpr int kSeeds = 1000;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1);
    const auto kind = static_cast<FileKind>(rng.NextU32Below(3));
    const TopicId w = rng.NextU32Below(2);
    Mutant m{"seed " + std::to_string(seed), kind, w, nullptr};
    const uint64_t pick = rng.NextU64();
    const uint64_t noise = rng.NextU64();
    if (rng.NextU32Below(4) != 0) {
      // One field to an interesting value.
      const std::vector<Field> fields = FieldsOf(kind, w);
      const Field field = fields[pick % fields.size()];
      m.mutate = [field, noise](std::string* b) {
        const uint64_t v = ReadField(*b, field);
        const uint64_t values[] = {0,
                                   1,
                                   v - 1,
                                   v + 1,
                                   v * 2,
                                   v + b->size(),
                                   uint64_t{1} << 31,
                                   ~uint32_t{0},
                                   uint64_t{1} << 32,
                                   uint64_t{1} << 61,
                                   ~uint64_t{0} - v + 1,
                                   ~uint64_t{0},
                                   noise};
        WriteField(b, field, values[noise % std::size(values)]);
      };
    } else {
      // A few random bytes anywhere in the preamble (header for lists).
      m.mutate = [kind, w, pick, noise](std::string* b) {
        const uint64_t span =
            kind == FileKind::kLists ? 25 : PreambleLength(kind, w, 0);
        for (int i = 0; i < 1 + static_cast<int>(pick % 4); ++i) {
          (*b)[(pick >> (8 + 12 * i)) % span] =
              static_cast<char>(noise >> (8 * i));
        }
      };
    }
    Probe(m, /*must_refuse=*/false);
    if (HasFailure()) break;  // one replayable seed is enough
  }
}

}  // namespace
}  // namespace kbtim
