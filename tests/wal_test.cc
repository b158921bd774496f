// The append-only WAL frame layer (common/wal.h): CRC32 correctness,
// frame round trips, torn-tail detection at every truncation point,
// CRC-corruption detection, append-after-scan truncation, and the
// injected IO faults the durability suite leans on. Atomic output
// finalization (common/atomic_file.h) is covered here too.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/wal.h"
#include "testing_util.h"

namespace fixrep {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kFaultInjectionEnabled) FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override {
    if (kFaultInjectionEnabled) FaultRegistry::Global().DisarmAll();
  }

  std::string TempPath(const std::string& name) {
    return testing::TestTempPath(name);
  }

  // Names in the test directory, to prove no staging file is left over.
  std::vector<std::string> DirEntries() const {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(testing::TestTempDir())) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }
};

// ------------------------------------------------------------- checksum --

TEST_F(WalTest, Crc32MatchesKnownAnswer) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST_F(WalTest, Crc32SeedChainsIncrementalComputation) {
  const std::string text = "hello, wal";
  const uint32_t whole = Crc32(text.data(), text.size());
  const uint32_t head = Crc32(text.data(), 4);
  const uint32_t chained = Crc32(text.data() + 4, text.size() - 4, head);
  EXPECT_EQ(chained, whole);
}

// ------------------------------------------------------ cursor encoding --

TEST_F(WalTest, PutGetRoundTripsEveryWidth) {
  std::string payload;
  WalPutU8(&payload, 0xAB);
  WalPutU32(&payload, 0xDEADBEEFu);
  WalPutU64(&payload, 0x0123456789ABCDEFull);
  WalPutString(&payload, "caf\xC3\xA9");
  WalPutString(&payload, "");

  WalCursor cursor(payload);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s1, s2;
  ASSERT_TRUE(cursor.GetU8(&u8));
  ASSERT_TRUE(cursor.GetU32(&u32));
  ASSERT_TRUE(cursor.GetU64(&u64));
  ASSERT_TRUE(cursor.GetString(&s1));
  ASSERT_TRUE(cursor.GetString(&s2));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s1, "caf\xC3\xA9");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(cursor.at_end());
  EXPECT_TRUE(cursor.ok());
}

TEST_F(WalTest, CursorUnderflowPoisonsAllLaterReads) {
  std::string payload;
  WalPutU32(&payload, 7);
  WalCursor cursor(payload);
  uint64_t u64 = 0;
  EXPECT_FALSE(cursor.GetU64(&u64));  // only 4 bytes available
  EXPECT_FALSE(cursor.ok());
  uint32_t u32 = 0;
  EXPECT_FALSE(cursor.GetU32(&u32));  // poisoned even though 4 bytes exist
}

// ------------------------------------------------------- frame round trip --

TEST_F(WalTest, WriteThenReadRoundTripsRecords) {
  const std::string path = TempPath("roundtrip.wal");
  {
    StatusOr<WalWriter> writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer->Append(1, "alpha").ok());
    ASSERT_TRUE(writer->Append(2, "").ok());
    ASSERT_TRUE(writer->Append(3, std::string(1000, 'x')).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  WalRecord record;
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.type, 1);
  EXPECT_EQ(record.payload, "alpha");
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.type, 2);
  EXPECT_EQ(record.payload, "");
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.type, 3);
  EXPECT_EQ(record.payload, std::string(1000, 'x'));
  EXPECT_FALSE(reader->Next(&record));
  EXPECT_FALSE(reader->tail_truncated());  // clean EOF, not a torn tail
}

TEST_F(WalTest, NotAWalFileIsMalformedInput) {
  const std::string path = TempPath("magic.wal");
  WriteFileBytes(path, "definitely,not,a\nwal,file,here\n");
  const StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kMalformedInput);
}

TEST_F(WalTest, MissingFileIsIoError) {
  const StatusOr<WalReader> reader =
      WalReader::Open(TempPath("never_written.wal"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------- torn tails --

// Truncating the file at EVERY byte offset inside the last frame must
// yield the two whole records and a reported torn tail — exactly what a
// mid-write crash leaves.
TEST_F(WalTest, TruncationAtEveryOffsetKeepsTheDurablePrefix) {
  const std::string path = TempPath("torn.wal");
  {
    StatusOr<WalWriter> writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "first").ok());
    ASSERT_TRUE(writer->Append(2, "second").ok());
    ASSERT_TRUE(writer->Append(3, "third-and-torn").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string bytes = ReadFileBytes(path);
  // 9 bytes frame overhead per record.
  const size_t third_frame_start = bytes.size() - (9 + 14);
  for (size_t cut = third_frame_start; cut < bytes.size(); ++cut) {
    WriteFileBytes(path, bytes.substr(0, cut));
    StatusOr<WalReader> reader = WalReader::Open(path);
    ASSERT_TRUE(reader.ok()) << "cut=" << cut;
    WalRecord record;
    ASSERT_TRUE(reader->Next(&record)) << "cut=" << cut;
    EXPECT_EQ(record.payload, "first");
    ASSERT_TRUE(reader->Next(&record)) << "cut=" << cut;
    EXPECT_EQ(record.payload, "second");
    EXPECT_FALSE(reader->Next(&record)) << "cut=" << cut;
    // Cutting exactly at the frame boundary is a clean EOF; every cut
    // inside the third frame is a torn tail.
    EXPECT_EQ(reader->tail_truncated(), cut != third_frame_start)
        << "cut=" << cut;
    EXPECT_EQ(reader->durable_bytes(), third_frame_start) << "cut=" << cut;
  }
}

TEST_F(WalTest, CorruptedCrcStopsAtTheLastGoodFrame) {
  const std::string path = TempPath("crc.wal");
  {
    StatusOr<WalWriter> writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "good").ok());
    ASSERT_TRUE(writer->Append(2, "flipped").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 6] ^= 0x40;  // a payload byte of the second frame
  WriteFileBytes(path, bytes);
  StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord record;
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.payload, "good");
  EXPECT_FALSE(reader->Next(&record));
  EXPECT_TRUE(reader->tail_truncated());
}

TEST_F(WalTest, AbsurdLengthPrefixIsATornTailNotAnAllocation) {
  const std::string path = TempPath("length.wal");
  {
    StatusOr<WalWriter> writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "ok").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  std::string bytes = ReadFileBytes(path);
  std::string huge;
  WalPutU32(&huge, 0xFFFFFFF0u);  // length prefix far past EOF
  bytes += huge + "\x01garbage";
  WriteFileBytes(path, bytes);
  StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord record;
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_FALSE(reader->Next(&record));
  EXPECT_TRUE(reader->tail_truncated());
}

// ------------------------------------------------------- append-after-scan --

TEST_F(WalTest, OpenForAppendTruncatesTheTornTail) {
  const std::string path = TempPath("resume.wal");
  {
    StatusOr<WalWriter> writer = WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "keep").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  // Crash residue: half a frame after the durable prefix.
  uint64_t durable = 0;
  {
    StatusOr<WalReader> reader = WalReader::Open(path);
    ASSERT_TRUE(reader.ok());
    WalRecord record;
    while (reader->Next(&record)) {
    }
    durable = reader->durable_bytes();
  }
  WriteFileBytes(path, ReadFileBytes(path) + "\x05\x00\x00");
  {
    StatusOr<WalWriter> writer = WalWriter::OpenForAppend(path, durable);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer->Append(2, "appended").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord record;
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.payload, "keep");
  ASSERT_TRUE(reader->Next(&record));
  EXPECT_EQ(record.payload, "appended");
  EXPECT_FALSE(reader->Next(&record));
  EXPECT_FALSE(reader->tail_truncated());
}

TEST_F(WalTest, OpenForAppendRejectsAPrefixShorterThanTheMagic) {
  const std::string path = TempPath("short.wal");
  WriteFileBytes(path, "FXREPWAL");
  const StatusOr<WalWriter> writer = WalWriter::OpenForAppend(path, 3);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kMalformedInput);
}

// --------------------------------------------------------- injected faults --

TEST_F(WalTest, InjectedShortWriteIsStickyAndLeavesATornFile) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string path = TempPath("fault_append.wal");
  StatusOr<WalWriter> writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "will-be-halved").ok());
  FaultRegistry::Global().Arm("wal.append", {});
  const Status failed = writer->Sync();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  FaultRegistry::Global().DisarmAll();
  // The error is sticky: later appends refuse rather than write after
  // an unknown number of bytes landed.
  EXPECT_EQ(writer->Append(2, "never").code(), StatusCode::kIoError);
  // And the file itself carries a torn tail a scan must discard.
  StatusOr<WalReader> reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord record;
  EXPECT_FALSE(reader->Next(&record));
  EXPECT_TRUE(reader->tail_truncated());
}

TEST_F(WalTest, InjectedFsyncFailureSurfacesAsIoError) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string path = TempPath("fault_fsync.wal");
  StatusOr<WalWriter> writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "payload").ok());
  FaultRegistry::Global().Arm("wal.fsync", {});
  EXPECT_EQ(writer->Sync().code(), StatusCode::kIoError);
  FaultRegistry::Global().DisarmAll();
}

TEST_F(WalTest, InjectedOpenFailureSurfacesAsIoError) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  FaultRegistry::Global().Arm("wal.open", {});
  const StatusOr<WalWriter> writer =
      WalWriter::Create(TempPath("fault_open.wal"));
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------- atomic output --

TEST_F(WalTest, AtomicFileCommitRenamesAndDiscardLeavesTargetAlone) {
  const std::string path = TempPath("atomic.csv");
  WriteFileBytes(path, "previous contents\n");
  {
    StatusOr<AtomicFile> out = AtomicFile::Create(path);
    ASSERT_TRUE(out.ok()) << out.status().message();
    out->stream() << "half-written";
    // Staged beside the target, under a name of its own.
    const std::vector<std::string> staged = DirEntries();
    ASSERT_EQ(staged.size(), 2u);
    const std::string& temp = staged[0] == "atomic.csv" ? staged[1]
                                                        : staged[0];
    EXPECT_EQ(temp.rfind("atomic.csv.tmp.", 0), 0u) << temp;
    // No Commit: destructor discards the temp file, target untouched.
  }
  EXPECT_EQ(ReadFileBytes(path), "previous contents\n");
  EXPECT_EQ(DirEntries(), std::vector<std::string>{"atomic.csv"});
  {
    StatusOr<AtomicFile> out = AtomicFile::Create(path);
    ASSERT_TRUE(out.ok());
    out->stream() << "new contents\n";
    ASSERT_TRUE(out->Commit().ok());
  }
  EXPECT_EQ(ReadFileBytes(path), "new contents\n");
  EXPECT_EQ(DirEntries(), std::vector<std::string>{"atomic.csv"});
}

TEST_F(WalTest, AtomicFileConcurrentWritersEachCommitOneWholeFile) {
  // Two writers race to publish different bytes at one path. Each stages
  // at its own name, so both commits succeed and the target is exactly
  // one writer's output, never a mix or a truncation.
  const std::string path = TempPath("shared.csv");
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const std::string bytes_a(256 * 1024 + round, 'a');
    const std::string bytes_b(128 * 1024 + round, 'b');
    Status status_a = Status::Ok();
    Status status_b = Status::Ok();
    auto writer = [&path](const std::string& bytes, Status* status) {
      StatusOr<AtomicFile> out = AtomicFile::Create(path);
      if (!out.ok()) {
        *status = out.status();
        return;
      }
      for (size_t i = 0; i < bytes.size(); i += 4096) {
        out->stream().write(bytes.data() + i,
                            static_cast<std::streamsize>(
                                std::min<size_t>(4096, bytes.size() - i)));
      }
      *status = out->Commit();
    };
    std::thread a(writer, std::cref(bytes_a), &status_a);
    std::thread b(writer, std::cref(bytes_b), &status_b);
    a.join();
    b.join();
    ASSERT_TRUE(status_a.ok()) << status_a.message();
    ASSERT_TRUE(status_b.ok()) << status_b.message();
    const std::string published = ReadFileBytes(path);
    EXPECT_TRUE(published == bytes_a || published == bytes_b)
        << "round " << round << ": " << published.size() << " bytes";
    EXPECT_EQ(DirEntries(), std::vector<std::string>{"shared.csv"});
  }
}

TEST_F(WalTest, AtomicFileAppendsPastSeveralWritebackStartsPublishInOrder) {
  // Thousands of small gathered appends of odd sizes, so writeback starts
  // land mid-piece and a last page is often partly written, interleaved
  // with stream() writes: the published file is exactly the concatenation.
  const std::string path = TempPath("appended.csv");
  StatusOr<AtomicFile> out = AtomicFile::Create(path);
  ASSERT_TRUE(out.ok()) << out.status().message();
  std::string want;
  std::string piece;
  for (size_t i = 0; want.size() < (size_t{5} << 20) + 123; ++i) {
    piece.assign(1 + (i * 7919) % 3001, static_cast<char>('a' + i % 26));
    const std::string tail = std::to_string(i) + "\n";
    const std::string_view pieces[] = {piece, "", tail};
    ASSERT_TRUE(out->Append(pieces).ok()) << i;
    want += piece + tail;
    if (i % 97 == 0) {
      out->stream() << "stream " << i << "\n";
      want += "stream " + std::to_string(i) + "\n";
    }
  }
  out->stream() << "last";
  want += "last";
  ASSERT_TRUE(out->Commit().ok());
  EXPECT_EQ(ReadFileBytes(path), want);
  EXPECT_EQ(DirEntries(), std::vector<std::string>{"appended.csv"});
}

TEST_F(WalTest, AtomicFileFaultsLeaveTheTargetUntouched) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without FIXREP_ENABLE_FAULT_INJECTION";
  }
  const std::string path = TempPath("atomic_fault.csv");
  WriteFileBytes(path, "survives\n");
  for (const char* site :
       {"atomic_file.open", "atomic_file.write", "atomic_file.fsync"}) {
    FaultRegistry::Global().Arm(site, {});
    StatusOr<AtomicFile> out = AtomicFile::Create(path);
    if (out.ok()) {
      out->stream() << "doomed";
      EXPECT_EQ(out->Commit().code(), StatusCode::kIoError) << site;
    } else {
      EXPECT_EQ(out.status().code(), StatusCode::kIoError) << site;
    }
    FaultRegistry::Global().DisarmAll();
    EXPECT_EQ(ReadFileBytes(path), "survives\n") << site;
    EXPECT_EQ(DirEntries(), std::vector<std::string>{"atomic_fault.csv"})
        << site;
  }
}

}  // namespace
}  // namespace fixrep
