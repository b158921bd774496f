// Deterministic mutation fuzzer for the WAL reader (common/wal.h) and
// the record scanner on top of it (repair/recovery.h ScanWal). A valid
// journal of several chunks is written once; seeded PRNG mutations of it
// (bit flips, truncations, corrupted length and CRC fields, payload
// edits under a recomputed CRC, and whole-record splices) are scanned
// back. Every scan must return either a run or kMalformedInput, and the
// chunks committed before the first mutated byte must come back intact.
// For the mutations a CRC or a length check catches (everything but
// re-CRC'd payloads and splices) the scan must stop exactly there: the
// same chunks, the same durable prefix, the tail reported as discarded.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/wal.h"
#include "repair/recovery.h"
#include "testing_util.h"

namespace fixrep {
namespace {

constexpr size_t kMagicBytes = 8;
constexpr size_t kFrameOverhead = 4 + 1 + 4;  // length, type, CRC

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

uint32_t LoadU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | static_cast<uint8_t>(bytes[at + static_cast<size_t>(i)]);
  }
  return v;
}

void StoreU32(std::string* bytes, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i) & 0xff);
  }
}

// A frame of the valid log: where it starts and how long it is.
struct Frame {
  size_t begin = 0;
  size_t size = 0;
  uint8_t type = 0;
  size_t end() const { return begin + size; }
};

void ExpectSameChunk(const WalChunk& want, const WalChunk& got, size_t i) {
  SCOPED_TRACE("chunk " + std::to_string(i));
  EXPECT_EQ(want.chunk_index, got.chunk_index);
  EXPECT_EQ(want.base_row, got.base_row);
  EXPECT_EQ(want.rows, got.rows);
  EXPECT_EQ(want.cells_changed, got.cells_changed);
  EXPECT_EQ(want.tuples_quarantined, got.tuples_quarantined);
  EXPECT_TRUE(want.deltas == got.deltas);
  for (const auto& [w, g] :
       {std::pair{&want.quarantined, &got.quarantined},
        std::pair{&want.csv_quarantined, &got.csv_quarantined}}) {
    ASSERT_EQ(w->size(), g->size());
    for (size_t d = 0; d < w->size(); ++d) {
      EXPECT_EQ((*w)[d].line, (*g)[d].line);
      EXPECT_EQ((*w)[d].code, (*g)[d].code);
      EXPECT_EQ((*w)[d].message, (*g)[d].message);
      EXPECT_EQ((*w)[d].raw_text, (*g)[d].raw_text);
    }
  }
}

class WalFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    WalRunHeader header;
    header.rule_fingerprint = 0x5EEDF00Du;
    header.attribute_names = {"country", "capital", "city"};
    header.chunk_rows = 4;
    header.on_error = static_cast<uint8_t>(OnErrorPolicy::kQuarantine);
    Rng rng(0xA11);
    {
      StatusOr<ChunkJournal> journal = ChunkJournal::Create(path_, header);
      ASSERT_TRUE(journal.ok()) << journal.status();
      for (uint64_t c = 1; c <= 6; ++c) {
        ASSERT_TRUE(journal->BeginChunk(c, (c - 1) * 4, 4).ok());
        const uint64_t deltas = rng.Uniform(4);
        for (uint64_t d = 0; d < deltas; ++d) {
          WalCellDelta delta;
          delta.row = rng.Uniform(4);
          delta.attr = static_cast<uint32_t>(rng.Uniform(3));
          delta.old_is_null = rng.Bernoulli(0.2);
          delta.old_value = delta.old_is_null ? "" : "old" + std::to_string(d);
          delta.new_value = "new value " + std::to_string(c * 10 + d);
          delta.rule_index = rng.Uniform(100);
          ASSERT_TRUE(journal->AddDelta(delta).ok());
        }
        if (c % 2 == 0) {
          const Diagnostic csv{c * 4, StatusCode::kMalformedInput, "arity",
                               "a,b"};
          ASSERT_TRUE(journal->AddCsvQuarantine(csv).ok());
        }
        if (c % 3 == 0) {
          const Diagnostic tuple{c * 4 + 1, StatusCode::kBudgetExhausted,
                                 "chase budget", "x,\"y\",z"};
          ASSERT_TRUE(journal->AddQuarantine(tuple).ok());
        }
        ASSERT_TRUE(journal->Commit(c, 4, deltas, c % 3 == 0 ? 1 : 0).ok());
      }
      // An uncommitted tail: a begun chunk with one delta.
      ASSERT_TRUE(journal->BeginChunk(7, 24, 4).ok());
      ASSERT_TRUE(journal->AddDelta({}).ok());
      ASSERT_TRUE(journal->Close().ok());
    }
    log_ = ReadFileBytes(path_);
    for (size_t at = kMagicBytes; at < log_.size();) {
      Frame frame{at, kFrameOverhead + LoadU32(log_, at),
                  static_cast<uint8_t>(log_[at + 4])};
      frames_.push_back(frame);
      if (frame.type == static_cast<uint8_t>(WalRec::kChunkCommit)) {
        commit_ends_.push_back(frame.end());
      }
      at = frame.end();
    }
    ASSERT_EQ(commit_ends_.size(), 6u);
    StatusOr<RecoveredRun> reference = ScanWal(path_);
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_ = std::move(reference).value();
    ASSERT_EQ(reference_.chunks.size(), 6u);
    ASSERT_TRUE(reference_.tail_discarded);
  }

  size_t header_end() const { return frames_.front().end(); }

  // Committed chunks whose commit record lies wholly before `offset`.
  size_t ChunksBefore(size_t offset) const {
    return static_cast<size_t>(
        std::upper_bound(commit_ends_.begin(), commit_ends_.end(), offset) -
        commit_ends_.begin());
  }
  uint64_t DurableBefore(size_t offset) const {
    const size_t k = ChunksBefore(offset);
    return k == 0 ? header_end() : commit_ends_[k - 1];
  }

  // Scans `bytes`. Only kMalformedInput may come back as an error; a run
  // keeps every chunk committed before `first_changed` unchanged.
  StatusOr<RecoveredRun> Scan(const std::string& bytes, size_t first_changed,
                              const std::string& label) {
    SCOPED_TRACE(label);
    WriteFileBytes(path_, bytes);
    StatusOr<RecoveredRun> run = ScanWal(path_);
    if (!run.ok()) {
      EXPECT_EQ(run.status().code(), StatusCode::kMalformedInput)
          << run.status();
      return run;
    }
    EXPECT_LE(run->durable_bytes, bytes.size());
    const size_t kept = ChunksBefore(first_changed);
    EXPECT_GE(run->chunks.size(), kept);
    for (size_t i = 0; i < kept && i < run->chunks.size(); ++i) {
      ExpectSameChunk(reference_.chunks[i], run->chunks[i], i);
    }
    return run;
  }

  // For mutations the frame layer detects: the scan stops at the frame
  // holding byte `changed` — nothing past it survives.
  void ExpectStopsAt(const std::string& bytes, size_t changed,
                     const std::string& label) {
    StatusOr<RecoveredRun> run = Scan(bytes, changed, label);
    SCOPED_TRACE(label);
    if (changed < header_end()) {
      EXPECT_FALSE(run.ok()) << "a log without its header must not scan";
      return;
    }
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->chunks.size(), ChunksBefore(changed));
    EXPECT_EQ(run->durable_bytes, DurableBefore(changed));
    EXPECT_EQ(run->tail_discarded, bytes.size() != run->durable_bytes);
  }

  const Frame& PickFrame(Rng* rng) const {
    return frames_[rng->Uniform(frames_.size())];
  }

  const std::string path_ = testing::TestTempPath("fuzz.wal");
  std::string log_;
  std::vector<Frame> frames_;
  std::vector<size_t> commit_ends_;
  RecoveredRun reference_;
};

TEST_F(WalFuzz, UnmutatedLogScansToTheReference) {
  StatusOr<RecoveredRun> run = Scan(log_, log_.size(), "unmutated");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->chunks.size(), 6u);
  EXPECT_EQ(run->durable_bytes, commit_ends_.back());
}

TEST_F(WalFuzz, BitFlipsStopAtTheFlippedFrame) {
  Rng rng(0xB17);
  for (int c = 0; c < 600 && !HasFatalFailure(); ++c) {
    std::string bytes = log_;
    const size_t at = rng.Uniform(bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.Uniform(8)));
    ExpectStopsAt(bytes, at, "flip at " + std::to_string(at));
  }
}

TEST_F(WalFuzz, TruncationsKeepTheCommittedPrefix) {
  for (size_t size = 0; size <= log_.size() && !HasFatalFailure(); ++size) {
    ExpectStopsAt(log_.substr(0, size), size,
                  "truncated to " + std::to_string(size));
  }
}

TEST_F(WalFuzz, CorruptedLengthFieldsStopAtTheFrame) {
  Rng rng(0x1E7);
  for (int c = 0; c < 400 && !HasFatalFailure(); ++c) {
    const Frame& frame = PickFrame(&rng);
    const uint32_t length = LoadU32(log_, frame.begin);
    uint32_t corrupted = 0;
    switch (rng.Uniform(5)) {
      case 0:
        corrupted = length + 1 + static_cast<uint32_t>(rng.Uniform(64));
        break;
      case 1:
        corrupted = static_cast<uint32_t>(rng.Uniform(length + 1));
        break;
      case 2:
        corrupted = 0xFFFFFFFFu - static_cast<uint32_t>(rng.Uniform(16));
        break;
      case 3:
        corrupted = static_cast<uint32_t>(log_.size());
        break;
      default:
        corrupted = static_cast<uint32_t>(rng.Next());
        break;
    }
    if (corrupted == length) continue;
    std::string bytes = log_;
    StoreU32(&bytes, frame.begin, corrupted);
    ExpectStopsAt(bytes, frame.begin,
                  "length " + std::to_string(corrupted) + " at " +
                      std::to_string(frame.begin));
  }
}

TEST_F(WalFuzz, CorruptedCrcFieldsStopAtTheFrame) {
  Rng rng(0xC8C);
  for (int c = 0; c < 300 && !HasFatalFailure(); ++c) {
    const Frame& frame = PickFrame(&rng);
    std::string bytes = log_;
    const size_t crc_at = frame.end() - 4;
    const uint32_t crc = LoadU32(bytes, crc_at);
    const uint32_t flip = static_cast<uint32_t>(1 + rng.Uniform(0xFFFFFFFEu));
    StoreU32(&bytes, crc_at, crc ^ flip);
    ExpectStopsAt(bytes, frame.begin,
                  "crc at " + std::to_string(frame.begin));
  }
}

TEST_F(WalFuzz, PayloadEditsUnderAValidCrcNeverCrashTheDecoders) {
  // The frame layer accepts these, so the record decoders see hostile
  // payloads: huge counts and lengths, truncated fields, unknown types.
  Rng rng(0xDEC);
  for (int c = 0; c < 800 && !HasFatalFailure(); ++c) {
    const Frame& frame = PickFrame(&rng);
    std::string bytes = log_;
    const size_t body = frame.begin + 4;  // type byte + payload
    const size_t body_size = frame.size - 8;
    const size_t edits = 1 + rng.Uniform(3);
    for (size_t e = 0; e < edits; ++e) {
      const size_t at = body + rng.Uniform(body_size);
      bytes[at] = rng.Bernoulli(0.5) ? static_cast<char>(0xff)
                                     : static_cast<char>(rng.Uniform(256));
    }
    StoreU32(&bytes, frame.end() - 4, Crc32(bytes.data() + body, body_size));
    Scan(bytes, frame.begin, "payload edit at " + std::to_string(frame.begin));
  }
}

TEST_F(WalFuzz, HugeAttributeCountIsRefusedBeforeAllocating) {
  // Header payload: u32 version, u64 fingerprint, u32 attribute count.
  const Frame& header = frames_.front();
  std::string bytes = log_;
  StoreU32(&bytes, header.begin + 5 + 12, 0xFFFFFFF0u);
  StoreU32(&bytes, header.end() - 4,
           Crc32(bytes.data() + header.begin + 4, header.size - 8));
  StatusOr<RecoveredRun> run = Scan(bytes, header.begin, "huge count");
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("undecodable header"),
            std::string::npos)
      << run.status();
}

TEST_F(WalFuzz, RecordSplicesKeepTheEarlierChunks) {
  Rng rng(0x5B1);
  for (int c = 0; c < 600 && !HasFatalFailure(); ++c) {
    const Frame& source = PickFrame(&rng);
    const std::string record = log_.substr(source.begin, source.size);
    // Splice at a frame boundary (or the end of the log).
    const size_t boundary_index = rng.Uniform(frames_.size() + 1);
    const size_t at = boundary_index == frames_.size()
                          ? log_.size()
                          : frames_[boundary_index].begin;
    std::string bytes = log_;
    size_t changed = at;
    switch (rng.Uniform(4)) {
      case 0:  // insert a copy of another record
        bytes.insert(at, record);
        break;
      case 1:  // drop the record at the boundary
        if (boundary_index == frames_.size()) continue;
        bytes.erase(at, frames_[boundary_index].size);
        break;
      case 2:  // overwrite the record at the boundary
        if (boundary_index == frames_.size()) continue;
        bytes.replace(at, frames_[boundary_index].size, record);
        break;
      default:  // move the record: drop it, re-insert it elsewhere
        bytes.erase(source.begin, source.size);
        changed = std::min(at, source.begin);
        bytes.insert(std::min(changed, bytes.size()), record);
        break;
    }
    Scan(bytes, changed, "splice at " + std::to_string(at));
  }
}

TEST_F(WalFuzz, StackedMutationsNeverCrash) {
  Rng rng(0x57AC);
  for (int c = 0; c < 400 && !HasFatalFailure(); ++c) {
    std::string bytes = log_;
    size_t first = bytes.size();
    for (size_t e = 0, n = 2 + rng.Uniform(6); e < n && !bytes.empty(); ++e) {
      const size_t at = rng.Uniform(bytes.size());
      first = std::min(first, at);
      switch (rng.Uniform(3)) {
        case 0:
          bytes[at] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          bytes.erase(at, 1 + rng.Uniform(16));
          break;
        default:
          bytes.insert(at, log_.substr(rng.Uniform(log_.size()),
                                       1 + rng.Uniform(32)));
          break;
      }
    }
    Scan(bytes, first, "stacked case " + std::to_string(c));
  }
}

}  // namespace
}  // namespace fixrep
