// Mutation fuzzer for the daemon's wire protocol (serve/protocol.cc).
// Valid request and response frames are mutated with a seeded PRNG —
// bit flips, truncations, corrupted length prefixes (the frame's own and
// the payload's string lengths) and splices of two frames — and every
// result is fed in seeded pieces through FrameReader -> Frame::Verify ->
// DecodeRequest / DecodeResponse, the daemon's and the client's receive
// path. Payload-level mutations are re-framed with a correct CRC so they
// reach the decoders instead of stopping at Verify.
//
// Properties: nothing crashes or over-allocates; every outcome is one of
// the documented ones (a FrameParse value, or kMalformedInput from
// Verify and the decoders); a decoded repair CSV is a view into its
// frame; a payload a decoder accepts re-encodes to exactly its bytes;
// and every unmutated frame round-trips byte for byte.
//
// Repair responses carry a splice over the request CSV. Their edits are
// mutated too — unsorted, overlapping, out of range, overflowing,
// miscounted — and applied with ApplyCsvSplice, in process and through
// Client::Submit against a fake daemon: each either matches a reference
// splice written with 128-bit arithmetic or fails with a Status.
//
// A live daemon's receive path gets requests one byte at a time, split
// at every header and trailer byte, and pipelined in one write; a
// header that announces the 1 GiB cap and then stalls; and a client
// handed a batch over the cap (a PROT_NONE reservation, so any read of
// it faults), which must refuse before sending a byte.

#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/wal.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "repair/session.h"
#include "rules/rule_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "testing_util.h"

namespace fixrep::serve {
namespace {

constexpr size_t kHeaderBytes = 8;   // magic + payload length
constexpr size_t kTrailerBytes = 4;  // CRC-32C
constexpr int kRounds = 20000;

std::string Framed(const std::string& payload) {
  std::string frame;
  AppendFrame(&frame, payload);
  return frame;
}

std::vector<std::string> RequestPayloads() {
  std::vector<std::string> out;
  Request ping;
  out.push_back(EncodeRequest(ping));
  Request list;
  list.verb = Verb::kList;
  out.push_back(EncodeRequest(list));
  Request reload;
  reload.verb = Verb::kReload;
  reload.reload.tenant = "hosp";
  reload.reload.spec = "rules.txt@a,b,c";
  out.push_back(EncodeRequest(reload));
  out.push_back(EncodeRepairRequest("hosp", {}, ""));
  out.push_back(EncodeRepairRequest(
      "travel", {{"engine", "crepair"}, {"threads", "4"}},
      "name,city\n\"Smith, J\",\"New\nYork\"\nLi,\"say \"\"hi\"\"\"\n"));
  std::string big = "a,b,c\n";
  for (int i = 0; i < 200; ++i) {
    big += std::to_string(i) + ",x" + std::to_string(i % 7) + ",y\n";
  }
  out.push_back(EncodeRepairRequest("uis", {{"on-error", "quarantine"}}, big));
  return out;
}

std::vector<std::string> ResponsePayloads() {
  std::vector<std::string> out;
  Response ping;
  ping.ping = {3, 17, 2};
  out.push_back(EncodeResponse(ping));
  Response list;
  list.verb = Verb::kList;
  list.rule_sets = {{"hosp", 120, 1, false}, {"hospdict", 120, 4, true}};
  out.push_back(EncodeResponse(list));
  Response reload;
  reload.verb = Verb::kReload;
  reload.reload = {2, 99};
  out.push_back(EncodeResponse(reload));
  Response repair;
  repair.verb = Verb::kRepair;
  repair.repair.rows = 2;
  repair.repair.cells_changed = 1;
  repair.repair.tuples_quarantined = 1;
  repair.repair.records_dropped = 1;
  repair.repair.splice = {15,
                          {{0, 4, 4}, {8, 4, 0}, {14, 0, 5}},
                          "a,b\n1,\"x\""};
  repair.repair.quarantine = "source,line\ncsv,3\n";
  out.push_back(EncodeResponse(repair));
  Response unchanged;
  unchanged.verb = Verb::kRepair;
  unchanged.repair.rows = 200;
  unchanged.repair.splice.output_size = 4096;
  out.push_back(EncodeResponse(unchanged));
  Response error;
  error.verb = Verb::kRepair;
  error.status = Status::Unavailable("request queue is full; retry later");
  out.push_back(EncodeResponse(error));
  return out;
}

// How far mutated inputs got, so a fuzzer that stopped reaching the
// decoders fails instead of passing vacuously.
struct Reach {
  size_t frames = 0;    // completed by FrameReader
  size_t verified = 0;  // passed Frame::Verify
  size_t accepted = 0;  // decoded by DecodeRequest or DecodeResponse
  size_t rejected = 0;  // refused by both decoders
};

// Decoding must either succeed or fail with kMalformedInput, a repair
// CSV must be decoded in place, and an accepted payload re-encodes to
// its bytes. Returns whether the payload was accepted.
bool CheckRequestDecode(std::string_view payload) {
  StatusOr<Request> decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kMalformedInput)
        << decoded.status();
    return false;
  }
  const std::string_view csv = decoded->repair.csv;
  if (!csv.empty()) {
    EXPECT_GE(csv.data(), payload.data());
    EXPECT_LE(csv.data() + csv.size(), payload.data() + payload.size());
  }
  EXPECT_EQ(EncodeRequest(decoded.value()), payload);
  return true;
}

bool CheckResponseDecode(std::string_view payload) {
  StatusOr<Response> decoded = DecodeResponse(payload);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kMalformedInput)
        << decoded.status();
    return false;
  }
  EXPECT_EQ(EncodeResponse(decoded.value()), payload);
  return true;
}

// Runs a byte stream through the receive path, fed in seeded pieces of
// 1 to 64 bytes or all at once: take frames until the stream runs out,
// verify each, decode the verified ones as both a request and a
// response.
void Drive(const std::string& stream, Rng* rng, Reach* reach) {
  FrameReader reader;
  std::string_view rest = stream;
  size_t frame_start = 0;  // stream offset where the current frame began
  while (true) {
    const size_t piece =
        rng->Bernoulli(0.5) ? rest.size() : 1 + rng->Uniform(64);
    std::string_view bytes = rest.substr(0, piece);
    const FrameParse parse = reader.Feed(&bytes);
    const size_t fed = std::min(piece, rest.size()) - bytes.size();
    rest.remove_prefix(fed);
    if (parse == FrameParse::kNeedMore) {
      EXPECT_TRUE(bytes.empty());  // a short piece is taken whole
      if (rest.empty()) return;
      continue;
    }
    if (parse == FrameParse::kBadMagic || parse == FrameParse::kTooLarge) {
      return;  // the daemon drops the connection
    }
    ASSERT_EQ(parse, FrameParse::kFrame);
    const Frame frame = reader.TakeFrame();
    const size_t consumed = stream.size() - rest.size() - frame_start;
    ASSERT_EQ(consumed, kHeaderBytes + frame.payload().size() + kTrailerBytes);
    frame_start += consumed;
    ++reach->frames;
    const Status verified = frame.Verify();
    if (!verified.ok()) {
      EXPECT_EQ(verified.code(), StatusCode::kMalformedInput);
      continue;
    }
    ++reach->verified;
    const bool request = CheckRequestDecode(frame.payload());
    const bool response = CheckResponseDecode(frame.payload());
    ++(request || response ? reach->accepted : reach->rejected);
  }
}

// --- mutators ---

void FlipBits(Rng* rng, std::string* bytes) {
  if (bytes->empty()) return;
  const uint64_t flips = 1 + rng->Uniform(8);
  for (uint64_t i = 0; i < flips; ++i) {
    (*bytes)[rng->Uniform(bytes->size())] ^=
        static_cast<char>(1u << rng->Uniform(8));
  }
}

void Truncate(Rng* rng, std::string* bytes) {
  bytes->resize(rng->Uniform(bytes->size() + 1));
}

// A u32 that is likely to sit on a boundary a decoder must check.
uint32_t InterestingLength(Rng* rng, uint32_t near) {
  switch (rng->Uniform(5)) {
    case 0:
      return static_cast<uint32_t>(rng->Next());
    case 1:
      return 0xFFFFFFFFu - static_cast<uint32_t>(rng->Uniform(4));
    case 2:
      return kMaxFramePayload + static_cast<uint32_t>(rng->Uniform(3)) - 1;
    default:
      return near + static_cast<uint32_t>(rng->Uniform(9)) - 4;
  }
}

// Overwrites the u32 at `offset` (little-endian, like the codecs).
void PutU32At(std::string* bytes, size_t offset, uint32_t value) {
  if (offset + 4 > bytes->size()) return;
  std::string encoded;
  WalPutU32(&encoded, value);
  std::memcpy(bytes->data() + offset, encoded.data(), 4);
}

uint32_t GetU32At(const std::string& bytes, size_t offset) {
  uint32_t value = 0;
  std::memcpy(&value, bytes.data() + offset, 4);
  return value;
}

std::string Splice(Rng* rng, const std::string& a, const std::string& b) {
  return a.substr(0, rng->Uniform(a.size() + 1)) +
         b.substr(rng->Uniform(b.size() + 1));
}

// One mutated byte stream built from the corpus. Frame-level mutations
// usually die in FrameReader or at Verify; payload-level ones are
// re-framed with a fresh CRC so the decoders see them.
std::string Mutate(Rng* rng, const std::vector<std::string>& payloads) {
  const std::string& payload = rng->Pick(payloads);
  std::string mutated = payload;
  switch (rng->Uniform(8)) {
    case 0: {  // bit flips anywhere in the frame
      std::string frame = Framed(payload);
      FlipBits(rng, &frame);
      return frame;
    }
    case 1: {  // truncated frame
      std::string frame = Framed(payload);
      Truncate(rng, &frame);
      return frame;
    }
    case 2: {  // corrupted frame length prefix
      std::string frame = Framed(payload);
      PutU32At(&frame, 4,
               InterestingLength(rng, static_cast<uint32_t>(payload.size())));
      return frame;
    }
    case 3:  // spliced frames, pipelined
      return Splice(rng, Framed(payload), Framed(rng->Pick(payloads))) +
             Framed(rng->Pick(payloads));
    case 4:  // payload bit flips, valid CRC
      FlipBits(rng, &mutated);
      return Framed(mutated);
    case 5:  // truncated payload, valid CRC
      Truncate(rng, &mutated);
      return Framed(mutated);
    case 6: {  // a corrupted inner length prefix or count, valid CRC
      if (mutated.size() < 6) return Framed(mutated);
      const size_t offset = 2 + rng->Uniform(mutated.size() - 5);
      PutU32At(&mutated, offset,
               InterestingLength(rng, GetU32At(mutated, offset)));
      return Framed(mutated);
    }
    default:  // spliced payloads, valid CRC
      return Framed(Splice(rng, mutated, rng->Pick(payloads)));
  }
}

TEST(ServeFuzz, ValidFramesRoundTripByteExactly) {
  std::vector<std::string> payloads = RequestPayloads();
  const size_t requests = payloads.size();
  for (const std::string& p : ResponsePayloads()) payloads.push_back(p);
  std::string pipelined;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string& payload = payloads[i];
    const std::string wire = Framed(payload);
    pipelined += wire;
    std::string_view bytes = wire;
    FrameReader reader;
    ASSERT_EQ(reader.Feed(&bytes), FrameParse::kFrame);
    EXPECT_TRUE(bytes.empty());
    const Frame frame = reader.TakeFrame();
    ASSERT_EQ(frame.payload(), payload);
    ASSERT_TRUE(frame.Verify().ok());
    if (i < requests) {
      StatusOr<Request> decoded = DecodeRequest(frame.payload());
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(Framed(EncodeRequest(decoded.value())), wire);
    } else {
      StatusOr<Response> decoded = DecodeResponse(frame.payload());
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(Framed(EncodeResponse(decoded.value())), wire);
    }
  }
  // The same frames back to back come out one at a time, unchanged.
  size_t frames = 0;
  std::string_view rest = pipelined;
  FrameReader reader;
  while (reader.Feed(&rest) == FrameParse::kFrame) {
    ASSERT_LT(frames, payloads.size());
    EXPECT_EQ(reader.TakeFrame().payload(), payloads[frames]);
    ++frames;
  }
  EXPECT_EQ(frames, payloads.size());
  EXPECT_TRUE(rest.empty());
}

TEST(ServeFuzz, MutatedRequestFramesFailCleanly) {
  const std::vector<std::string> payloads = RequestPayloads();
  Rng rng(0x5EC0DE01);
  Reach reach;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Drive(Mutate(&rng, payloads), &rng, &reach);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(reach.frames, size_t{kRounds} / 2);
  EXPECT_GT(reach.verified, size_t{kRounds} / 3);
  EXPECT_GT(reach.accepted, size_t{kRounds} / 20);
  EXPECT_GT(reach.rejected, size_t{kRounds} / 20);
}

TEST(ServeFuzz, MutatedResponseFramesFailCleanly) {
  const std::vector<std::string> payloads = ResponsePayloads();
  Rng rng(0x5EC0DE02);
  Reach reach;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Drive(Mutate(&rng, payloads), &rng, &reach);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(reach.frames, size_t{kRounds} / 2);
  EXPECT_GT(reach.verified, size_t{kRounds} / 3);
  EXPECT_GT(reach.accepted, size_t{kRounds} / 20);
  EXPECT_GT(reach.rejected, size_t{kRounds} / 20);
}

TEST(ServeFuzz, FramesPastTheFirstBlockGrowAndArriveIntact) {
  // A payload just past kFrameFirstBlock takes the doubling path; fed in
  // uneven pieces, it must come out byte for byte with a good CRC.
  std::string payload(kFrameFirstBlock + 1021, '\0');
  Rng rng(0x5EC0DE05);
  for (size_t i = 0; i < payload.size(); i += 4096) {
    payload[i] = static_cast<char>(rng.Next());
  }
  const std::string wire = Framed(payload);
  std::string_view rest = wire;
  FrameReader reader;
  FrameParse parse = FrameParse::kNeedMore;
  while (parse == FrameParse::kNeedMore && !rest.empty()) {
    std::string_view piece = rest.substr(0, 1 + rng.Uniform(3 << 20));
    const size_t before = piece.size();
    parse = reader.Feed(&piece);
    rest.remove_prefix(before - piece.size());
  }
  ASSERT_EQ(parse, FrameParse::kFrame);
  EXPECT_TRUE(rest.empty());
  const Frame frame = reader.TakeFrame();
  EXPECT_TRUE(frame.Verify().ok());
  EXPECT_TRUE(frame.payload() == payload);
}

TEST(ServeFuzz, FrameBufferAllocationFailureIsReportedNotFatal) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on a failed allocation";
#else
  // In a child whose address space cannot fit the frame, a header that
  // announces the cap must come back kNoMemory, not abort the process.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    size_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    // Room for the child to run, not for the frame's first block.
    const rlim_t limit = pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                         kFrameFirstBlock / 4;
    const rlimit cap = {limit, limit};
    if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(2);
    std::string header(kFrameMagic, sizeof(kFrameMagic));
    WalPutU32(&header, kMaxFramePayload);
    std::string_view bytes = header;
    FrameReader reader;
    _exit(reader.Feed(&bytes) == FrameParse::kNoMemory ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died with status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

TEST(ServeFuzz, HugeCountsDoNotPreallocate) {
  // A config-pair or rule-set count near 2^32 in a tiny payload must fail
  // as truncated, not reserve gigabytes first.
  std::string request;
  WalPutU8(&request, kProtocolVersion);
  WalPutU8(&request, static_cast<uint8_t>(Verb::kRepair));
  WalPutString(&request, "t");
  WalPutU32(&request, 0xFFFFFFFFu);
  CheckRequestDecode(request);
  EXPECT_FALSE(DecodeRequest(request).ok());

  std::string response;
  WalPutU8(&response, kProtocolVersion);
  WalPutU8(&response, 0);
  WalPutString(&response, "");
  WalPutU8(&response, static_cast<uint8_t>(Verb::kList));
  WalPutU32(&response, 0xFFFFFFFFu);
  CheckResponseDecode(response);
  EXPECT_FALSE(DecodeResponse(response).ok());

  // The same for a splice's edit count.
  std::string repair;
  WalPutU8(&repair, kProtocolVersion);
  WalPutU8(&repair, 0);
  WalPutString(&repair, "");
  WalPutU8(&repair, static_cast<uint8_t>(Verb::kRepair));
  for (int i = 0; i < 5; ++i) WalPutU64(&repair, 1);
  WalPutU32(&repair, 0xFFFFFFFFu);
  WalPutU64(&repair, 0);
  CheckResponseDecode(repair);
  EXPECT_FALSE(DecodeResponse(repair).ok());
}

TEST(ServeFuzz, NonCanonicalPayloadsAreRejected) {
  // Bytes the encoder never writes: accepting them would make two
  // payloads decode to one message.
  std::string ok_with_message;
  WalPutU8(&ok_with_message, kProtocolVersion);
  WalPutU8(&ok_with_message, 0);
  WalPutString(&ok_with_message, "fine");
  WalPutU8(&ok_with_message, static_cast<uint8_t>(Verb::kReload));
  WalPutU64(&ok_with_message, 1);
  WalPutU64(&ok_with_message, 2);
  CheckResponseDecode(ok_with_message);
  EXPECT_FALSE(DecodeResponse(ok_with_message).ok());

  Response list;
  list.verb = Verb::kList;
  list.rule_sets = {{"hosp", 1, 1, true}};
  std::string flag_two = EncodeResponse(list);
  flag_two.back() = 2;
  CheckResponseDecode(flag_two);
  EXPECT_FALSE(DecodeResponse(flag_two).ok());
}

// --- splice responses ---

// ApplyCsvSplice's contract in 128-bit arithmetic, edit by edit: the
// spliced output, or nullopt where applying must fail.
std::optional<std::string> ReferenceSplice(const std::string& input,
                                           const CsvSplice& splice) {
  using Wide = unsigned __int128;
  std::string out;
  Wide at = 0;
  Wide inserted = 0;
  for (const CsvEdit& e : splice.edits) {
    if (Wide{e.begin} < at || Wide{e.begin} + e.erase > input.size() ||
        inserted + e.insert > splice.inserts.size()) {
      return std::nullopt;
    }
    out.append(input, static_cast<size_t>(at),
               static_cast<size_t>(e.begin - at));
    out.append(splice.inserts, static_cast<size_t>(inserted),
               static_cast<size_t>(e.insert));
    inserted += e.insert;
    at = Wide{e.begin} + e.erase;
  }
  if (inserted != splice.inserts.size()) return std::nullopt;
  out.append(input, static_cast<size_t>(at));
  if (out.size() != splice.output_size) return std::nullopt;
  return out;
}

std::string SpliceInput(Rng* rng) {
  std::string input = "id,name\n";
  const uint64_t rows = rng->Uniform(40);
  for (uint64_t r = 0; r < rows; ++r) {
    input += std::to_string(r) + ",v" + std::to_string(rng->Uniform(9)) +
             (rng->Bernoulli(0.2) ? "\r\n" : "\n");
  }
  return input;
}

// A splice that is valid over `input`: sorted, non-overlapping edits.
CsvSplice RandomSplice(Rng* rng, const std::string& input) {
  static constexpr char kBytes[] = "ab,\"\n\r";
  CsvSplice splice;
  uint64_t at = 0;
  uint64_t erased = 0;
  while (rng->Bernoulli(0.85)) {
    const uint64_t begin = at + rng->Uniform(30);
    if (begin > input.size()) break;
    CsvEdit edit{begin, rng->Uniform(std::min<uint64_t>(20, input.size() -
                                                            begin) + 1),
                 rng->Uniform(12)};
    for (uint64_t i = 0; i < edit.insert; ++i) {
      splice.inserts.push_back(kBytes[rng->Uniform(sizeof(kBytes) - 1)]);
    }
    splice.edits.push_back(edit);
    erased += edit.erase;
    at = edit.begin + edit.erase;
  }
  splice.output_size = input.size() - erased + splice.inserts.size();
  return splice;
}

// Breaks one thing about a splice: edit order, overlap, range, 64-bit
// overflow of begin + erase, insert counts or the declared size.
void MutateSplice(Rng* rng, const std::string& input, CsvSplice* splice) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<CsvEdit>& edits = splice->edits;
  if (edits.empty()) edits.push_back({rng->Uniform(input.size() + 1), 0, 0});
  CsvEdit& e = edits[rng->Uniform(edits.size())];
  switch (rng->Uniform(9)) {
    case 0:  // unsorted
      std::swap(e, edits[rng->Uniform(edits.size())]);
      break;
    case 1:  // overlapping its predecessor, or a duplicate
      edits.insert(edits.begin() + static_cast<std::ptrdiff_t>(
                                       &e - edits.data()),
                   {e.begin, e.erase + 1 + rng->Uniform(3), 0});
      break;
    case 2:  // past the input
      e.begin = input.size() + rng->Uniform(3);
      e.erase = rng->Uniform(2);
      break;
    case 3:  // begin + erase wraps around
      e.erase = kMax - e.begin + 1 + rng->Uniform(input.size() + 1);
      break;
    case 4:
      e.begin = kMax - rng->Uniform(4);
      e.erase = rng->Uniform(8);
      break;
    case 5:  // insert counts that do not add up
      e.insert = rng->Bernoulli(0.5) ? e.insert + 1 + rng->Uniform(3)
                                     : kMax - rng->Uniform(4);
      break;
    case 6:
      e.erase += rng->Bernoulli(0.5) ? 1 : kMax;  // +1 or -1
      break;
    case 7:  // a wrong declared size
      splice->output_size = rng->Bernoulli(0.5)
                                ? splice->output_size + 1 + rng->Uniform(3)
                                : rng->Next();
      break;
    default:  // a dropped edit: valid only if it changed nothing
      edits.erase(edits.begin() + static_cast<std::ptrdiff_t>(
                                      &e - edits.data()));
      break;
  }
}

Response SpliceResponse(const CsvSplice& splice) {
  Response response;
  response.verb = Verb::kRepair;
  response.repair.rows = 3;
  response.repair.splice = splice;
  return response;
}

// Applies `splice` to `input` and holds the outcome to the reference.
// Returns whether it applied.
bool CheckApply(const std::string& input, const CsvSplice& splice) {
  const std::optional<std::string> want = ReferenceSplice(input, splice);
  std::string got = "stale";
  const Status applied = ApplyCsvSplice(input, splice, &got);
  EXPECT_EQ(applied.ok(), want.has_value()) << applied;
  if (!applied.ok()) {
    EXPECT_EQ(applied.code(), StatusCode::kMalformedInput);
    return false;
  }
  if (want.has_value()) {
    EXPECT_EQ(got, *want);
  }
  return true;
}

TEST(ServeFuzz, SpliceResponsesRoundTripAndApplyOrFailCleanly) {
  Rng rng(0x5EC0DE03);
  size_t applied = 0;
  size_t refused = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string input = SpliceInput(&rng);
    CsvSplice splice = RandomSplice(&rng, input);
    if (round % 4 != 0) MutateSplice(&rng, input, &splice);
    // The splice survives framing and decoding exactly, valid or not:
    // the decoder checks wire structure, ApplyCsvSplice the edits.
    const std::string wire = Framed(EncodeResponse(SpliceResponse(splice)));
    std::string_view bytes = wire;
    FrameReader reader;
    ASSERT_EQ(reader.Feed(&bytes), FrameParse::kFrame);
    const Frame frame = reader.TakeFrame();
    ASSERT_TRUE(frame.Verify().ok());
    StatusOr<Response> decoded = DecodeResponse(frame.payload());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->repair.splice, splice);
    ++(CheckApply(input, decoded->repair.splice) ? applied : refused);
    if (round % 4 == 0) {
      EXPECT_TRUE(CheckApply(input, splice));
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(applied, size_t{kRounds} / 5);
  EXPECT_GT(refused, size_t{kRounds} / 2);
}

TEST(ServeFuzz, SpliceEdgeCasesFailWithAStatus) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const std::string input = "a,b\n1,2\n3,4\n";  // 12 bytes
  struct Case {
    const char* what;
    CsvSplice splice;
    bool valid;
  };
  const std::vector<Case> cases = {
      {"identity", {12, {}, ""}, true},
      {"replace a row", {12, {{4, 4, 4}}, "5,6\n"}, true},
      {"drop the tail", {8, {{8, 4, 0}}, ""}, true},
      {"append", {14, {{12, 0, 2}}, "x\n"}, true},
      {"adjacent edits", {11, {{4, 4, 3}, {8, 4, 4}}, "x,\n7,8\n"}, true},
      {"unsorted", {12, {{8, 4, 4}, {4, 4, 4}}, "5,6\n7,8\n"}, false},
      {"overlapping", {12, {{4, 5, 4}, {8, 4, 5}}, "5,6\n7,8\n\n"}, false},
      {"begin past the input", {12, {{13, 0, 0}}, ""}, false},
      {"end past the input", {9, {{10, 3, 0}}, ""}, false},
      {"begin + erase overflows", {12, {{4, kMax - 3, 0}}, ""}, false},
      {"begin near 2^64", {12, {{kMax, 1, 0}}, ""}, false},
      {"insert past the bytes", {13, {{4, 4, 5}}, "5,6\n"}, false},
      {"insert overflows", {12, {{4, 4, kMax}}, "5,6\n"}, false},
      {"unused insert bytes", {12, {{4, 4, 3}}, "5,6\n"}, false},
      {"declared size too big", {13, {{4, 4, 4}}, "5,6\n"}, false},
      {"declared size too small", {11, {}, ""}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(ReferenceSplice(input, c.splice).has_value(), c.valid);
    EXPECT_EQ(CheckApply(input, c.splice), c.valid);
  }
}

// A fake daemon on a loopback port: answers each request frame it reads
// on one connection with the next canned payload, then hangs up.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::vector<std::string> payloads)
      : payloads_(std::move(payloads)) {
    listener_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(bind(listener_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(listen(listener_, 1), 0);
    EXPECT_EQ(getsockname(listener_, reinterpret_cast<sockaddr*>(&addr),
                          &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakeDaemon() {
    shutdown(listener_, SHUT_RDWR);  // unblocks accept if no client came
    thread_.join();
    close(listener_);
  }
  int port() const { return port_; }

 private:
  void Serve() {
    const int fd = accept(listener_, nullptr, nullptr);
    if (fd < 0) return;
    FrameReader reader;
    for (const std::string& payload : payloads_) {
      if (reader.Receive(fd, 0) != FrameParse::kFrame) break;
      reader.TakeFrame();
      if (!WriteFrameTo(fd, payload).ok()) break;
    }
    close(fd);
  }

  std::vector<std::string> payloads_;
  int listener_ = -1;
  int port_ = -1;
  std::thread thread_;
};

TEST(ServeFuzz, SubmitRefusesSplicesThatDoNotFitTheRequest) {
  Rng rng(0x5EC0DE04);
  constexpr int kSubmits = 300;
  std::vector<std::string> inputs;
  std::vector<CsvSplice> splices;
  std::vector<std::string> payloads;
  for (int i = 0; i < kSubmits; ++i) {
    inputs.push_back(SpliceInput(&rng));
    splices.push_back(RandomSplice(&rng, inputs.back()));
    if (i % 3 != 0) MutateSplice(&rng, inputs.back(), &splices.back());
    payloads.push_back(EncodeResponse(SpliceResponse(splices.back())));
  }
  FakeDaemon daemon(payloads);
  ClientOptions options;
  options.tcp_port = daemon.port();
  StatusOr<Client> client = Client::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status();
  size_t refused = 0;
  for (int i = 0; i < kSubmits; ++i) {
    SCOPED_TRACE("submit " + std::to_string(i));
    const std::optional<std::string> want =
        ReferenceSplice(inputs[i], splices[i]);
    StatusOr<RepairResult> result = client->Submit("t", {}, inputs[i]);
    ASSERT_EQ(result.ok(), want.has_value()) << result.status();
    if (result.ok()) {
      EXPECT_EQ(testing::SplicedCsv(inputs[i], result->splice), *want);
      EXPECT_EQ(result->rows, 3u);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput);
      ++refused;
    }
  }
  EXPECT_GT(refused, size_t{kSubmits} / 3);
}

// --- the receive path of a live daemon ---

// A travel tenant on an in-process daemon, and a direct RepairSession
// run as the oracle for every response.
class ServeReceiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TravelExample example;
    rules_path_ = testing::TestTempPath("travel_rules.txt");
    ASSERT_TRUE(TryWriteRulesFile(example.rules, rules_path_).ok());
    schema_ = example.schema;
    std::string attrs;
    for (const std::string& name : schema_->attribute_names()) {
      attrs += (attrs.empty() ? "" : ",") + name;
    }
    ASSERT_TRUE(registry_.Load("travel", rules_path_ + "@" + attrs).ok());
    socket_path_ = testing::TestTempPath("d.sock");
    std::remove(socket_path_.c_str());
    DaemonOptions options;
    options.unix_socket_path = socket_path_;
    StatusOr<std::unique_ptr<RepairDaemon>> daemon =
        RepairDaemon::Start(&registry_, std::move(options));
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    daemon_ = std::move(daemon).value();

    std::string csv;
    AppendCsv(example.dirty, &csv);
    small_ = csv;
    // The travel rows repeated past a socket buffer, so one frame takes
    // many receives.
    const size_t header_end = csv.find('\n') + 1;
    big_ = csv.substr(0, header_end);
    while (big_.size() < (size_t{1} << 20)) big_ += csv.substr(header_end);
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Shutdown();
    std::remove(socket_path_.c_str());
  }

  // What the daemon must answer for `csv`: a direct repair with a
  // private pool, rendered whole.
  std::string Direct(const std::string& csv) const {
    auto pool = std::make_shared<ValuePool>();
    StatusOr<RuleSet> rules =
        ParseRulesFileLenient(rules_path_, schema_, pool, {});
    EXPECT_TRUE(rules.ok()) << rules.status();
    StatusOr<Table> table = ReadCsvBytesLenient(csv, "data", pool);
    EXPECT_TRUE(table.ok()) << table.status();
    if (!rules.ok() || !table.ok()) return "";
    RepairSession session(&rules.value(), RepairConfig{});
    EXPECT_TRUE(session.Repair(&table.value()).ok());
    std::string out;
    AppendCsv(table.value(), &out);
    return out;
  }

  int ConnectRaw() const {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    return fd;
  }

  static void SendAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  // Reads one response frame from `fd` and checks it is a repair of
  // `csv` that spells the direct repair's bytes.
  void ExpectRepairOf(int fd, const std::string& csv) const {
    FrameReader reader;
    ASSERT_EQ(reader.Receive(fd, 0), FrameParse::kFrame);
    const Frame frame = reader.TakeFrame();
    ASSERT_TRUE(frame.Verify().ok());
    StatusOr<Response> response = DecodeResponse(frame.payload());
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
    ASSERT_EQ(response->verb, Verb::kRepair);
    EXPECT_EQ(testing::SplicedCsv(csv, response->repair.splice), Direct(csv));
  }

  static std::string RepairFrame(const std::string& csv) {
    return Framed(EncodeRepairRequest("travel", {}, csv));
  }

  StatusOr<Client> Connect() const {
    ClientOptions options;
    options.unix_socket_path = socket_path_;
    return Client::Connect(options);
  }

  std::string rules_path_;
  std::shared_ptr<const Schema> schema_;
  std::string socket_path_;
  TenantRegistry registry_;
  std::unique_ptr<RepairDaemon> daemon_;
  std::string small_;  // the travel batch
  std::string big_;    // about 1 MiB of travel rows
};

TEST_F(ServeReceiveTest, RequestSentOneByteAtATimeMatchesDirectRepair) {
  const int fd = ConnectRaw();
  const std::string wire = RepairFrame(small_);
  for (const char byte : wire) SendAll(fd, std::string_view(&byte, 1));
  ExpectRepairOf(fd, small_);
  close(fd);
}

TEST_F(ServeReceiveTest, RequestSplitAtEveryHeaderAndTrailerByte) {
  for (const std::string* csv : {&small_, &big_}) {
    const std::string wire = RepairFrame(*csv);
    std::vector<size_t> cuts;
    for (size_t k = 1; k <= 8; ++k) cuts.push_back(k);
    for (size_t k = 4; k >= 1; --k) cuts.push_back(wire.size() - k);
    for (const size_t cut : cuts) {
      SCOPED_TRACE("cut at " + std::to_string(cut) + " of " +
                   std::to_string(wire.size()));
      const int fd = ConnectRaw();
      SendAll(fd, std::string_view(wire).substr(0, cut));
      // Let the daemon take the first part on its own.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      SendAll(fd, std::string_view(wire).substr(cut));
      ExpectRepairOf(fd, *csv);
      close(fd);
    }
  }
}

TEST_F(ServeReceiveTest, PipelinedRequestsInOneWriteAreAnsweredInOrder) {
  const int fd = ConnectRaw();
  SendAll(fd, RepairFrame(big_) + RepairFrame(small_));
  ExpectRepairOf(fd, big_);
  ExpectRepairOf(fd, small_);
  // And a ping pipelined behind a repair, in one write.
  SendAll(fd, RepairFrame(small_) + Framed(EncodeRequest(Request{})));
  ExpectRepairOf(fd, small_);
  FrameReader reader;
  ASSERT_EQ(reader.Receive(fd, 0), FrameParse::kFrame);
  StatusOr<Response> ping = DecodeResponse(reader.TakeFrame().payload());
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->verb, Verb::kPing);
  close(fd);
}

// Resident bytes of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST_F(ServeReceiveTest, HugeAnnouncedFrameHoldsOnlyTheBytesThatArrived) {
  // Warm up: the first request sizes the pool, the tenant and the heap.
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  StatusOr<RepairResult> warm = client->Submit("travel", {}, big_);
  ASSERT_TRUE(warm.ok()) << warm.status();

  const size_t before = ResidentBytes();
  const int fd = ConnectRaw();
  std::string stalled(kFrameMagic, sizeof(kFrameMagic));
  WalPutU32(&stalled, kMaxFramePayload);
  stalled += std::string(100, 'x');
  SendAll(fd, stalled);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const size_t during = ResidentBytes();
  EXPECT_LT(during, before + (size_t{16} << 20))
      << "resident " << before << " -> " << during << " bytes";

  // The stalled connection blocks nobody.
  StatusOr<RepairResult> served = client->Submit("travel", {}, big_);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(testing::SplicedCsv(big_, served->splice), Direct(big_));
  EXPECT_EQ(daemon_->requests_served(), 2u);
  close(fd);
}

TEST_F(ServeReceiveTest, SubmitRefusesBatchesOverTheFrameCapBeforeSending) {
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  // Reservations, not memory: any read of them faults, so the client
  // must refuse on the size alone. One just over the cap, one past the
  // u32 length prefix.
  for (const size_t size : {size_t{kMaxFramePayload} + 1,
                            (size_t{1} << 32) + 100}) {
    SCOPED_TRACE("batch of " + std::to_string(size) + " bytes");
    void* reserved = mmap(nullptr, size, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ASSERT_NE(reserved, MAP_FAILED);
    const StatusOr<RepairResult> result = client->Submit(
        "travel", {}, std::string_view(static_cast<char*>(reserved), size));
    munmap(reserved, size);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput);
    EXPECT_NE(result.status().message().find("1 GiB"), std::string::npos)
        << result.status();
  }
  // Not a byte went out: the same connection still frames cleanly, and
  // the daemon has seen only this ping.
  StatusOr<PingInfo> info = client->Ping();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->requests_served, 0u);
  EXPECT_EQ(daemon_->requests_served(), 1u);
  EXPECT_EQ(daemon_->requests_rejected(), 0u);
}

}  // namespace
}  // namespace fixrep::serve
