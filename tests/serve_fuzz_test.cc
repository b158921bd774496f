// Mutation fuzzer for the daemon's wire protocol (serve/protocol.cc).
// Valid request and response frames are mutated with a seeded PRNG —
// bit flips, truncations, corrupted length prefixes (the frame's own and
// the payload's string lengths) and splices of two frames — and every
// result is pushed through ExtractFrame -> VerifyFrame -> DecodeRequest
// (both the const& and the && overloads) / DecodeResponse. Payload-level
// mutations are re-framed with a correct CRC so they reach the decoders
// instead of stopping at VerifyFrame.
//
// Properties: nothing crashes or over-allocates; every outcome is one of
// the documented ones (a FrameParse value, or kMalformedInput from
// VerifyFrame and the decoders); the two request decode overloads agree;
// a payload a decoder accepts re-encodes to exactly its bytes; and every
// unmutated frame round-trips byte for byte.
//
// Repair responses carry a splice over the request CSV. Their edits are
// mutated too — unsorted, overlapping, out of range, overflowing,
// miscounted — and applied with ApplyCsvSplice, in process and through
// Client::Submit against a fake daemon: each either matches a reference
// splice written with 128-bit arithmetic or fails with a Status.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/wal.h"
#include "relation/csv.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace fixrep::serve {
namespace {

constexpr size_t kHeaderBytes = 8;   // magic + payload length
constexpr size_t kTrailerBytes = 4;  // CRC-32C
constexpr int kRounds = 20000;

std::string Frame(const std::string& payload) {
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
  size_t frames = 0;    // extracted by ExtractFrame
  size_t verified = 0;  // passed VerifyFrame
  size_t accepted = 0;  // decoded by DecodeRequest or DecodeResponse
  size_t rejected = 0;  // refused by both decoders
};

// Decoding must either succeed or fail with kMalformedInput, both
// overloads must agree, and an accepted payload re-encodes to its bytes.
// Returns whether the payload was accepted.
bool CheckRequestDecode(const std::string& payload) {
  StatusOr<Request> by_ref = DecodeRequest(payload);
  StatusOr<Request> by_move = DecodeRequest(std::string(payload));
  EXPECT_EQ(by_ref.ok(), by_move.ok());
  if (!by_ref.ok() || !by_move.ok()) {
    EXPECT_EQ(by_ref.status().code(), StatusCode::kMalformedInput)
        << by_ref.status();
    EXPECT_EQ(by_ref.status().message(), by_move.status().message());
    return false;
  }
  EXPECT_EQ(EncodeRequest(by_ref.value()), payload);
  EXPECT_EQ(EncodeRequest(by_move.value()), payload);
  return true;
}

bool CheckResponseDecode(const std::string& payload) {
  StatusOr<Response> decoded = DecodeResponse(payload);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kMalformedInput)
        << decoded.status();
    return false;
  }
  EXPECT_TRUE(decoded->repair.csv.empty());  // the splice is the wire form
  EXPECT_EQ(EncodeResponse(decoded.value()), payload);
  return true;
}

// Runs a byte stream through the daemon's receive path: extract frames
// until the buffer holds no complete one, verify each, decode the
// verified ones as both a request and a response.
void Drive(std::string buffer, Reach* reach) {
  while (true) {
    const size_t before = buffer.size();
    std::string payload;
    uint32_t crc = 0;
    const FrameParse parse = ExtractFrame(&buffer, &payload, &crc);
    if (parse == FrameParse::kNeedMore) {
      EXPECT_EQ(buffer.size(), before);
      return;
    }
    if (parse == FrameParse::kBadMagic || parse == FrameParse::kTooLarge) {
      return;  // the daemon drops the connection
    }
    ASSERT_EQ(parse, FrameParse::kFrame);
    ASSERT_EQ(before - buffer.size(),
              kHeaderBytes + payload.size() + kTrailerBytes);
    ++reach->frames;
    const Status verified = VerifyFrame(payload, crc);
    if (!verified.ok()) {
      EXPECT_EQ(verified.code(), StatusCode::kMalformedInput);
      continue;
    }
    ++reach->verified;
    const bool request = CheckRequestDecode(payload);
    const bool response = CheckResponseDecode(payload);
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
// usually die at ExtractFrame or VerifyFrame; payload-level ones are
// re-framed with a fresh CRC so the decoders see them.
std::string Mutate(Rng* rng, const std::vector<std::string>& payloads) {
  const std::string& payload = rng->Pick(payloads);
  std::string mutated = payload;
  switch (rng->Uniform(8)) {
    case 0: {  // bit flips anywhere in the frame
      std::string frame = Frame(payload);
      FlipBits(rng, &frame);
      return frame;
    }
    case 1: {  // truncated frame
      std::string frame = Frame(payload);
      Truncate(rng, &frame);
      return frame;
    }
    case 2: {  // corrupted frame length prefix
      std::string frame = Frame(payload);
      PutU32At(&frame, 4,
               InterestingLength(rng, static_cast<uint32_t>(payload.size())));
      return frame;
    }
    case 3:  // spliced frames, pipelined
      return Splice(rng, Frame(payload), Frame(rng->Pick(payloads))) +
             Frame(rng->Pick(payloads));
    case 4:  // payload bit flips, valid CRC
      FlipBits(rng, &mutated);
      return Frame(mutated);
    case 5:  // truncated payload, valid CRC
      Truncate(rng, &mutated);
      return Frame(mutated);
    case 6: {  // a corrupted inner length prefix or count, valid CRC
      if (mutated.size() < 6) return Frame(mutated);
      const size_t offset = 2 + rng->Uniform(mutated.size() - 5);
      PutU32At(&mutated, offset,
               InterestingLength(rng, GetU32At(mutated, offset)));
      return Frame(mutated);
    }
    default:  // spliced payloads, valid CRC
      return Frame(Splice(rng, mutated, rng->Pick(payloads)));
  }
}

TEST(ServeFuzz, ValidFramesRoundTripByteExactly) {
  std::vector<std::string> payloads = RequestPayloads();
  const size_t requests = payloads.size();
  for (const std::string& p : ResponsePayloads()) payloads.push_back(p);
  std::string pipelined;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string& payload = payloads[i];
    const std::string frame = Frame(payload);
    pipelined += frame;
    std::string buffer = frame;
    std::string extracted;
    uint32_t crc = 0;
    ASSERT_EQ(ExtractFrame(&buffer, &extracted, &crc), FrameParse::kFrame);
    EXPECT_TRUE(buffer.empty());
    ASSERT_EQ(extracted, payload);
    ASSERT_TRUE(VerifyFrame(extracted, crc).ok());
    if (i < requests) {
      StatusOr<Request> decoded = DecodeRequest(extracted);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(Frame(EncodeRequest(decoded.value())), frame);
      StatusOr<Request> moved = DecodeRequest(std::move(extracted));
      ASSERT_TRUE(moved.ok()) << moved.status();
      EXPECT_EQ(Frame(EncodeRequest(moved.value())), frame);
    } else {
      StatusOr<Response> decoded = DecodeResponse(extracted);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(Frame(EncodeResponse(decoded.value())), frame);
    }
  }
  // The same frames back to back come out one at a time, unchanged.
  size_t frames = 0;
  std::string payload;
  uint32_t crc = 0;
  while (ExtractFrame(&pipelined, &payload, &crc) == FrameParse::kFrame) {
    ASSERT_LT(frames, payloads.size());
    EXPECT_EQ(payload, payloads[frames]);
    ++frames;
  }
  EXPECT_EQ(frames, payloads.size());
  EXPECT_TRUE(pipelined.empty());
}

TEST(ServeFuzz, MutatedRequestFramesFailCleanly) {
  const std::vector<std::string> payloads = RequestPayloads();
  Rng rng(0x5EC0DE01);
  Reach reach;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Drive(Mutate(&rng, payloads), &reach);
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
    Drive(Mutate(&rng, payloads), &reach);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(reach.frames, size_t{kRounds} / 2);
  EXPECT_GT(reach.verified, size_t{kRounds} / 3);
  EXPECT_GT(reach.accepted, size_t{kRounds} / 20);
  EXPECT_GT(reach.rejected, size_t{kRounds} / 20);
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
    std::string buffer = Frame(EncodeResponse(SpliceResponse(splice)));
    std::string payload;
    uint32_t crc = 0;
    ASSERT_EQ(ExtractFrame(&buffer, &payload, &crc), FrameParse::kFrame);
    ASSERT_TRUE(VerifyFrame(payload, crc).ok());
    StatusOr<Response> decoded = DecodeResponse(payload);
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
    std::string buffer;
    for (const std::string& payload : payloads_) {
      std::string request;
      uint32_t crc = 0;
      while (ExtractFrame(&buffer, &request, &crc) != FrameParse::kFrame) {
        char chunk[4096];
        const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          close(fd);
          return;
        }
        buffer.append(chunk, static_cast<size_t>(n));
      }
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
      EXPECT_EQ(result->csv, *want);
      EXPECT_EQ(result->rows, 3u);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput);
      ++refused;
    }
  }
  EXPECT_GT(refused, size_t{kSubmits} / 3);
}

}  // namespace
}  // namespace fixrep::serve
