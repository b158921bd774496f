// Mutation fuzzer for the daemon's wire protocol (serve/protocol.cc).
// Valid request and response frames are mutated with a seeded PRNG —
// bit flips, truncations, corrupted length prefixes (the frame's own and
// the payload's string lengths) and splices of two frames — and every
// result is pushed through ExtractFrame -> VerifyFrame -> DecodeRequest /
// DecodeResponse, both the const& and the && overloads. Payload-level
// mutations are re-framed with a correct CRC so they reach the decoders
// instead of stopping at VerifyFrame.
//
// Properties: nothing crashes or over-allocates; every outcome is one of
// the documented ones (a FrameParse value, or kMalformedInput from
// VerifyFrame and the decoders); the two decode overloads agree; a
// payload a decoder accepts re-encodes to exactly its bytes; and every
// unmutated frame round-trips byte for byte.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/wal.h"
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
  repair.repair = {2, 1, 1, "a,b\n1,\"x,y\"\n", "source,line\ncsv,3\n"};
  out.push_back(EncodeResponse(repair));
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
  StatusOr<Response> by_ref = DecodeResponse(payload);
  StatusOr<Response> by_move = DecodeResponse(std::string(payload));
  EXPECT_EQ(by_ref.ok(), by_move.ok());
  if (!by_ref.ok() || !by_move.ok()) {
    EXPECT_EQ(by_ref.status().code(), StatusCode::kMalformedInput)
        << by_ref.status();
    EXPECT_EQ(by_ref.status().message(), by_move.status().message());
    return false;
  }
  EXPECT_EQ(EncodeResponse(by_ref.value()), payload);
  EXPECT_EQ(EncodeResponse(by_move.value()), payload);
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
      StatusOr<Response> moved = DecodeResponse(std::move(extracted));
      ASSERT_TRUE(moved.ok()) << moved.status();
      EXPECT_EQ(Frame(EncodeResponse(moved.value())), frame);
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

}  // namespace
}  // namespace fixrep::serve
