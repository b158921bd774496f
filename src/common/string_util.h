#ifndef FIXREP_COMMON_STRING_UTIL_H_
#define FIXREP_COMMON_STRING_UTIL_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fixrep {

class Rng;

// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// ASCII lower-casing.
std::string ToLower(std::string_view s);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Levenshtein edit distance; O(|a|*|b|) time, O(min) space.
size_t EditDistance(std::string_view a, std::string_view b);

// Produces a single-character typo of `s` (substitute, insert, delete, or
// transpose, chosen at random). Never returns `s` itself; for empty input
// returns a one-character string.
std::string MakeTypo(std::string_view s, Rng* rng);

// The CSV dialect's structural bytes: ',' '"' '\r' '\n'. They end an
// unquoted field on input and force quoting on output.
inline constexpr std::array<bool, 256> kCsvSpecialBytes = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {',', '"', '\r', '\n'}) table[c] = true;
  return table;
}();

// First CSV structural byte in [p, end), or `end` when there is none.
// Scans eight bytes per step (SWAR: a byte equal to c turns zero under
// XOR with c, and the lowest zero byte of a word is found exactly), then
// finishes byte by byte; it never reads outside [p, end).
inline const char* FindCsvSpecial(const char* p, const char* end) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHighs = 0x8080808080808080ULL;
    while (end - p >= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const auto zero_bytes = [word](unsigned char c) {
        const uint64_t x = word ^ (kOnes * c);
        return (x - kOnes) & ~x & kHighs;
      };
      const uint64_t hits = zero_bytes(',') | zero_bytes('"') |
                            zero_bytes('\r') | zero_bytes('\n');
      if (hits != 0) return p + (std::countr_zero(hits) >> 3);
      p += 8;
    }
  }
  while (p < end && !kCsvSpecialBytes[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

// The most bytes WriteCsvField can write for `field`: every byte a
// doubled quote, plus the enclosing pair.
inline size_t CsvFieldBound(std::string_view field) {
  return 2 * field.size() + 2;
}

// Out-of-line half of WriteCsvField: `field` wrapped in '"' with every
// '"' doubled.
char* WriteQuotedCsvField(std::string_view field, char* out);

// Writes `field` at `out` in the CSV dialect — verbatim unless it holds a
// structural byte, else quoted — and returns the end of what it wrote.
// `out` must have room for CsvFieldBound(field) bytes.
inline char* WriteCsvField(std::string_view field, char* out) {
  const char* const end = field.data() + field.size();
  if (FindCsvSpecial(field.data(), end) != end) {
    return WriteQuotedCsvField(field, out);
  }
  if (!field.empty()) std::memcpy(out, field.data(), field.size());
  return out + field.size();
}

// WriteCsvField onto the end of *out.
void AppendCsvField(std::string_view field, std::string* out);

}  // namespace fixrep

#endif  // FIXREP_COMMON_STRING_UTIL_H_
