#include "common/string_util.h"

#include <algorithm>
#include <cctype>

#include "common/random.h"

namespace fixrep {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string MakeTypo(std::string_view s, Rng* rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  static constexpr size_t kAlphabetSize = sizeof(kAlphabet) - 1;
  if (s.empty()) {
    return std::string(1, kAlphabet[rng->Uniform(kAlphabetSize)]);
  }
  std::string out(s);
  // Retry until the mutation actually changes the string (a substitution
  // can pick the same character; a transpose of equal characters is a
  // no-op).
  for (int attempt = 0; attempt < 16; ++attempt) {
    out.assign(s);
    switch (rng->Uniform(4)) {
      case 0: {  // substitute
        const size_t pos = rng->Uniform(out.size());
        out[pos] = kAlphabet[rng->Uniform(kAlphabetSize)];
        break;
      }
      case 1: {  // insert
        const size_t pos = rng->Uniform(out.size() + 1);
        out.insert(out.begin() + pos, kAlphabet[rng->Uniform(kAlphabetSize)]);
        break;
      }
      case 2: {  // delete
        const size_t pos = rng->Uniform(out.size());
        out.erase(out.begin() + pos);
        break;
      }
      default: {  // transpose
        if (out.size() >= 2) {
          const size_t pos = rng->Uniform(out.size() - 1);
          std::swap(out[pos], out[pos + 1]);
        }
        break;
      }
    }
    if (out != s) return out;
  }
  // Fall back to appending a character, which always differs.
  out.assign(s);
  out.push_back('x');
  return out;
}

char* WriteQuotedCsvField(std::string_view field, char* out) {
  *out++ = '"';
  for (const char ch : field) {
    if (ch == '"') *out++ = '"';
    *out++ = ch;
  }
  *out++ = '"';
  return out;
}

void AppendCsvField(std::string_view field, std::string* out) {
  const size_t size = out->size();
  out->resize(size + CsvFieldBound(field));
  char* const end = WriteCsvField(field, out->data() + size);
  out->resize(static_cast<size_t>(end - out->data()));
}

}  // namespace fixrep
