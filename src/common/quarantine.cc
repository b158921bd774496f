#include "common/quarantine.h"

#include <ostream>
#include <string>

#include "common/string_util.h"

namespace fixrep {

std::optional<OnErrorPolicy> TryParseOnErrorPolicy(std::string_view text) {
  if (text == "abort") return OnErrorPolicy::kAbort;
  if (text == "skip") return OnErrorPolicy::kSkip;
  if (text == "quarantine") return OnErrorPolicy::kQuarantine;
  return std::nullopt;
}

const char* OnErrorPolicyName(OnErrorPolicy policy) {
  switch (policy) {
    case OnErrorPolicy::kAbort:
      return "abort";
    case OnErrorPolicy::kSkip:
      return "skip";
    case OnErrorPolicy::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

void WriteQuarantineHeader(std::ostream& out) {
  out << "source,line,code,message,raw_text\n";
}

void WriteQuarantineRecord(std::ostream& out, std::string_view source,
                           const Diagnostic& diagnostic) {
  std::string record;
  AppendCsvField(source, &record);
  record += ',';
  record += std::to_string(diagnostic.line);
  record += ',';
  record += StatusCodeName(diagnostic.code);
  record += ',';
  AppendCsvField(diagnostic.message, &record);
  record += ',';
  AppendCsvField(diagnostic.raw_text, &record);
  record += '\n';
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
}

}  // namespace fixrep
