#ifndef FIXREP_REPAIR_CONFIG_H_
#define FIXREP_REPAIR_CONFIG_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "repair/session.h"

// One audited key/value parser for RepairConfig, shared by the CLI
// `repair` verb and the daemon's wire-request config headers, so a knob
// behaves identically no matter which surface set it (docs/api.md).
// Keys mirror the CLI flag names (engine, threads, shards, memo,
// no-memo, memo-capacity, on-error, max-chase-steps, chunk-rows, wal,
// resume).

namespace fixrep {

// Applies one key=value setting to `config`. Boolean keys accept an
// empty value (flag style) or true/false/1/0/on/off/yes/no. Unknown
// keys and unparseable values return kMalformedInput — the repo's
// invalid-argument code — and leave `config` unchanged. The
// `quarantine` sink is a runtime object and has no key.
Status ParseRepairConfig(const std::string& key, const std::string& value,
                         RepairConfig* config);

// Serializes every knob of `config` that differs from the default as
// (key, value) pairs such that replaying them through ParseRepairConfig
// over a default config reproduces `config` exactly (round-trip
// property; quarantine excluded). This is what `fixrep_cli submit`
// sends as request config headers.
std::vector<std::pair<std::string, std::string>> FormatRepairConfig(
    const RepairConfig& config);

// True for keys that only make sense for a local stream and are
// rejected by the daemon (the server owns durability and chunking):
// chunk-rows, wal, resume.
bool RepairConfigKeyIsSessionLocal(const std::string& key);

}  // namespace fixrep

#endif  // FIXREP_REPAIR_CONFIG_H_
