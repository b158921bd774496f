#include "repair/session.h"

#include <string>

#include "common/logging.h"
#include "common/trace.h"
#include "repair/driver.h"
#include "repair/recovery.h"
#include "repair/streaming.h"

namespace fixrep {

RepairSession::RepairSession(const RuleSet* rules, const RepairConfig& config)
    : config_(config) {
  FIXREP_CHECK(rules != nullptr);
  StatusOr<std::unique_ptr<RuleDict>> compiled = RuleDict::Compile(*rules);
  if (!compiled.ok()) {
    compile_status_ = compiled.status();
    return;
  }
  owned_ = std::move(compiled).value();
  dict_ = owned_.get();
}

RepairSession::RepairSession(const RuleDict* dict, const RepairConfig& config)
    : config_(config), dict_(dict) {
  FIXREP_CHECK(dict_ != nullptr);
}

StatusOr<const RuleDict*> RepairSession::Image(
    const Schema& schema, const std::shared_ptr<ValuePool>& pool) {
  FIXREP_RETURN_IF_ERROR(compile_status_);
  if (owned_ != nullptr) FIXREP_RETURN_IF_ERROR(owned_->Bind(schema, pool));
  return dict_;
}

StatusOr<RepairReport> RepairSession::Repair(Table* table,
                                             std::vector<CellRepair>* log) {
  FIXREP_CHECK(table != nullptr);
  StatusOr<const RuleDict*> image =
      Image(table->schema(), table->pool_ptr());
  if (!image.ok()) return image.status();

  RepairDriver driver(*image.value(), config_);
  driver.set_write_log(log);
  RepairReport report;
  report.rows = table->num_rows();
  FIXREP_TRACE_SPAN(driver.chase_span());
  report.cells_changed = driver.Run(table).cells_changed;
  report.tuples_quarantined = driver.failures().size();
  return report;
}

StatusOr<RepairReport> RepairSession::RepairStream(
    StreamInput* input, CsvOutput out, std::vector<CellRepair>* log) {
  FIXREP_CHECK(input != nullptr);
  // The stream closes the input; so does every return before it.
  struct CloseInput {
    StreamInput* input;
    ~CloseInput() { input->Close(); }
  } close_input{input};
  if (config_.engine == RepairEngine::kCRepair && !config_.wal_path.empty()) {
    // A resume must chase with the engine that wrote the log.
    return Status::MalformedInput(
        "a WAL does not record the engine; journal lRepair streams only");
  }
  StatusOr<const RuleDict*> image = Image(*input->schema(), input->pool());
  if (!image.ok()) return image.status();
  const RuleDict& dict = *image.value();

  // Durable run: open (or resume) the WAL before any row is repaired.
  // The stream loop borrows the journal; keeping it here ties its
  // lifetime to this call.
  std::unique_ptr<ChunkJournal> journal;
  RecoveredRun recovered;
  const RecoveredRun* resume = nullptr;
  if (!config_.wal_path.empty()) {
    // The image header carries RuleSetFingerprint of the set it
    // compiled, whichever storage holds it.
    const uint64_t fingerprint = dict.fingerprint();
    if (config_.resume) {
      StatusOr<RecoveredRun> scanned = ScanWal(config_.wal_path);
      if (!scanned.ok()) return scanned.status();
      recovered = std::move(scanned.value());
      FIXREP_RETURN_IF_ERROR(ValidateWalHeader(
          recovered.header, fingerprint, input->schema()->attribute_names(),
          config_.chunk_rows, config_.on_error));
      StatusOr<ChunkJournal> resumed =
          ChunkJournal::Resume(config_.wal_path, recovered.durable_bytes);
      if (!resumed.ok()) return resumed.status();
      journal = std::make_unique<ChunkJournal>(std::move(resumed.value()));
      resume = &recovered;
    } else {
      WalRunHeader header;
      header.rule_fingerprint = fingerprint;
      header.attribute_names = input->schema()->attribute_names();
      header.chunk_rows = config_.chunk_rows;
      header.on_error = static_cast<uint8_t>(config_.on_error);
      StatusOr<ChunkJournal> created =
          ChunkJournal::Create(config_.wal_path, header);
      if (!created.ok()) return created.status();
      journal = std::make_unique<ChunkJournal>(std::move(created.value()));
    }
  }

  StatusOr<RepairReport> report =
      StreamRepair(dict, config_, journal.get(), resume, input, out, log);
  if (!report.ok()) return report.status();
  if (journal != nullptr) FIXREP_RETURN_IF_ERROR(journal->Close());
  return report;
}

}  // namespace fixrep
