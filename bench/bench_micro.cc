// Engineering microbenchmarks (not a paper figure): the hot paths of the
// library, plus the interned-vs-string matching ablation motivating the
// ValuePool design.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/simd.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "rules/consistency.h"
#include "rules/rule_dict.h"

namespace fixrep::bench {
namespace {

const Workload& HospWorkload() {
  static const Workload* workload =
      new Workload(MakeHospWorkload(20000, 1000));
  return *workload;
}

void BM_ValuePoolIntern(::benchmark::State& state) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key_" + std::to_string(i));
  for (auto _ : state) {
    ValuePool pool;
    for (const auto& key : keys) {
      ::benchmark::DoNotOptimize(pool.Intern(key));
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * keys.size()));
}
BENCHMARK(BM_ValuePoolIntern);

void BM_RuleMatch(::benchmark::State& state) {
  const TravelExample example;
  const FixingRule& rule = example.rules.rule(0);
  const TupleRef r2 = example.dirty.row(1);
  for (auto _ : state) {
    ::benchmark::DoNotOptimize(rule.Matches(r2));
  }
}
BENCHMARK(BM_RuleMatch);

// Ablation: the same match evaluated over strings, as a naive
// implementation without interning would.
void BM_RuleMatchStrings(::benchmark::State& state) {
  const std::vector<std::string> tuple = {"Ian", "China", "Shanghai",
                                          "Hongkong", "ICDE"};
  const std::string evidence_value = "China";
  const std::vector<std::string> negatives = {"Hongkong", "Shanghai"};
  for (auto _ : state) {
    bool match = tuple[1] == evidence_value;
    if (match) {
      bool in_negatives = false;
      for (const auto& negative : negatives) {
        in_negatives |= tuple[2] == negative;
      }
      match = in_negatives;
    }
    ::benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_RuleMatchStrings);

void BM_InvertedIndexBuild(::benchmark::State& state) {
  const Workload& workload = HospWorkload();
  for (auto _ : state) {
    FastRepairer repairer(&workload.rules);
    ::benchmark::DoNotOptimize(&repairer);
  }
  state.counters["rules"] = static_cast<double>(workload.rules.size());
}
BENCHMARK(BM_InvertedIndexBuild);

void BM_LRepairSingleTuple(::benchmark::State& state) {
  const Workload& workload = HospWorkload();
  FastRepairer repairer(&workload.rules);
  size_t row = 0;
  for (auto _ : state) {
    Tuple t = workload.dirty.row(row).ToTuple();
    ::benchmark::DoNotOptimize(repairer.RepairTuple(t));
    row = (row + 1) % workload.dirty.num_rows();
  }
}
BENCHMARK(BM_LRepairSingleTuple);

// --- probe_throughput: the batched inverted-list probe, kernel x mix ---
//
// RuleSource::LookupBatch keys/sec over the hosp image (1000 rules),
// per kernel, through one handle's posting cache as the chase probes.
// Hit-heavy keys are real cells drawn from the dirty table (the
// counter-initialization access pattern: most probes land on a rule's
// evidence). Miss-heavy keys are (attr, value) pairs no rule
// mentions — the streaming regime of wide, mostly-unconstrained data —
// where the probe is pure hash+empty-slot traffic. items_per_second is
// keys/sec; compare the Scalar/Sse/Avx2 rows directly.

// One handle over the hosp workload's compiled image, kept for the
// process.
const RuleSource& HospSource() {
  static const RuleDict* dict =
      RuleDict::CompileOrDie(HospWorkload().rules).release();
  static const RuleDictHandle* handle = dict->MakeHandle().release();
  return handle->source();
}

std::vector<uint64_t> HitHeavyKeys(const Workload& workload, size_t n) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  const Table& dirty = workload.dirty;
  size_t r = 0;
  while (keys.size() < n) {
    const TupleRef t = dirty.row(r % dirty.num_rows());
    for (size_t a = 0; a < t.size() && keys.size() < n; ++a) {
      if (t[a] == kNullValue) continue;
      keys.push_back(HospSource().ProbeKey(static_cast<AttrId>(a), t[a]));
    }
    ++r;
  }
  return keys;
}

std::vector<uint64_t> MissHeavyKeys(const Workload& workload, size_t n) {
  // Image value ids far past every string the image holds: present in
  // no rule's evidence, so every probe ends at an empty slot.
  std::vector<uint64_t> keys;
  keys.reserve(n);
  const size_t arity = workload.rules.schema().arity();
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(RuleSource::PackKey(
        static_cast<AttrId>(i % arity),
        static_cast<ValueId>(1000000000 + static_cast<ValueId>(i))));
  }
  return keys;
}

void ProbeThroughput(::benchmark::State& state, SimdKernel kernel,
                     bool hit_heavy) {
  if (!SimdKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this CPU/build");
    return;
  }
  const Workload& workload = HospWorkload();
  const RuleSource& source = HospSource();
  constexpr size_t kKeys = 4096;
  const std::vector<uint64_t> keys =
      hit_heavy ? HitHeavyKeys(workload, kKeys)
                : MissHeavyKeys(workload, kKeys);
  std::vector<PostingRange> ranges(keys.size());
  for (auto _ : state) {
    source.LookupBatch(kernel, keys.data(), keys.size(), ranges.data());
    ::benchmark::DoNotOptimize(ranges.data());
    ::benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * keys.size()));
  size_t found = 0;
  for (const PostingRange& range : ranges) found += range.empty() ? 0 : 1;
  state.counters["hit_rate"] =
      static_cast<double>(found) / static_cast<double>(ranges.size());
}

void BM_ProbeBatch_Scalar_HitHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kScalar, true);
}
void BM_ProbeBatch_Sse_HitHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kSse, true);
}
void BM_ProbeBatch_Avx2_HitHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kAvx2, true);
}
void BM_ProbeBatch_Scalar_MissHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kScalar, false);
}
void BM_ProbeBatch_Sse_MissHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kSse, false);
}
void BM_ProbeBatch_Avx2_MissHeavy(::benchmark::State& state) {
  ProbeThroughput(state, SimdKernel::kAvx2, false);
}
BENCHMARK(BM_ProbeBatch_Scalar_HitHeavy);
BENCHMARK(BM_ProbeBatch_Sse_HitHeavy);
BENCHMARK(BM_ProbeBatch_Avx2_HitHeavy);
BENCHMARK(BM_ProbeBatch_Scalar_MissHeavy);
BENCHMARK(BM_ProbeBatch_Sse_MissHeavy);
BENCHMARK(BM_ProbeBatch_Avx2_MissHeavy);

void BM_PairConsistencyChar(::benchmark::State& state) {
  const Workload& workload = HospWorkload();
  const size_t n = workload.rules.size();
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = (i * 7919 + 13) % n;
    ::benchmark::DoNotOptimize(PairConsistentChar(
        workload.rules.rule(i), workload.rules.rule(j),
        workload.rules.schema().arity(), nullptr));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_PairConsistencyChar);

void BM_PairConsistencyEnum(::benchmark::State& state) {
  const Workload& workload = HospWorkload();
  const size_t n = workload.rules.size();
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = (i * 7919 + 13) % n;
    ::benchmark::DoNotOptimize(PairConsistentEnum(
        workload.rules.rule(i), workload.rules.rule(j),
        workload.rules.schema().arity(), nullptr));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_PairConsistencyEnum);

void BM_CsvRoundTrip(::benchmark::State& state) {
  const TravelExample example;
  std::ostringstream serialized;
  WriteCsv(example.dirty, serialized);
  const std::string text = serialized.str();
  for (auto _ : state) {
    std::istringstream in(text);
    auto pool = std::make_shared<ValuePool>();
    Table table = ReadCsv(in, "Travel", pool);
    ::benchmark::DoNotOptimize(table.num_rows());
  }
}
BENCHMARK(BM_CsvRoundTrip);

// --- csv_ingest / csv_emit: the byte-span CSV layer on 20K hosp rows ---
//
// Reported only, not gated. bytes_per_second is CSV MB/s and ns_per_cell
// the time per field. Ingest tokenizes an in-memory copy of the dirty
// table's CSV and interns it into a fresh pool (parse + intern, no file
// IO); ingest_file reads the same bytes from a temp file through the
// whole-file path; ingest_resolved resolves them through a ValueOverlay
// over a warm pool (the daemon's request decode); emit renders the table
// back into a reused string (render only).

const std::string& HospCsv() {
  static const std::string* text = [] {
    auto* out = new std::string();
    AppendCsv(HospWorkload().dirty, out);
    return out;
  }();
  return *text;
}

void SetCsvCounters(::benchmark::State& state, size_t bytes) {
  const Table& table = HospWorkload().dirty;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["ns_per_cell"] = ::benchmark::Counter(
      static_cast<double>(state.iterations() * table.num_rows() *
                          table.num_columns()) / 1e9,
      ::benchmark::Counter::kIsRate | ::benchmark::Counter::kInvert);
}

void BM_CsvIngest(::benchmark::State& state) {
  const std::string& text = HospCsv();
  for (auto _ : state) {
    StatusOr<Table> table =
        ReadCsvBytesLenient(text, "hosp", std::make_shared<ValuePool>());
    ::benchmark::DoNotOptimize(table->num_rows());
  }
  SetCsvCounters(state, text.size());
}
BENCHMARK(BM_CsvIngest)->Unit(::benchmark::kMillisecond);

// The whole-file read: ReadCsvFileLenient over a temp file holding the
// same CSV, pulled through the reader's refill buffer with read(2) and
// scanned block by block as it arrives.
void BM_CsvIngestFile(::benchmark::State& state) {
  const std::string& text = HospCsv();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fixrep_bench_ingest." + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  for (auto _ : state) {
    StatusOr<Table> table =
        ReadCsvFileLenient(path, "hosp", std::make_shared<ValuePool>());
    ::benchmark::DoNotOptimize(table->num_rows());
  }
  SetCsvCounters(state, text.size());
  std::remove(path.c_str());
}
BENCHMARK(BM_CsvIngestFile)->Unit(::benchmark::kMillisecond);

// The daemon's request decode (TenantSnapshot::DecodeCsv): the in-memory
// CSV resolved through a fresh ValueOverlay over a pool that already
// holds every value, so each cell is a pool lookup and nothing is staged.
void BM_CsvIngestResolved(::benchmark::State& state) {
  const std::string& text = HospCsv();
  auto pool = std::make_shared<ValuePool>();
  if (!ReadCsvBytesLenient(text, "hosp", pool).ok()) {
    state.SkipWithError("warm-up read failed");
    return;
  }
  for (auto _ : state) {
    ValueOverlay overlay(pool.get());
    StatusOr<Table> table =
        ReadCsvBytesResolved(text, "hosp", pool, &overlay);
    ::benchmark::DoNotOptimize(table->num_rows());
    ::benchmark::DoNotOptimize(overlay.size());
  }
  SetCsvCounters(state, text.size());
}
BENCHMARK(BM_CsvIngestResolved)->Unit(::benchmark::kMillisecond);

// The same decode if daemon requests stopped interning their values
// (ROADMAP, "Step 1"): the pool holds only what RuleDict::Bind interned,
// as a dictionary tenant's pool does right after load, so every other
// value is staged in the request's overlay, and nothing is committed.
void BM_CsvIngestResolvedBindOnly(::benchmark::State& state) {
  const std::string& text = HospCsv();
  const std::unique_ptr<RuleDict> dict =
      RuleDict::CompileOrDie(HospWorkload().rules);
  auto pool = std::make_shared<ValuePool>();
  if (!dict->Bind(*HospWorkload().data.schema, pool).ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  size_t staged = 0;
  for (auto _ : state) {
    ValueOverlay overlay(pool.get());
    StatusOr<Table> table =
        ReadCsvBytesResolved(text, "hosp", pool, &overlay);
    ::benchmark::DoNotOptimize(table->num_rows());
    staged = overlay.size();
  }
  SetCsvCounters(state, text.size());
  state.counters["pool_values"] = static_cast<double>(pool->size());
  state.counters["staged_values"] = static_cast<double>(staged);
}
BENCHMARK(BM_CsvIngestResolvedBindOnly)->Unit(::benchmark::kMillisecond);

void BM_CsvEmit(::benchmark::State& state) {
  const Table& table = HospWorkload().dirty;
  std::string out;
  out.reserve(HospCsv().size());
  for (auto _ : state) {
    out.clear();
    AppendCsv(table, &out);
    ::benchmark::DoNotOptimize(out.data());
    ::benchmark::ClobberMemory();
  }
  SetCsvCounters(state, HospCsv().size());
}
BENCHMARK(BM_CsvEmit)->Unit(::benchmark::kMillisecond);

// The same output as a splice over the input, as the stream writes a
// kept chunk: the table read back from its own CSV with record spans and
// repaired with the workload's rules (about 970 cells), then spliced
// against that CSV (only the logged rows rendered) and applied into a
// reused string.
void BM_CsvSpliceEmit(::benchmark::State& state) {
  const Workload& workload = HospWorkload();
  const std::string& text = HospCsv();
  CsvRecordSpans spans;
  StatusOr<CsvChunkReader> reader = CsvChunkReader::OpenBytes(
      text, "hosp", workload.data.pool);
  FIXREP_CHECK(reader.ok()) << reader.status();
  reader->RecordSpansInto(&spans);
  Table table = reader->MakeChunkTable();
  FIXREP_CHECK(reader->ReadChunk(&table, ~size_t{0}).ok());
  std::vector<CellRepair> log;
  RepairSession session(&workload.rules);
  FIXREP_CHECK(session.Repair(&table, &log).ok());
  std::string out;
  out.reserve(text.size());
  for (auto _ : state) {
    const CsvSplice splice = SpliceCsv(text, spans, table, log);
    FIXREP_CHECK(ApplyCsvSplice(text, splice, &out).ok());
    ::benchmark::DoNotOptimize(out.data());
    ::benchmark::ClobberMemory();
  }
  SetCsvCounters(state, text.size());
  state.counters["cells_repaired"] = static_cast<double>(log.size());
}
BENCHMARK(BM_CsvSpliceEmit)->Unit(::benchmark::kMillisecond);

// The serve frames' checksum over a perfbench-sized batch (4.4 MB),
// through the runtime dispatch (three-stream crc32 on SSE 4.2 hosts).
void BM_Crc32c(::benchmark::State& state) {
  const std::string& csv = HospCsv();
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32c(csv.data(), csv.size(), crc);
    ::benchmark::DoNotOptimize(crc);
  }
  state.counters["GB_per_s"] = ::benchmark::Counter(
      static_cast<double>(csv.size()) * state.iterations() / 1e9,
      ::benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Crc32c)->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace fixrep::bench
