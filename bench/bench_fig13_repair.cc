// Fig. 13 — repair efficiency: cRepair vs lRepair while the rule count
// grows (hosp 100..1000 rules, uis 10..100 rules), plus the performance
// layer on top of lRepair: shared compiled index, tuple-signature memo,
// and pooled work-claiming parallelism on a duplicate-heavy hosp-style
// table.
//
// Paper shape: lRepair is the faster engine except at very small rule
// counts, where the index overhead lets cRepair keep up; both are linear
// in the data size.
//
// Besides the google-benchmark table, the run emits BENCH_repair.json
// (rows/s, per-phase ns, memo hit rate, thread count) so the perf
// trajectory is tracked across PRs. Flags: --threads=N, --no-memo (env:
// FIXREP_THREADS, FIXREP_NO_MEMO).
//
// Telemetry (docs/observability.md): FIXREP_TELEMETRY_OUT=<path> writes
// the JSONL event journal for the run (heartbeats + the streaming
// sections' chunk events — check it with check_regression.py --journal);
// FIXREP_METRICS_PORT=<port|0> serves GET /metrics for the duration and
// self-scrapes once mid-bench as an endpoint smoke test.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/metrics_server.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "eval/text_table.h"
#include "relation/csv.h"
#include "relation/row_store.h"
#include "repair/config.h"
#include "repair/crepair.h"
#include "repair/driver.h"
#include "repair/lrepair.h"
#include "repair/recovery.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/scale.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/registry.h"

namespace fixrep::bench {
namespace {

RepairConfig g_config;

// Workloads are expensive to build; cache one per dataset and bench rule
// prefixes out of it. google-benchmark may re-enter the function, so the
// cache is a function-local static.
const Workload& HospWorkload() {
  static const Workload* workload = [] {
    const ExperimentScale scale = GetExperimentScale();
    return new Workload(
        MakeHospWorkload(scale.hosp_rows, scale.hosp_rules));
  }();
  return *workload;
}

const Workload& UisWorkload() {
  static const Workload* workload = [] {
    const ExperimentScale scale = GetExperimentScale();
    return new Workload(MakeUisWorkload(scale.uis_rows, scale.uis_rules));
  }();
  return *workload;
}

// The memo/parallel showcase table: hosp rows resampled so ~32 copies of
// every distinct dirty tuple occur (hosp-at-scale duplicate density).
const Table& DuplicateHeavyTable() {
  static const Table* table = [] {
    const Table& dirty = HospWorkload().dirty;
    return new Table(MakeDuplicateHeavy(
        dirty, dirty.num_rows(), std::max<size_t>(dirty.num_rows() / 32, 1)));
  }();
  return *table;
}

// Peak-RSS bookkeeping for the dictionary budget section. Writing "5"
// to /proc/self/clear_refs resets VmHWM, so the section measures its
// own high-water mark instead of whatever earlier sections touched.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  std::fclose(f);
  return ok;
}

uint64_t ProcStatusBytes(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoull(line.c_str() + key_len, nullptr, 10) * 1024;
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<uint64_t>(pos);
}

template <typename Repairer>
void RepairWholeTable(::benchmark::State& state, const Workload& workload) {
  const RuleSet rules =
      workload.rules.Prefix(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Table copy = workload.dirty;  // repairs mutate; measure on a fresh copy
    Repairer repairer(&rules);
    state.ResumeTiming();
    repairer.RepairTable(&copy);
    ::benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload.dirty.num_rows()));
  state.counters["rules"] = static_cast<double>(rules.size());
}

void BM_Hosp_cRepair(::benchmark::State& state) {
  RepairWholeTable<ChaseRepairer>(state, HospWorkload());
}
void BM_Hosp_lRepair(::benchmark::State& state) {
  RepairWholeTable<FastRepairer>(state, HospWorkload());
}
void BM_Uis_cRepair(::benchmark::State& state) {
  RepairWholeTable<ChaseRepairer>(state, UisWorkload());
}
void BM_Uis_lRepair(::benchmark::State& state) {
  RepairWholeTable<FastRepairer>(state, UisWorkload());
}

// lRepair configurations over the duplicate-heavy table, all sharing one
// compiled image: plain serial chase, memoized serial, and the pooled
// parallel engine with worker-local memo caches.
enum class Config { kSerial, kSerialMemo, kPooledMemo, kPooledNoMemo };

void RepairDuplicateHeavy(::benchmark::State& state, Config config) {
  const Workload& workload = HospWorkload();
  const Table& dup = DuplicateHeavyTable();
  const std::unique_ptr<RuleDict> image =
      RuleDict::CompileOrDie(workload.rules);
  for (auto _ : state) {
    state.PauseTiming();
    Table copy = dup;
    state.ResumeTiming();
    switch (config) {
      case Config::kSerial: {
        const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
        FastRepairer repairer(handle->source());
        repairer.RepairTable(&copy);
        break;
      }
      case Config::kSerialMemo: {
        const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
        FastRepairer repairer(handle->source());
        MemoCache memo;
        repairer.set_memo(&memo);
        repairer.RepairTable(&copy);
        break;
      }
      case Config::kPooledMemo:
      case Config::kPooledNoMemo: {
        RepairConfig pooled = g_config;
        pooled.use_memo = config == Config::kPooledMemo;
        RepairDriver(*image, pooled).Run(&copy);
        break;
      }
    }
    ::benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * dup.num_rows()));
}

void BM_HospDup_lRepair(::benchmark::State& state) {
  RepairDuplicateHeavy(state, Config::kSerial);
}
void BM_HospDup_lRepair_Memo(::benchmark::State& state) {
  RepairDuplicateHeavy(state, Config::kSerialMemo);
}
void BM_HospDup_lRepair_Pooled(::benchmark::State& state) {
  RepairDuplicateHeavy(state, Config::kPooledNoMemo);
}
void BM_HospDup_lRepair_PooledMemo(::benchmark::State& state) {
  RepairDuplicateHeavy(state, Config::kPooledMemo);
}

BENCHMARK(BM_Hosp_cRepair)->DenseRange(100, 1000, 300)
    ->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_Hosp_lRepair)->DenseRange(100, 1000, 300)
    ->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_Uis_cRepair)->DenseRange(10, 100, 30)
    ->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_Uis_lRepair)->DenseRange(10, 100, 30)
    ->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_HospDup_lRepair)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_HospDup_lRepair_Memo)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_HospDup_lRepair_Pooled)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_HospDup_lRepair_PooledMemo)->Unit(::benchmark::kMillisecond);

// One measured before/after pass for BENCH_repair.json: baseline is the
// serial non-memoized chase, "after" is the pooled engine with memo (the
// default production configuration).
void WriteRepairJson() {
  const Workload& workload = HospWorkload();
  const Table& dup = DuplicateHeavyTable();
  const std::unique_ptr<RuleDict> image =
      RuleDict::CompileOrDie(workload.rules);
  const size_t rows = dup.num_rows();
  const size_t threads = g_config.threads == 0
                             ? ThreadPool::Global().num_workers() + 1
                             : g_config.threads;

  auto& registry = MetricsRegistry::Global();
  const auto counter = [&](const char* name) {
    const Counter* c = registry.FindCounter(name);
    return c == nullptr ? uint64_t{0} : c->Value();
  };

  // Best-of-3 per configuration (table copies made off the clock):
  // one-shot timings on a loaded machine are too noisy for a number
  // meant to be diffed across PRs. The allocation count is taken from
  // the best-timed run; for a deterministic workload it is the same
  // every run anyway.
  struct RunCost {
    double ms = 0;
    double allocations = 0;
  };
  // The in-memory sections finish in single-digit milliseconds, so a
  // contended scheduler slice anywhere in a run swings the number by
  // double-digit percentages; nine attempts make a quiet window likely.
  // The streaming sections run ~1s each and settle at five.
  constexpr int kRuns = 9;
  constexpr int kStreamRuns = 5;
  const auto best_of = [&](const char* label, const auto& run) {
    RunCost best;
    for (int i = 0; i < kRuns; ++i) {
      Table copy = dup;
      const uint64_t allocs_before = AllocationCount();
      const double ms = TimedMs(label, [&] { run(&copy); });
      const auto allocs =
          static_cast<double>(AllocationCount() - allocs_before);
      if (i == 0 || ms < best.ms) best = {ms, allocs};
    }
    return best;
  };

  // Probe-kernel A/B: serial_baseline is always measured with the scalar
  // kernel pinned, so it stays comparable across machines and across the
  // FIXREP_SIMD settings check_perf_regression sweeps — and so
  // speedup_vs_scalar below is an honest same-process ratio.
  const SimdKernel active_kernel = ActiveSimdKernel();
  SetSimdKernel(SimdKernel::kScalar);
  const RunCost baseline = best_of("fig13_baseline", [&](Table* copy) {
    const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
    FastRepairer repairer(handle->source());
    repairer.RepairTable(copy);
  });
  SetSimdKernel(active_kernel);
  const double baseline_ms = baseline.ms;

  // The same serial non-memoized chase under the active SIMD kernel —
  // the tentpole number. Skipped entirely when the active kernel IS
  // scalar (FIXREP_SIMD=off, non-x86): the section would duplicate
  // serial_baseline, and its absence lets the regression checker skip
  // the key on scalar-only runs.
  RunCost simd;
  if (active_kernel != SimdKernel::kScalar) {
    simd = best_of("fig13_simd", [&](Table* copy) {
      const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
      FastRepairer repairer(handle->source());
      repairer.RepairTable(copy);
    });
  }
  const RunCost memo = best_of("fig13_memo", [&](Table* copy) {
    const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
    FastRepairer repairer(handle->source());
    MemoCache memo_cache;
    repairer.set_memo(&memo_cache);
    repairer.RepairTable(copy);
  });
  const double memo_ms = memo.ms;
  const uint64_t hits_before = counter("fixrep.memo.hits");
  const uint64_t misses_before = counter("fixrep.memo.misses");
  const RunCost pooled = best_of("fig13_pooled_memo", [&](Table* copy) {
    RepairDriver(*image, g_config).Run(copy);
  });
  const double pooled_ms = pooled.ms;
  const uint64_t hits = counter("fixrep.memo.hits") - hits_before;
  const uint64_t misses = counter("fixrep.memo.misses") - misses_before;
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);

  // End-to-end chunked pipeline: CSV text in, repaired CSV text out,
  // through the streaming session (serial + memo, the CLI's --stream
  // defaults). Rendered once off the clock; the measured region is
  // parse + repair + serialize, the whole-file ingest-to-emit path.
  constexpr size_t kStreamChunkRows = 4096;
  std::string input_csv;
  {
    std::ostringstream csv;
    WriteCsv(dup, csv);
    input_csv = csv.str();
  }
  struct StreamCost {
    RunCost cost;
    RepairReport result;
  };
  const auto stream_best_of = [&](const char* label, const std::string& csv,
                                  const RuleDict& run_image,
                                  const RepairConfig& options) {
    StreamCost best;
    for (int i = 0; i < kStreamRuns; ++i) {
      std::istringstream in(csv);
      std::ostringstream out;
      const uint64_t allocs_before = AllocationCount();
      RepairReport run_result;
      const double ms = TimedMs(label, [&] {
        StatusOr<CsvChunkReader> reader =
            CsvChunkReader::Open(in, "bench", workload.data.pool);
        StreamInput input(&reader.value(), options.chunk_rows);
        const auto result =
            StreamRepair(run_image, options, nullptr, nullptr, &input, out);
        if (!result.ok() || result.value().rows != rows) {
          std::cerr << "streaming bench run failed\n";
          std::abort();
        }
        run_result = result.value();
      });
      const auto allocs =
          static_cast<double>(AllocationCount() - allocs_before);
      if (i == 0 || ms < best.cost.ms) best = {{ms, allocs}, run_result};
    }
    return best;
  };

  RepairConfig chunked_options;
  chunked_options.chunk_rows = kStreamChunkRows;
  const StreamCost streaming_run =
      stream_best_of("fig13_streaming", input_csv, *image, chunked_options);
  const RunCost streaming = streaming_run.cost;

  // Durable streaming: the same chunked pipeline journaling every chunk
  // to a write-ahead log with one group fsync per commit
  // (docs/durability.md). check_regression.py --wal gates the journaling
  // tax against the no-WAL streaming section above.
  const std::string wal_path = "BENCH_repair.wal";
  WalRunHeader wal_header;
  wal_header.rule_fingerprint = RuleSetFingerprint(workload.rules);
  for (size_t a = 0; a < dup.num_columns(); ++a) {
    wal_header.attribute_names.push_back(
        dup.schema().attribute_name(static_cast<AttrId>(a)));
  }
  wal_header.chunk_rows = kStreamChunkRows;
  // WAL and no-WAL passes are interleaved within one loop so both see
  // the same machine conditions: the overhead ratio below compares
  // best-of numbers taken seconds apart, not sections apart, which is
  // what keeps a 10% gate meaningful on a shared machine.
  StreamCost wal_run;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  double nowal_ms = streaming.ms;
  // Best WAL/no-WAL ratio over adjacent pairs: each iteration's two
  // runs execute back to back, so a load spike hits both sides of at
  // least one pair roughly equally and the min ratio converges on the
  // true journaling tax instead of the machine's mood.
  double best_overhead_ratio = 0;
  for (int i = 0; i < kStreamRuns; ++i) {
    std::remove(wal_path.c_str());
    StatusOr<ChunkJournal> journal =
        ChunkJournal::Create(wal_path, wal_header);
    if (!journal.ok()) {
      std::cerr << "cannot create " << wal_path << ": "
                << journal.status().message() << "\n";
      std::abort();
    }
    std::istringstream in(input_csv);
    std::ostringstream out;
    const uint64_t allocs_before = AllocationCount();
    RepairReport run_result;
    const double ms = TimedMs("fig13_streaming_wal", [&] {
      StatusOr<CsvChunkReader> reader =
          CsvChunkReader::Open(in, "bench", workload.data.pool, {});
      StreamInput input(&reader.value(), chunked_options.chunk_rows);
      const auto result = StreamRepair(*image, chunked_options,
                                       &journal.value(), nullptr, &input, out);
      if (!result.ok() || result.value().rows != rows) {
        std::cerr << "durable streaming bench run failed\n";
        std::abort();
      }
      run_result = result.value();
    });
    const auto allocs =
        static_cast<double>(AllocationCount() - allocs_before);
    if (i == 0 || ms < wal_run.cost.ms) {
      wal_run = {{ms, allocs}, run_result};
      wal_fsyncs = journal->fsync_count();
      wal_bytes = journal->appended_bytes();
    }
    if (!journal->Close().ok()) std::abort();
    {
      std::istringstream nowal_in(input_csv);
      std::ostringstream nowal_out;
      const double reference_ms = TimedMs("fig13_streaming_nowal", [&] {
        StatusOr<CsvChunkReader> reader = CsvChunkReader::Open(
            nowal_in, "bench", workload.data.pool, {});
        StreamInput input(&reader.value(), chunked_options.chunk_rows);
        const auto result = StreamRepair(*image, chunked_options, nullptr,
                                         nullptr, &input, nowal_out);
        if (!result.ok() || result.value().rows != rows) {
          std::cerr << "streaming bench run failed\n";
          std::abort();
        }
      });
      nowal_ms = std::min(nowal_ms, reference_ms);
      const double ratio = ms / reference_ms;
      if (i == 0 || ratio < best_overhead_ratio) {
        best_overhead_ratio = ratio;
      }
    }
  }
  std::remove(wal_path.c_str());

  // The most a stream's chunk cell block can take: a chunk read from a
  // stream or file ends within kKeepBytes of input and a record is at
  // least `arity` bytes. check_regression.py --journal holds every
  // journaled chunk's cell_bytes to it.
  const size_t chunk_cell_bound =
      (CsvChunkReader::kKeepBytes +
       RowStore::kRowsPerBlock * dup.num_columns()) *
      sizeof(ValueId);

  // On-disk rule dictionary (rules/rule_dict.h): the same serial chase
  // through the image mapped from its file instead of compiled into
  // the heap. Three rows: heap-image reference (fresh handle every run,
  // measured here so file and heap numbers share machine conditions;
  // the section keeps its ruledict_inram name), mmap-cold (fresh Open +
  // Bind + empty hot cache every run — the "first repair after compile"
  // shape), and mmap-warm (persistent handle, hot cache primed).
  // check_regression.py --ruledict gates warm against the heap image.
  const std::string dict_path = "BENCH_repair.dict";
  {
    const Status compiled = CompileRuleDict(workload.rules, dict_path);
    if (!compiled.ok()) {
      std::cerr << "rule dict compile failed: " << compiled.message()
                << "\n";
      std::abort();
    }
  }
  auto dict_or = RuleDict::Open(dict_path);
  if (!dict_or.ok()) {
    std::cerr << "rule dict open failed: " << dict_or.status().message()
              << "\n";
    std::abort();
  }
  RuleDict& dict = **dict_or;
  if (!dict.Bind(dup.schema(), workload.data.pool).ok()) std::abort();
  const uint64_t dict_bytes = dict.image().size();

  const RunCost dict_inram = best_of("fig13_dict_inram", [&](Table* copy) {
    const std::unique_ptr<RuleDictHandle> handle = image->MakeHandle();
    FastRepairer repairer(handle->source());
    repairer.RepairTable(copy);
  });
  RunCost dict_cold;
  for (int i = 0; i < kRuns; ++i) {
    Table copy = dup;
    const uint64_t allocs_before = AllocationCount();
    const double ms = TimedMs("fig13_dict_cold", [&] {
      auto cold = RuleDict::Open(dict_path);
      if (!cold.ok()) std::abort();
      if (!(*cold)->Bind(dup.schema(), workload.data.pool).ok()) {
        std::abort();
      }
      auto handle = (*cold)->MakeHandle();
      FastRepairer repairer(handle->source());
      repairer.RepairTable(&copy);
    });
    const auto allocs =
        static_cast<double>(AllocationCount() - allocs_before);
    if (i == 0 || ms < dict_cold.ms) dict_cold = {ms, allocs};
  }
  auto warm_handle = dict.MakeHandle();
  {
    Table warmup = dup;  // primes the hot posting cache, off the clock
    FastRepairer repairer(warm_handle->source());
    repairer.RepairTable(&warmup);
  }
  PostingCache* hot_cache = warm_handle->source().posting_cache();
  const uint64_t hot_hits_before = hot_cache->hits();
  const uint64_t hot_misses_before = hot_cache->misses();
  const RunCost dict_warm = best_of("fig13_dict_warm", [&](Table* copy) {
    FastRepairer repairer(warm_handle->source());
    repairer.RepairTable(copy);
  });
  const uint64_t hot_hits = hot_cache->hits() - hot_hits_before;
  const uint64_t hot_misses = hot_cache->misses() - hot_misses_before;
  const double hot_hit_rate =
      hot_hits + hot_misses == 0
          ? 0.0
          : static_cast<double>(hot_hits) /
                static_cast<double>(hot_hits + hot_misses);
  std::remove(dict_path.c_str());

  // Corpus-scale dictionary, bounded memory: hosp data streamed from a
  // file in byte-bounded chunks against a dictionary far larger than
  // one chunk — the working-set claim of docs/rules.md. Reduced scale
  // by default; FIXREP_FULL_SCALE=1 (or FIXREP_RULEDICT_ROWS/_RULES)
  // runs the 1M-row x 1M-rule version. The data, corpus, and CSV text
  // are built and dropped before the measured region, and VmHWM is
  // reset going in, so rss_delta_bytes is what the dictionary-backed
  // stream itself keeps resident — gated by check_regression.py
  // --ruledict against dict_bytes (the corpus must NOT become resident).
  const ExperimentScale exp_scale = GetExperimentScale();
  const size_t budget_rows = EnvSizeT("FIXREP_RULEDICT_ROWS",
                                      exp_scale.full ? 1'000'000 : 60'000);
  const size_t budget_rules = EnvSizeT(
      "FIXREP_RULEDICT_RULES", exp_scale.full ? 1'000'000 : 150'000);
  const std::string scale_dict_path = "BENCH_repair_scale.dict";
  const std::string scale_csv_path = "BENCH_repair_scale.csv";
  const std::string scale_out_path = "BENCH_repair_scale.out.csv";
  size_t corpus_rules = 0;
  {
    HospOptions hosp;
    hosp.rows = budget_rows;
    hosp.num_hospitals = std::max<size_t>(budget_rows / 30, 50);
    hosp.seed = 0x4051;
    GeneratedData data = GenerateHosp(hosp);
    Table dirty = data.clean;
    NoiseOptions noise_options;
    noise_options.seed = 0x4051 ^ 0xd1e7;
    InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
                noise_options);
    // Organic rules from a bounded prefix (every hosp value pattern
    // recurs, so prefix rules repair the whole table); synthetic
    // CFD-shaped bulk on top brings the corpus to budget_rules.
    const size_t prefix_rows = std::min<size_t>(budget_rows, 60'000);
    Table prefix_clean(data.schema, data.pool);
    Table prefix_dirty(data.schema, data.pool);
    for (size_t r = 0; r < prefix_rows; ++r) {
      prefix_clean.AppendRow(data.clean.row(r));
      prefix_dirty.AppendRow(dirty.row(r));
    }
    RuleGenOptions rulegen;
    rulegen.max_rules = 1000;
    rulegen.seed = 0x4051 ^ 0x9e37;
    RuleSet corpus =
        GenerateRules(prefix_clean, prefix_dirty, data.fds, rulegen);
    if (corpus.size() < budget_rules) {
      ScaleRuleGenOptions scale_options;
      scale_options.scale = budget_rules - corpus.size();
      AppendScaleRules(&corpus, scale_options);
    }
    corpus_rules = corpus.size();
    if (!CompileRuleDict(corpus, scale_dict_path).ok()) std::abort();
    if (!TryWriteCsvFile(dirty, scale_csv_path).ok()) std::abort();
  }
  const uint64_t scale_dict_bytes = FileBytes(scale_dict_path);
  const bool rss_reset = ResetPeakRss();
  const uint64_t rss_before = ProcStatusBytes("VmRSS:");
  RepairReport budget_report;
  double budget_ms = 0;
  // Best-of-3 (single runs swing double-digit percentages on a shared
  // machine); the RSS window spans all three, which only tightens the
  // resident-set claim.
  for (int i = 0; i < 3; ++i) {
    std::ifstream scale_in(scale_csv_path);
    auto scale_pool = std::make_shared<ValuePool>();
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(scale_in, "bench", scale_pool, {});
    if (!reader.ok()) std::abort();
    RepairConfig scale_config;
    // No row limit: read from the file, chunks end at the reader's 1 MiB
    // keep bound, so one chunk's cells are all that is resident.
    scale_config.chunk_rows = RepairConfig::kWholeFile;
    std::ofstream scale_out(scale_out_path,
                            std::ios::binary | std::ios::trunc);
    const double ms = TimedMs("fig13_dict_budget", [&] {
      // Opening and binding the dictionary is part of the timed run, and
      // the first chunk is read while they run.
      StreamInput input(&reader.value(), scale_config.chunk_rows);
      StatusOr<std::unique_ptr<RuleDict>> dict =
          RuleDict::Open(scale_dict_path);
      if (!dict.ok() ||
          !dict.value()->Bind(*input.schema(), scale_pool).ok()) {
        std::abort();
      }
      RepairSession session(dict.value().get(), scale_config);
      const auto report = session.RepairStream(&input, scale_out);
      if (!report.ok() || report.value().rows != budget_rows) {
        std::cerr << "dict budget run failed: "
                  << report.status().message() << "\n";
        std::abort();
      }
      budget_report = report.value();
    });
    if (i == 0 || ms < budget_ms) budget_ms = ms;
  }
  const uint64_t rss_peak = ProcStatusBytes("VmHWM:");
  const uint64_t rss_delta =
      rss_peak > rss_before ? rss_peak - rss_before : 0;
  const uint64_t hot_cache_bytes =
      PostingCache::kDefaultCapacity * sizeof(RuleSlot);
  std::remove(scale_dict_path.c_str());
  std::remove(scale_csv_path.c_str());
  std::remove(scale_out_path.c_str());

  // Daemon overhead: the duplicate-heavy batch repaired through the
  // serve stack (unix-socket round trip, frame CRC, config headers,
  // CSV re-parse on the worker) vs. directly against the prebuilt
  // compiled image. Both sides skip compilation — the tenant compiles
  // once at Load() and the direct runs borrow `image` — so
  // the ratio isolates the wire + dispatch tax. check_regression.py
  // --daemon gates daemon_rows_per_sec >= 0.85 x direct_rows_per_sec.
  const std::string serve_rules_path = "BENCH_repair_serve.rules";
  const std::string serve_socket_path = "BENCH_repair_serve.sock";
  if (!TryWriteRulesFile(workload.rules, serve_rules_path).ok()) {
    std::abort();
  }
  std::string serve_csv;
  {
    std::ostringstream render;
    WriteCsv(dup, render);
    serve_csv = render.str();
  }
  const RepairConfig serve_config;  // serial defaults on both sides
  constexpr int kServeRuns = 5;
  double direct_serve_ms = 0;
  std::string direct_serve_out;
  for (int i = 0; i < kServeRuns; ++i) {
    std::string out;
    const double ms = TimedMs("fig13_daemon_direct", [&] {
      std::istringstream in(serve_csv);
      StatusOr<Table> table =
          ReadCsvLenient(in, "bench", workload.data.pool, {});
      if (!table.ok()) std::abort();
      RepairSession session(image.get(), serve_config);
      if (!session.Repair(&table.value()).ok()) std::abort();
      std::ostringstream rendered;
      WriteCsv(table.value(), rendered);
      out = rendered.str();
    });
    if (i == 0 || ms < direct_serve_ms) direct_serve_ms = ms;
    direct_serve_out = std::move(out);
  }
  double daemon_ms = 0;
  bool daemon_identical = true;
  {
    serve::TenantRegistry serve_registry;
    std::string spec = serve_rules_path + "@";
    const auto& attrs = workload.data.schema->attribute_names();
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (a != 0) spec += ',';
      spec += attrs[a];
    }
    if (!serve_registry.Load("bench", spec).ok()) std::abort();
    std::remove(serve_socket_path.c_str());
    serve::DaemonOptions daemon_options;
    daemon_options.unix_socket_path = serve_socket_path;
    auto daemon = serve::RepairDaemon::Start(&serve_registry,
                                             std::move(daemon_options));
    if (!daemon.ok()) std::abort();
    serve::ClientOptions client_options;
    client_options.unix_socket_path = serve_socket_path;
    auto client = serve::Client::Connect(client_options);
    if (!client.ok()) std::abort();
    const auto config_headers = FormatRepairConfig(serve_config);
    for (int i = 0; i < kServeRuns; ++i) {
      std::string out;
      const double ms = TimedMs("fig13_daemon_submit", [&] {
        auto result =
            client.value().Submit("bench", config_headers, serve_csv);
        if (!result.ok() ||
            !ApplyCsvSplice(serve_csv, result->splice, &out).ok()) {
          std::abort();
        }
      });
      if (i == 0 || ms < daemon_ms) daemon_ms = ms;
      if (out != direct_serve_out) daemon_identical = false;
    }
    daemon.value()->Shutdown();
  }
  std::remove(serve_rules_path.c_str());
  std::remove(serve_socket_path.c_str());

  BenchJson json("BENCH_repair.json");
  json.Set("workload", "rows", static_cast<double>(rows));
  json.Set("workload", "rules", static_cast<double>(workload.rules.size()));
  json.Set("workload", "distinct_rows",
           static_cast<double>(std::max<size_t>(rows / 32, 1)));
  json.Set("workload", "thread_count", static_cast<double>(threads));
  json.Set("workload", "memo_enabled", g_config.use_memo ? 1.0 : 0.0);
  json.SetString("workload", "simd_kernel", SimdKernelName(active_kernel));
  json.Set("serial_baseline", "ms", baseline_ms);
  json.Set("serial_baseline", "rows_per_sec", rows / (baseline_ms / 1e3));
  json.Set("serial_baseline", "allocations", baseline.allocations);
  if (active_kernel != SimdKernel::kScalar) {
    json.Set("serial_nomemo_simd", "ms", simd.ms);
    json.Set("serial_nomemo_simd", "rows_per_sec", rows / (simd.ms / 1e3));
    json.Set("serial_nomemo_simd", "allocations", simd.allocations);
    json.Set("serial_nomemo_simd", "speedup_vs_scalar", baseline_ms / simd.ms);
  }
  json.Set("serial_memo", "ms", memo_ms);
  json.Set("serial_memo", "rows_per_sec", rows / (memo_ms / 1e3));
  json.Set("serial_memo", "allocations", memo.allocations);
  json.Set("pooled_memo", "ms", pooled_ms);
  json.Set("pooled_memo", "rows_per_sec", rows / (pooled_ms / 1e3));
  json.Set("pooled_memo", "allocations", pooled.allocations);
  json.Set("pooled_memo", "memo_hit_rate", hit_rate);
  json.Set("pooled_memo", "speedup_vs_baseline", baseline_ms / pooled_ms);
  json.Set("streaming_chunked", "ms", streaming.ms);
  json.Set("streaming_chunked", "rows_per_sec", rows / (streaming.ms / 1e3));
  json.Set("streaming_chunked", "allocations", streaming.allocations);
  json.Set("streaming_chunked", "chunk_rows",
           static_cast<double>(kStreamChunkRows));
  json.Set("streaming_wal", "ms", wal_run.cost.ms);
  json.Set("streaming_wal", "rows_per_sec", rows / (wal_run.cost.ms / 1e3));
  json.Set("streaming_wal", "allocations", wal_run.cost.allocations);
  json.Set("streaming_wal", "chunk_rows",
           static_cast<double>(kStreamChunkRows));
  // Fractional slowdown vs the interleaved no-WAL reference (best
  // adjacent pair); check_regression.py --wal gates this key directly.
  json.Set("streaming_wal", "wal_overhead", best_overhead_ratio - 1.0);
  json.Set("streaming_wal", "nowal_rows_per_sec", rows / (nowal_ms / 1e3));
  json.Set("streaming_wal", "fsyncs", static_cast<double>(wal_fsyncs));
  json.Set("streaming_wal", "fsyncs_per_chunk",
           static_cast<double>(wal_fsyncs) /
               std::max<double>(1.0, static_cast<double>(wal_run.result.chunks)));
  json.Set("streaming_wal", "wal_bytes", static_cast<double>(wal_bytes));
  json.Set("streaming_chunked", "chunk_cell_bound_bytes",
           static_cast<double>(chunk_cell_bound));
  json.Set("ruledict_inram", "ms", dict_inram.ms);
  json.Set("ruledict_inram", "rows_per_sec", rows / (dict_inram.ms / 1e3));
  json.Set("ruledict_inram", "allocations", dict_inram.allocations);
  json.Set("ruledict_cold", "ms", dict_cold.ms);
  json.Set("ruledict_cold", "rows_per_sec", rows / (dict_cold.ms / 1e3));
  json.Set("ruledict_cold", "allocations", dict_cold.allocations);
  json.Set("ruledict_warm", "ms", dict_warm.ms);
  json.Set("ruledict_warm", "rows_per_sec", rows / (dict_warm.ms / 1e3));
  json.Set("ruledict_warm", "allocations", dict_warm.allocations);
  json.Set("ruledict_warm", "hot_cache_hit_rate", hot_hit_rate);
  json.Set("ruledict_warm", "warm_vs_inram", dict_inram.ms / dict_warm.ms);
  json.Set("ruledict_warm", "dict_bytes", static_cast<double>(dict_bytes));
  json.Set("ruledict_budget", "ms", budget_ms);
  json.Set("ruledict_budget", "rows_per_sec",
           budget_rows / (budget_ms / 1e3));
  json.Set("ruledict_budget", "rows", static_cast<double>(budget_rows));
  json.Set("ruledict_budget", "corpus_rules",
           static_cast<double>(corpus_rules));
  json.Set("ruledict_budget", "cells_changed",
           static_cast<double>(budget_report.cells_changed));
  json.Set("ruledict_budget", "dict_bytes",
           static_cast<double>(scale_dict_bytes));
  json.Set("ruledict_budget", "peak_chunk_bytes",
           static_cast<double>(budget_report.peak_chunk_bytes));
  json.Set("ruledict_budget", "hot_cache_bytes",
           static_cast<double>(hot_cache_bytes));
  json.Set("ruledict_budget", "rss_reset", rss_reset ? 1.0 : 0.0);
  json.Set("ruledict_budget", "rss_before_bytes",
           static_cast<double>(rss_before));
  json.Set("ruledict_budget", "rss_peak_bytes",
           static_cast<double>(rss_peak));
  json.Set("ruledict_budget", "rss_delta_bytes",
           static_cast<double>(rss_delta));
  json.Set("daemon_overhead", "direct_ms", direct_serve_ms);
  json.Set("daemon_overhead", "direct_rows_per_sec",
           rows / (direct_serve_ms / 1e3));
  json.Set("daemon_overhead", "daemon_ms", daemon_ms);
  json.Set("daemon_overhead", "daemon_rows_per_sec",
           rows / (daemon_ms / 1e3));
  json.Set("daemon_overhead", "throughput_ratio",
           direct_serve_ms / daemon_ms);
  json.Set("daemon_overhead", "byte_identical", daemon_identical ? 1.0 : 0.0);
  json.Set("process", "peak_rss_bytes", PeakRssBytes());
  json.Set("process", "allocations_total",
           static_cast<double>(AllocationCount()));
  json.Set("phases_ns", "index_build",
           SpanTotalNanos("lrepair.index_build"));
  json.Set("phases_ns", "chase", SpanTotalNanos("lrepair.chase"));
  json.Set("phases_ns", "parallel_repair_table",
           SpanTotalNanos("parallel.repair_table"));
  if (json.Write()) {
    std::cout << "wrote " << json.path() << " (speedup "
              << FormatDouble(baseline_ms / pooled_ms, 2) << "x, memo hit "
              << FormatDouble(hit_rate * 100.0, 1) << "%, kernel "
              << SimdKernelName(active_kernel);
    if (active_kernel != SimdKernel::kScalar) {
      std::cout << ", simd speedup "
                << FormatDouble(baseline_ms / simd.ms, 2) << "x";
    }
    std::cout << ")\n";
  }
  const std::string metrics = DescribeMetrics();
  if (!metrics.empty()) std::cout << metrics << "\n";
  MaybeDumpMetrics();
}

// One GET /metrics against our own endpoint, mid-run: the smoke test
// check_perf_regression relies on. Returns false (after printing why)
// when the scrape fails — a broken endpoint must fail the bench.
bool SelfScrape(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "self-scrape: socket: " << std::strerror(errno) << "\n";
    return false;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::cerr << "self-scrape: connect: " << std::strerror(errno) << "\n";
    close(fd);
    return false;
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    std::cerr << "self-scrape: send failed\n";
    close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  if (response.find("200 OK") == std::string::npos ||
      response.find("fixrep_") == std::string::npos) {
    std::cerr << "self-scrape: unexpected response:\n" << response << "\n";
    return false;
  }
  std::cout << "self-scrape ok: " << response.size()
            << " bytes from 127.0.0.1:" << port << "/metrics\n";
  return true;
}

}  // namespace
}  // namespace fixrep::bench

int main(int argc, char** argv) {
  fixrep::bench::g_config = fixrep::ParseBenchRepairConfig(argc, argv);

  // FIXREP_TELEMETRY_OUT: journal the run (heartbeats + chunk events).
  std::unique_ptr<fixrep::TelemetryJournal> journal;
  std::unique_ptr<fixrep::HeartbeatSampler> sampler;
  const char* journal_path = std::getenv("FIXREP_TELEMETRY_OUT");
  if (journal_path != nullptr && *journal_path != '\0') {
    auto opened = fixrep::TelemetryJournal::Open(journal_path);
    if (!opened.ok()) {
      std::cerr << opened.status().message() << "\n";
      return 1;
    }
    journal = std::move(opened).value();
    journal->Append(fixrep::TelemetryEvent("run_start")
                        .SetString("command", "bench_fig13_repair"));
    fixrep::SetGlobalJournal(journal.get());
    fixrep::HeartbeatOptions heartbeat;
    heartbeat.interval_ms = 250;  // streaming sections run ~1s each
    heartbeat.journal = journal.get();
    sampler = std::make_unique<fixrep::HeartbeatSampler>(heartbeat);
    sampler->Start();
  }

  // FIXREP_METRICS_PORT: serve GET /metrics (0 = ephemeral).
  std::unique_ptr<fixrep::MetricsServer> server;
  const char* port_env = std::getenv("FIXREP_METRICS_PORT");
  int exit_code = 0;
  if (port_env != nullptr && *port_env != '\0') {
    fixrep::MetricsServerOptions options;
    options.tcp_port = std::atoi(port_env);
    auto started = fixrep::MetricsServer::Start(std::move(options));
    if (!started.ok()) {
      std::cerr << started.status().message() << "\n";
      exit_code = 1;
    } else {
      server = std::move(started).value();
      std::cout << "serving /metrics on 127.0.0.1:" << server->port()
                << "\n";
    }
  }

  if (exit_code == 0) {
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    fixrep::bench::WriteRepairJson();
    // The measured pass has run but the endpoint is still live — the
    // scrape must see the run's counters, not an empty registry.
    if (server != nullptr && !fixrep::bench::SelfScrape(server->port())) {
      exit_code = 1;
    }
  }

  if (sampler != nullptr) sampler->Stop();  // emits the final heartbeat
  if (server != nullptr) server->Stop();
  if (journal != nullptr) {
    fixrep::SetGlobalJournal(nullptr);
    journal->Append(
        fixrep::TelemetryEvent("run_end")
            .Set("exit_code", static_cast<uint64_t>(exit_code))
            .Set("rss_peak_bytes", fixrep::TelemetryPeakRssBytes()));
  }
  if (exit_code == 0) ::benchmark::Shutdown();
  return exit_code;
}
