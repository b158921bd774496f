#!/usr/bin/env python3
"""Guard against repair-throughput regressions.

Compares every *rows_per_sec* entry of a freshly generated
BENCH_repair.json against the committed baseline and exits non-zero when
any entry present in both files has dropped by more than --tolerance
(default 25%: wall-clock sections on a shared machine see double-digit
scheduler noise between runs, while the regressions this guards against
-- losing memoization, pooling, or block reuse -- cost 2-10x). Entries present on only one side are reported and skipped
(bench_fig13_repair and bench_scaling emit different section sets into
the same file), but finding *no* comparable entry at all is an error —
that means the check compared the wrong files.

With --wal, additionally audits the durable-streaming section of the
*current* run: streaming_wal (the chunked pipeline journaling every
committed chunk to a write-ahead log, docs/durability.md) must keep its
rows/s within --wal-tolerance (default 10%) of streaming_chunked, the
identical pipeline without a WAL — journaling is only on by default in
the CLI because it is nearly free, and this gate keeps it that way. The
section must also report at most one fsync per chunk beyond the header
sync (the group-commit contract).

With --ruledict, additionally audits the on-disk rule dictionary
sections of the *current* run (docs/rules.md): ruledict_warm (serial
chase through the memory-mapped dictionary with a primed hot posting
cache) must keep its rows/s within --ruledict-tolerance (default 15%)
of ruledict_inram, the same chase over the heap image (the same
FXRDICT bytes compiled into memory) measured seconds earlier in the
same process — mapping the image from a file must cost (nearly)
nothing once warm. And ruledict_budget (corpus-scale
dictionary, hosp data streamed from a file in byte-bounded chunks) must
keep the RSS the run itself added (rss_delta_bytes, measured from a
reset VmHWM) below its dictionary's file size — the corpus must stay on
disk, not become resident.

With --daemon, additionally audits the daemon_overhead section of the
*current* run (docs/serving.md): daemon_rows_per_sec (the hosp batch
submitted to an in-process repair daemon over a unix socket — framing,
CRC, config-header parse, CSV re-parse on a pool worker) must stay
within --daemon-tolerance (default 15%) of direct_rows_per_sec, the
same batch repaired in-process against the same prebuilt compiled
index — the serve stack must be a thin veneer, not a second engine.
The served bytes must also be identical to the direct output
(byte_identical).

With --journal, additionally validates the telemetry journal the bench
run wrote (FIXREP_TELEMETRY_OUT, see docs/observability.md): every line
must be a JSON object carrying "event" and "t_ms", the journal must open
with journal_open and contain at least one heartbeat, t_ms and the
heartbeat rows counter must be nondecreasing, chunk rows_total must be
nondecreasing within each streaming section, and every chunk's
cell_bytes (its cell block, RowStore::bytes) must stay within the
current run's streaming_chunked.chunk_cell_bound_bytes: a chunk read
from a stream or file ends within CsvChunkReader::kKeepBytes of input
and a record is at least `arity` bytes, so its cell block holds at most
(kKeepBytes + kRowsPerBlock * arity) cells however long the input is.
Every bench section streams from an istream or a file; a payload read
with CsvChunkReader::OpenBytes and no row limit is one chunk, O(payload),
and must not be journaled into this audit.

Usage:
  check_regression.py --baseline BENCH_repair.json \
                      --current build/BENCH_repair.json \
                      [--journal build/BENCH_telemetry.jsonl] \
                      [--tolerance 0.25]

Or via the CMake target, which regenerates the current file first:
  cmake --build build --target check_perf_regression
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"check_regression: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"check_regression: {path} is not valid JSON: {e}")


def check_journal(path, cell_bound):
    """Schema/monotonicity/chunk-bound audit of a telemetry journal.
    `cell_bound` is the largest allowed chunk cell_bytes (None: not
    reported by the current run, so unchecked). Returns a list of
    failure strings (empty = pass)."""
    failures = []
    events = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as e:
                    sys.exit(f"check_regression: {path}:{lineno} is not "
                             f"valid JSON: {e}")
                if not isinstance(event, dict) or "event" not in event \
                        or "t_ms" not in event:
                    sys.exit(f"check_regression: {path}:{lineno} lacks the "
                             f"event/t_ms envelope: {line}")
                events.append((lineno, event))
    except OSError as e:
        sys.exit(f"check_regression: cannot read {path}: {e}")

    if not events or events[0][1]["event"] != "journal_open":
        failures.append("journal does not start with a journal_open event")
        return failures

    heartbeats = 0
    last_t_ms = 0
    last_rows = 0
    last_chunk_index = 0
    last_rows_total = 0
    peak_cell_bytes = 0
    for lineno, event in events:
        t_ms = event["t_ms"]
        if t_ms < last_t_ms:
            failures.append(f"line {lineno}: t_ms ran backwards "
                            f"({t_ms} < {last_t_ms})")
        last_t_ms = t_ms
        kind = event["event"]
        if kind == "heartbeat":
            heartbeats += 1
            for key in ("seq", "rows", "rows_per_s", "rss_peak_bytes"):
                if key not in event:
                    failures.append(f"line {lineno}: heartbeat lacks {key}")
            rows = event.get("rows", 0)
            if rows < last_rows:
                failures.append(f"line {lineno}: heartbeat rows ran "
                                f"backwards ({rows} < {last_rows})")
            last_rows = rows
        elif kind == "chunk":
            for key in ("index", "rows", "rows_total", "cell_bytes"):
                if key not in event:
                    failures.append(f"line {lineno}: chunk lacks {key}")
            index = event.get("index", 0)
            rows_total = event.get("rows_total", 0)
            # A bench run streams several sections; index restarting at 1
            # marks a new section, which resets the rows_total baseline.
            if index > last_chunk_index and rows_total < last_rows_total:
                failures.append(f"line {lineno}: chunk rows_total ran "
                                f"backwards within a section "
                                f"({rows_total} < {last_rows_total})")
            last_chunk_index = index
            last_rows_total = rows_total
            cell_bytes = event.get("cell_bytes", 0)
            peak_cell_bytes = max(peak_cell_bytes, cell_bytes)
            if cell_bound is not None and cell_bytes > cell_bound:
                failures.append(f"line {lineno}: chunk cell block "
                                f"{cell_bytes:,.0f} B exceeds the keep "
                                f"bound's {cell_bound:,.0f} B")
    if heartbeats == 0:
        failures.append("journal contains no heartbeat events — was the "
                        "sampler running?")
    if not failures:
        bound_note = ("chunk bound not reported" if cell_bound is None else
                      f"chunk cell blocks <= {peak_cell_bytes:,.0f} B "
                      f"(bound {cell_bound:,.0f} B)")
        print(f"   journal  {path}: {len(events)} events, "
              f"{heartbeats} heartbeats, monotone, {bound_note}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_repair.json")
    parser.add_argument("--current", required=True,
                        help="freshly generated BENCH_repair.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional rows/s drop (default 0.25)")
    parser.add_argument("--wal", action="store_true",
                        help="audit the streaming_wal section: rows/s "
                             "within --wal-tolerance of "
                             "streaming_chunked, and group commit "
                             "(<= 1 fsync per chunk plus the header)")
    parser.add_argument("--wal-tolerance", type=float, default=0.10,
                        help="allowed fractional rows/s drop of durable "
                             "streaming vs no-WAL streaming "
                             "(default 0.10)")
    parser.add_argument("--ruledict", action="store_true",
                        help="audit the ruledict sections: warm mmap "
                             "chase within --ruledict-tolerance of the "
                             "heap image, and the budget run's RSS "
                             "delta below the dictionary file size")
    parser.add_argument("--ruledict-tolerance", type=float, default=0.15,
                        help="allowed fractional rows/s drop of the "
                             "warm dictionary chase vs the heap image "
                             "(default 0.15)")
    parser.add_argument("--daemon", action="store_true",
                        help="audit the daemon_overhead section: "
                             "daemon-served throughput within "
                             "--daemon-tolerance of the direct "
                             "in-process path, and byte-identical "
                             "output")
    parser.add_argument("--daemon-tolerance", type=float, default=0.15,
                        help="allowed fractional rows/s drop of "
                             "daemon-served repairs vs the direct "
                             "in-process path (default 0.15)")
    parser.add_argument("--journal", default=None,
                        help="telemetry journal (JSONL) written by the "
                             "current bench run; checked for schema, "
                             "monotonicity, and the chunk cell bound")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    checked = 0
    for section in sorted(baseline):
        entries = baseline[section]
        if not isinstance(entries, dict):
            continue
        for key in sorted(entries):
            if "rows_per_sec" not in key:
                continue
            base_value = entries[key]
            cur_value = current.get(section, {}).get(key)
            if cur_value is None:
                print(f"      skip  {section}.{key}: not in current run")
                continue
            checked += 1
            ratio = cur_value / base_value if base_value > 0 else 1.0
            delta = (ratio - 1.0) * 100.0
            status = "ok"
            if ratio < 1.0 - args.tolerance:
                status = "REGRESSION"
                failures.append((section, key, base_value, cur_value, delta))
            print(f"{status:>10}  {section}.{key}: "
                  f"baseline {base_value:,.0f} rows/s, "
                  f"current {cur_value:,.0f} rows/s ({delta:+.1f}%)")

    # WAL-overhead audit: durable streaming must stay within
    # --wal-tolerance of the no-WAL stream, and each chunk must cost one
    # group fsync (plus the one header sync per run).
    wal_failures = []
    if args.wal:
        wal = current.get("streaming_wal", {})
        chunked = current.get("streaming_chunked", {})
        # wal_overhead is the bench's noise-robust measurement: the best
        # WAL/no-WAL ratio over adjacent interleaved run pairs. Fall
        # back to the section rows/s ratio for older JSON files.
        overhead = wal.get("wal_overhead")
        if overhead is None:
            wal_rps = wal.get("rows_per_sec")
            chunked_rps = wal.get("nowal_rows_per_sec",
                                  chunked.get("rows_per_sec"))
            if wal_rps is not None and chunked_rps:
                overhead = chunked_rps / wal_rps - 1.0
        if overhead is None:
            wal_failures.append("streaming_wal overhead not reported by "
                                "the current run")
        else:
            status = "ok"
            if overhead > args.wal_tolerance:
                status = "WAL OVERHEAD"
                wal_failures.append(
                    f"durable streaming costs {overhead:.1%} of no-WAL "
                    f"streaming throughput "
                    f"(gate {args.wal_tolerance:.0%})")
            print(f"{status:>10}  streaming_wal: journaling overhead "
                  f"{overhead:+.1%} vs no-WAL streaming "
                  f"(gate {args.wal_tolerance:.0%})")
            fsyncs_per_chunk = wal.get("fsyncs_per_chunk")
            if fsyncs_per_chunk is None:
                wal_failures.append("streaming_wal.fsyncs_per_chunk "
                                    "missing from the current run")
            elif fsyncs_per_chunk > 2.0:  # commit + amortized header
                wal_failures.append(
                    f"streaming_wal made {fsyncs_per_chunk:.2f} fsyncs "
                    f"per chunk — group commit is broken")

    # Dictionary audit: the mapped file must be free once warm, and the
    # corpus-scale budget run must not pull the corpus into RSS.
    ruledict_failures = []
    if args.ruledict:
        warm = current.get("ruledict_warm", {})
        inram = current.get("ruledict_inram", {})
        warm_rps = warm.get("rows_per_sec")
        inram_rps = inram.get("rows_per_sec")
        if warm_rps is None or not inram_rps:
            ruledict_failures.append("ruledict_warm/ruledict_inram "
                                     "rows_per_sec missing from the "
                                     "current run")
        else:
            ratio = warm_rps / inram_rps
            delta = (ratio - 1.0) * 100.0
            status = "ok"
            if ratio < 1.0 - args.ruledict_tolerance:
                status = "DICT SLOW"
                ruledict_failures.append(
                    f"warm dictionary chase runs at {ratio:.2f}x the "
                    f"heap image ({delta:+.1f}%, gate "
                    f"-{args.ruledict_tolerance:.0%})")
            print(f"{status:>10}  ruledict_warm: {warm_rps:,.0f} rows/s "
                  f"vs heap image {inram_rps:,.0f} rows/s ({delta:+.1f}%, "
                  f"hot-cache hit rate "
                  f"{warm.get('hot_cache_hit_rate', 0.0):.1%})")
        budget = current.get("ruledict_budget", {})
        dict_bytes = budget.get("dict_bytes")
        rss_delta = budget.get("rss_delta_bytes")
        if dict_bytes is None or rss_delta is None:
            ruledict_failures.append("ruledict_budget dict_bytes/"
                                     "rss_delta_bytes missing from the "
                                     "current run")
        elif budget.get("rss_reset", 0.0) == 0.0:
            # /proc/self/clear_refs was unwritable (non-Linux sandbox):
            # rss_delta_bytes includes every earlier section's peak, so
            # the bound would be meaningless. Report, don't fail.
            print(f"      skip  ruledict_budget: VmHWM reset "
                  f"unavailable, rss_delta_bytes not comparable")
        else:
            ratio = rss_delta / dict_bytes if dict_bytes > 0 else 0.0
            status = "ok"
            if ratio > 1.0:
                status = "DICT RESIDENT"
                ruledict_failures.append(
                    f"budget run added {rss_delta:,.0f} B of RSS "
                    f"against a {dict_bytes:,.0f} B dictionary "
                    f"({ratio:.2f}x) — the corpus is being pulled "
                    f"into memory")
            print(f"{status:>10}  ruledict_budget: rss delta "
                  f"{rss_delta:,.0f} B vs dictionary "
                  f"{dict_bytes:,.0f} B ({ratio:.2f}x), chunk cell "
                  f"block {budget.get('peak_chunk_bytes', 0):,.0f} B")

    # Daemon audit: the serve stack (socket round trip, framing, CSV
    # re-parse) must stay a thin veneer over the direct repair path and
    # must return exactly the bytes the direct path produces.
    daemon_failures = []
    if args.daemon:
        overhead = current.get("daemon_overhead", {})
        daemon_rps = overhead.get("daemon_rows_per_sec")
        direct_rps = overhead.get("direct_rows_per_sec")
        if daemon_rps is None or not direct_rps:
            daemon_failures.append("daemon_overhead daemon/direct "
                                   "rows_per_sec missing from the "
                                   "current run")
        else:
            ratio = daemon_rps / direct_rps
            delta = (ratio - 1.0) * 100.0
            status = "ok"
            if ratio < 1.0 - args.daemon_tolerance:
                status = "DAEMON SLOW"
                daemon_failures.append(
                    f"daemon-served repair runs at {ratio:.2f}x the "
                    f"direct path ({delta:+.1f}%, gate "
                    f"-{args.daemon_tolerance:.0%})")
            print(f"{status:>10}  daemon_overhead: {daemon_rps:,.0f} "
                  f"rows/s vs direct {direct_rps:,.0f} rows/s "
                  f"({delta:+.1f}%)")
        if overhead and overhead.get("byte_identical", 0.0) == 0.0:
            daemon_failures.append("daemon responses diverged from the "
                                   "direct repair output")

    journal_failures = []
    if args.journal is not None:
        cell_bound = current.get("streaming_chunked", {}).get(
            "chunk_cell_bound_bytes")
        journal_failures = check_journal(args.journal, cell_bound)

    if checked == 0:
        sys.exit("check_regression: no rows_per_sec entries in common — "
                 "wrong baseline/current pairing?")
    if journal_failures:
        print()
        print("=" * 64)
        print(f"TELEMETRY JOURNAL CHECK FAILED: {len(journal_failures)} "
              f"problem(s) in {args.journal}:")
        for failure in journal_failures:
            print(f"  {failure}")
        print("=" * 64)
        sys.exit(1)
    if wal_failures:
        print()
        print("=" * 64)
        print(f"WAL OVERHEAD CHECK FAILED: {len(wal_failures)} problem(s):")
        for failure in wal_failures:
            print(f"  {failure}")
        print("=" * 64)
        sys.exit(1)
    if daemon_failures:
        print()
        print("=" * 64)
        print(f"DAEMON OVERHEAD CHECK FAILED: {len(daemon_failures)} "
              f"problem(s):")
        for failure in daemon_failures:
            print(f"  {failure}")
        print("=" * 64)
        sys.exit(1)
    if ruledict_failures:
        print()
        print("=" * 64)
        print(f"RULE DICTIONARY CHECK FAILED: {len(ruledict_failures)} "
              f"problem(s):")
        for failure in ruledict_failures:
            print(f"  {failure}")
        print("=" * 64)
        sys.exit(1)
    if failures:
        print()
        print("=" * 64)
        print(f"PERF REGRESSION: {len(failures)} of {checked} throughput "
              f"entries dropped more than {args.tolerance:.0%}:")
        for section, key, base_value, cur_value, delta in failures:
            print(f"  {section}.{key}: {base_value:,.0f} -> "
                  f"{cur_value:,.0f} rows/s ({delta:+.1f}%)")
        print("If the slowdown is intended, regenerate the baseline with")
        print("  FIXREP_BENCH_JSON=BENCH_repair.json "
              "build/bench/bench_fig13_repair")
        print("=" * 64)
        sys.exit(1)
    journal_note = "" if args.journal is None else "; telemetry journal ok"
    wal_note = "" if not args.wal else (
        f"; WAL overhead within {args.wal_tolerance:.0%}")
    print(f"perf check passed: {checked} throughput entries within "
          f"{args.tolerance:.0%} of baseline{wal_note}{journal_note}")


if __name__ == "__main__":
    main()
