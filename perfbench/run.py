#!/usr/bin/env python3
"""End-to-end benchmark of fixrep as its users run it.

Run from the root of a fixrep checkout:

    python3 perfbench/run.py --workload file --seed 1 --seconds 35 --trace 0

The script builds `fixrep_cli` (Release) under .bench_build/, generates a
hosp table from --seed with the program's own generator, and then drives
the command-line tool in a closed loop for --seconds:

    file    `fixrep_cli repair`: CSV file in, repaired CSV file out
    stream  `fixrep_cli repair --stream --wal`: chunked, one fsync per chunk
    daemon  `fixrep_cli submit` against `fixrep_cli serve` hosting a
            compiled FXRDICT dictionary, from CLIENTS concurrent clients

Every repaired output is checked byte for byte against the cRepair
reference chase on the same input, and the reference itself is checked
against the clean table (repair precision).

Times are scaled to a reference machine speed (see CAL_REF_MS). With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it replays the same loop with the program's metrics snapshot
(and, for the stream, its telemetry journal) switched on and reports the
per-layer breakdown instead, in unscaled milliseconds. The last line of
stdout is one JSON object.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = os.path.join(".bench_build", "cmake")
CLI = os.path.join(BUILD_DIR, "examples", "fixrep_cli")
WORK_ROOT = ".bench_run"

# 20K hosp rows (4.4 MB of CSV) keep one operation near 0.15 s, so a
# 35 s run collects the 100 samples a p90 needs.
ROWS = 20000
# Five chunks per stream, so the WAL group-commits five times per run.
CHUNK_ROWS = 4096
# Two closed-loop clients: the daemon overlaps requests on its pool
# without the clients and the daemon oversubscribing a 4-vCPU host.
CLIENTS = 2
# Each run sets up this many times and reports the median: one rule
# mining call varies by ±25% on a shared VM, a median of 9 by about 6%.
SETUP_REPS = 9
# The generated rules must repair at least this share of changed cells
# to the clean value; hosp rules reach about 0.96.
MIN_PRECISION = 0.9
# On a shared VM every process speeds up and slows down together, by
# ±20% over minutes. So each timed call into fixrep is paired with a
# calibration call made just before it -- `gzip -1` of the same input,
# which has the same shape: start a process, read the CSV, burn CPU --
# and its time is reported scaled to a machine on which the calibration
# takes CAL_REF_MS. On a 4-vCPU VM the pairing cut the spread of 20 s
# medians from 11% to 3%.
CAL_REF_MS = 50.0
# Engine counters the traced replay sums up.
COUNTERS = ("fixrep.lrepair.batch_keys", "fixrep.lrepair.rule_applications",
            "fixrep.lrepair.candidates_enqueued", "fixrep.memo.hits",
            "fixrep.memo.misses", "fixrep.wal.fsyncs")


class BenchError(Exception):
    pass


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run(cmd, cwd=None, timeout=120):
    """Runs `cmd` and returns its stdout; a nonzero exit is a BenchError."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def build():
    """Configures once, then (re)builds only the CLI target."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a fixrep checkout "
                         "(CMakeLists.txt and src/ not found)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(".bench_build", "build.log"), "w") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "fixrep_cli", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(step)} "
                                 "(see .bench_build/build.log)")
    return os.path.abspath(CLI)


def calibrate(work):
    """Milliseconds one `gzip -1` of the input takes right now."""
    start = time.perf_counter_ns()
    proc = subprocess.run(["gzip", "-1", "-c", "dirty.csv"], cwd=work,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"calibration gzip failed: {proc.stderr!r}")
    return (time.perf_counter_ns() - start) / 1e6


def sha1_of(path):
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def check_precision(work):
    """The reference repair must keep the schema and row count and fix
    most of the cells it changes back to the clean value."""
    clean = read_rows(os.path.join(work, "clean.csv"))
    dirty = read_rows(os.path.join(work, "dirty.csv"))
    fixed = read_rows(os.path.join(work, "reference.csv"))
    if not (len(clean) == len(dirty) == len(fixed) == ROWS + 1):
        raise BenchError("reference repair changed the row count")
    if not (clean[0] == dirty[0] == fixed[0]):
        raise BenchError("reference repair changed the header")
    changed = corrected = 0
    for c_row, d_row, f_row in zip(clean[1:], dirty[1:], fixed[1:]):
        for c, d, f in zip(c_row, d_row, f_row):
            if f != d:
                changed += 1
                corrected += f == c
    if changed == 0 or corrected / changed < MIN_PRECISION:
        raise BenchError(f"reference repair corrected {corrected} of "
                         f"{changed} changed cells")


class Tracer:
    """The benchmark's own spans, one per call into the program."""

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.spans = []
        self.lock = threading.Lock()

    def record(self, name, start_ns, end_ns, parent=None, op=None):
        with self.lock:
            self.spans.append({"name": name, "op": op, "parent": parent,
                               "start_ns": start_ns - self.origin,
                               "end_ns": end_ns - self.origin})

    def timed(self, name, fn, parent=None):
        start = time.perf_counter_ns()
        result = fn()
        self.record(name, start, time.perf_counter_ns(), parent)
        return result


class Daemon:
    """One `fixrep_cli serve` on an ephemeral loopback port."""

    def __init__(self, cli, work, trace):
        port_file = os.path.join(work, "port.txt")
        if os.path.exists(port_file):
            os.remove(port_file)
        cmd = [cli, "serve", "--port", "0", "--port-file", port_file,
               "--ruleset", "hosp=" + os.path.join(work, "rules.frd")]
        if trace:
            cmd += ["--metrics-out", os.path.join(work, "serve.json")]
        self.stderr = open(os.path.join(work, "serve.err"), "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self.stderr)
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("fixrep_cli serve did not come up "
                                 f"(see {work}/serve.err)")
            time.sleep(0.001)
        with open(port_file) as f:
            self.port = f.read().strip()
        try:
            run([cli, "ping", "--port", self.port])
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """SIGTERM drains in-flight requests; waits for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()
        return self.proc.returncode


def setup(workload, cli, work, tracer):
    """Everything the program does before the first repair can run: mine
    the fixing rules and, for the daemon, compile them into a dictionary
    and bring the daemon up until it answers a ping. Repeated SETUP_REPS
    times; returns the median scaled seconds and the daemon of the last
    repetition."""
    times = []
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            cal_ms = calibrate(work)
            parent = f"setup.{rep}"
            start = time.perf_counter_ns()
            tracer.timed("setup.gen_rules", lambda: run(
                [cli, "gen-rules", "--clean", "clean.csv", "--dirty",
                 "dirty.csv", "--fds", "fds.txt", "--out", "rules.txt"],
                cwd=work), parent)
            if workload == "daemon":
                tracer.timed("setup.rules_compile", lambda: run(
                    [cli, "rules", "compile", "--rules", "rules.txt",
                     "--data", "dirty.csv", "--out", "rules.frd"], cwd=work),
                    parent)
                daemon = tracer.timed(
                    "setup.serve_ready",
                    lambda: Daemon(cli, work, trace=False), parent)
            end = time.perf_counter_ns()
            tracer.record(parent, start, end)
            times.append((end - start) / 1e9 * CAL_REF_MS / cal_ms)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return statistics.median(times), daemon


class Loop:
    """A closed loop: each client calibrates, sends one operation, checks
    its output, and only then sends the next."""

    def __init__(self, workload, cli, work, reference_sha1, tracer, trace,
                 port=None):
        self.workload = workload
        self.cli = cli
        self.work = work
        self.reference_sha1 = reference_sha1
        self.tracer = tracer
        self.trace = trace
        self.port = port
        self.lock = threading.Lock()
        self.scaled_ms = []
        self.calibration_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fatal = None
        self.layer_records = []
        self.seq = 0

    def command(self, client, op):
        out = f"out{client}.csv"
        args = ["--rules", "rules.txt", "--in", "dirty.csv", "--out", out]
        if self.workload == "file":
            cmd = [self.cli, "repair"] + args
        elif self.workload == "stream":
            cmd = [self.cli, "repair", "--stream", "--chunk-rows",
                   str(CHUNK_ROWS), "--wal", f"wal{client}.bin"] + args
        else:
            cmd = [self.cli, "submit", "--port", self.port, "--tenant",
                   "hosp", "--in", "dirty.csv", "--out", out]
        if self.trace:
            cmd += ["--metrics-out", f"m{op}.json"]
            if self.workload == "stream":
                cmd += ["--telemetry-out", f"j{op}.jsonl"]
        return cmd, out

    def client(self, client, deadline):
        try:
            while time.perf_counter() < deadline and self.fatal is None:
                self.one_op(client)
        except Exception as e:  # surfaced by run() after the join
            with self.lock:
                self.fatal = e

    def one_op(self, client):
        with self.lock:
            op = self.seq
            self.seq += 1
        cmd, out = self.command(client, op)
        wal = os.path.join(self.work, f"wal{client}.bin")
        if os.path.exists(wal):
            os.remove(wal)  # every stream journals a fresh log
        cal_ms = calibrate(self.work)
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=self.work, capture_output=True,
                              text=True, timeout=120)
        end = time.perf_counter_ns()
        self.tracer.record(f"{self.workload}.op", start, end, op=op)
        op_ms = (end - start) / 1e6
        error = None
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elif f"repaired {ROWS} rows" not in proc.stdout:
            error = f"unexpected report: {proc.stdout.strip()[:200]}"
        elif sha1_of(os.path.join(self.work, out)) != self.reference_sha1:
            error = "output differs from the cRepair reference"
        record = None
        if error is None and self.trace:
            record = self.layers(op, op_ms)
        with self.lock:
            self.attempted += 1
            if error is None:
                self.scaled_ms.append(op_ms * CAL_REF_MS / cal_ms)
                self.calibration_ms.append(cal_ms)
                if record is not None:
                    self.layer_records.append(record)
            else:
                self.failed += 1
                self.errors.append(error)

    def layers(self, op, op_ms):
        """Per-operation layer times from the program's own snapshot."""
        path = os.path.join(self.work, f"m{op}.json")
        with open(path) as f:
            snapshot = json.load(f)
        os.remove(path)
        counters = snapshot["metrics"]["counters"]
        spans = {}
        top_ns = 0
        for span in snapshot["timeline"]["spans"]:
            spans[span["name"]] = spans.get(span["name"], 0) + \
                span["duration_ns"]
            if span["depth"] == 0:
                top_ns += span["duration_ns"]
        record = {
            "op_ms": op_ms,
            "load_ms": spans.get("cli.load", 0) / 1e6,
            "index_build_ms": spans.get("lrepair.index_build", 0) / 1e6,
            "chase_ms": spans.get("lrepair.chase", 0) / 1e6,
            "write_ms": spans.get("cli.write", 0) / 1e6,
            "stream_run_ms": spans.get("streaming.run", 0) / 1e6,
            # Process start and exit plus anything no program span covers.
            "unspanned_ms": op_ms - top_ns / 1e6,
            "counters": {name: counters.get(name, 0) for name in COUNTERS},
        }
        if self.workload == "stream":
            journal = os.path.join(self.work, f"j{op}.jsonl")
            chunk_ns = 0
            with open(journal) as f:
                for line in f:
                    event = json.loads(line)
                    if event["event"] == "chunk":
                        chunk_ns += event["duration_ns"]
            os.remove(journal)
            # A chunk event covers repair, WAL commit and emit; the rest
            # of streaming.run is reading and interning the next chunk.
            record["chunk_ms"] = chunk_ns / 1e6
            record["stream_read_ms"] = record["stream_run_ms"] - chunk_ns / 1e6
        return record

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        clients = CLIENTS if self.workload == "daemon" else 1
        threads = [threading.Thread(target=self.client, args=(c, deadline))
                   for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self.fatal is not None:
            raise BenchError(f"client failed: {self.fatal}")


def percentile(values, q):
    """Linear-interpolated q-quantile (0 < q < 1) of `values`."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(loop, setup_s):
    return {
        "latency_ms": {"value": statistics.median(loop.scaled_ms),
                       "unit": "ms"},
        "latency_p90_ms": {"value": percentile(loop.scaled_ms, 0.9),
                           "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(loop, serve_snapshot):
    records = loop.layer_records

    def med(key):
        values = [r.get(key, 0) for r in records]
        return statistics.median(values) if values else 0

    # Engine counters summed over the traced operations. The daemon
    # repairs in-process, so for it they come from its own snapshot,
    # which holds one chase span per repair request (ping has none).
    totals = {}
    for record in records:
        for name, value in record["counters"].items():
            totals[name] = totals.get(name, 0) + value
    repairs = len(records)
    chase_ms = med("chase_ms")
    unspanned_ms = med("unspanned_ms")
    if serve_snapshot is not None:
        totals = serve_snapshot["metrics"]["counters"]
        chase = [s["duration_ns"] / 1e6
                 for s in serve_snapshot["timeline"]["spans"]
                 if s["name"] == "lrepair.chase"]
        repairs = len(chase)
        chase_ms = statistics.median(chase) if chase else 0
        # Client process, wire, and the daemon's CSV decode and encode.
        unspanned_ms = med("op_ms") - chase_ms

    def ratio(useful, attempts):
        return useful / attempts if attempts else 0

    def count(name):
        return totals.get(name, 0)

    metrics = {
        "calibration_ms": (statistics.median(loop.calibration_ms), "ms"),
        "op_ms": (med("op_ms"), "ms"),
        "load_ms": (med("load_ms"), "ms"),
        "index_build_ms": (med("index_build_ms"), "ms"),
        "chase_ms": (chase_ms, "ms"),
        "write_ms": (med("write_ms"), "ms"),
        "stream_run_ms": (med("stream_run_ms"), "ms"),
        "stream_read_ms": (med("stream_read_ms"), "ms"),
        "chunk_ms": (med("chunk_ms"), "ms"),
        "unspanned_ms": (unspanned_ms, "ms"),
        "wal_fsyncs": (ratio(count("fixrep.wal.fsyncs"), repairs), "count"),
        "probe_keys": (ratio(count("fixrep.lrepair.batch_keys"), repairs),
                       "count"),
        # Useful outcomes per attempt: candidate rules that fired, and
        # tuples the memo answered.
        "candidate_yield": (ratio(count("fixrep.lrepair.rule_applications"),
                                  count("fixrep.lrepair.candidates_enqueued")),
                            "ratio"),
        "memo_hit_rate": (ratio(count("fixrep.memo.hits"),
                                count("fixrep.memo.hits") +
                                count("fixrep.memo.misses")), "ratio"),
        "serve_requests": (repairs if serve_snapshot is not None else 0,
                           "count"),
        "serve_rejected": (count("fixrep.serve.rejected"), "count"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def bench(args):
    cli = build()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-"
                        f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer()
    daemon = None
    serve_snapshot = None
    try:
        tracer.timed("gen_data", lambda: run(
            [cli, "gen-data", "--dataset", "hosp", "--rows", str(ROWS),
             "--seed", str(args.seed), "--out", "clean.csv", "--dirty",
             "dirty.csv", "--fds-out", "fds.txt"], cwd=work))
        setup_s, daemon = setup(args.workload, cli, work, tracer)
        tracer.timed("reference", lambda: run(
            [cli, "repair", "--engine", "crepair", "--rules", "rules.txt",
             "--in", "dirty.csv", "--out", "reference.csv"], cwd=work))
        check_precision(work)
        if daemon is not None and args.trace:
            # Restart so the snapshot written at shutdown covers exactly
            # the measured requests.
            daemon.stop()
            daemon = Daemon(cli, work, trace=True)
        loop = Loop(args.workload, cli, work,
                    sha1_of(os.path.join(work, "reference.csv")), tracer,
                    args.trace, port=daemon.port if daemon else None)
        loop.run(args.seconds)
        if daemon is not None:
            code = daemon.stop()
            daemon = None
            if code != 0:
                raise BenchError(f"fixrep_cli serve exited {code}")
            if args.trace:
                with open(os.path.join(work, "serve.json")) as f:
                    serve_snapshot = json.load(f)
    finally:
        if daemon is not None:
            daemon.stop()
    if not loop.scaled_ms:
        raise BenchError("no operation succeeded: " +
                         "; ".join(loop.errors[:3]))
    for error in loop.errors[:3]:
        log(f"failed operation: {error}")
    if args.trace:
        metrics = per_layer(loop, serve_snapshot)
        with open(os.path.join(WORK_ROOT, f"trace-{args.workload}-"
                               f"{args.seed}.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans}, f)
    else:
        metrics = end_to_end(loop, setup_s)
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["file", "stream", "daemon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        result = bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
