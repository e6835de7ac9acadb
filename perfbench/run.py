"""Benchmark of `mixedsums verify`, run as a user runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each `verify` runs in a fresh process (perfbench/worker.py) through
`mixedsums.cli.main`, for about S seconds. Every report is checked by the
correctness gate (perfbench/gate.py).

The speed of the shared host drifts by tens of percent from one second to
the next and over minutes, more than any median within one run can smooth.
So with `--trace 0` each program process runs at the same time as a process
of a fixed reference program (perfbench/reference, a frozen copy of
`mixedsums`) on the other core, both with one BLAS thread, and the run
reports the program's times relative to the reference's: `verify_s` is the
median over pairs of program/reference verify time, times the reference's
verify seconds recorded in perfbench/workloads.py, and `setup_s` likewise
(a few set-up-only pairs run first). `peak_rss_mb` is the program's median.
Pairs come in rounds of two that swap the cores (see `measure`).

With `--trace 1` one program process runs under the span recorder
(perfbench/spans.py), the rest run untraced, and the run prints the
per-layer metrics plus `trace.overhead_s`, the traced `verify_s` minus the
untraced median, in plain wall seconds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata. The full record, with every process's numbers, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
# A copy of src/mixedsums at REFERENCE_REVISION, never edited, so that every
# later version of the program is timed against the same reference.
REFERENCE = HERE / "reference"
REFERENCE_REVISION = "5293d89"
SETUP_ROUNDS = 3
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, if it says."""
    import numpy  # noqa: F401  (loads OpenBLAS)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, a: int | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "a": a,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_threads_env": {k: os.environ.get(k)
                             for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "reference_revision": REFERENCE_REVISION,
    }


def run_workers(specs: list[dict], deadline: float) -> list[dict]:
    """Run one worker process per spec, all at once; return their numbers."""
    procs = []
    try:
        for spec in specs:
            procs.append(subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                           json.dumps(spec)],
                                          cwd=ROOT, stdout=subprocess.DEVNULL))
        for proc in procs:
            try:
                code = proc.wait(timeout=max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                raise BenchError("a worker process ran past the run's deadline")
            if code != 0:
                raise BenchError(f"a worker process exited with code {code}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for spec in specs:
        with open(spec["result"]) as fh:
            results.append(json.load(fh))
    return results


def measure(workload, a: int | None, seconds: int, trace: bool, tmp: Path,
            spans: Path) -> dict:
    """Run the workload's processes and return the numbers of each.

    With `trace` off, the run is made of rounds of two pairs. In a pair, a
    program process and a reference process run at the same time, each
    pinned to its own core; the second pair swaps the cores, so that a core
    slower than the other slows both sides equally over a round. First come
    SETUP_ROUNDS rounds that only set up, then rounds that verify. With
    `trace` on, one traced program process runs, then untraced ones, one at
    a time.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    argv = workload.verify_argv(a)
    expected = workload.manifest(a)
    tags = itertools.count()
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if not trace and len(cpus) < 2:
        raise BenchError("the run needs two cores")

    def spec(src: Path, verify: bool, cpu: int | None = None, traced: bool = False) -> dict:
        tag = next(tags)
        return {"src": str(src), "cpu": cpu, "fields": workload.fields,
                "argv": argv if verify else None, "report": str(tmp / f"report-{tag}.json"),
                "trace": traced, "spans": str(spans), "result": str(tmp / f"result-{tag}.json")}

    def run(*specs: dict) -> list[dict]:
        samples = run_workers(list(specs), deadline)
        for sp, sample in zip(specs, samples):
            if sp["argv"] is None:
                continue
            verdict = gate.check(sample["exit_code"], gate.load_report(sp["report"]), expected)
            sample["gate"] = dataclasses.asdict(verdict)
            if sp["src"] == str(REFERENCE) and verdict.failed:
                raise BenchError(f"the reference program failed: {verdict.problems[:3]}")
        return samples

    def round_(verify: bool = True) -> list[dict]:
        pairs = []
        for mine, theirs in (cpus, cpus[::-1]):
            program, reference = run(spec(SRC, verify, mine), spec(REFERENCE, verify, theirs))
            pairs.append({"program": program, "reference": reference})
        return pairs

    def repeat(step) -> list:
        # Stop before a step that would likely end past `seconds`, so a run
        # lasts about `seconds` whatever one step takes; keep at least one.
        out, took = [], []
        while not out or time.monotonic() - start + statistics.median(took) <= seconds:
            t0 = time.monotonic()
            out.append(step())
            took.append(time.monotonic() - t0)
        return out

    start = time.monotonic()
    if trace:
        traced, = run(spec(SRC, True, traced=True))
        return {"traced": traced, "untraced": repeat(lambda: run(spec(SRC, True))[0])}
    setup_rounds = [round_(verify=False) for _ in range(SETUP_ROUNDS)]
    return {"setup_rounds": setup_rounds, "rounds": repeat(round_)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(rounds: list, key: str) -> float:
    """Median over rounds of the program's `key` over the reference's, each
    round's ratio the geometric mean of its pairs'."""
    return statistics.median([
        math.prod(p["program"][key] / p["reference"][key] for p in pairs) ** (1 / len(pairs))
        for pairs in rounds])


def summarize(record: dict, workload) -> dict:
    median = statistics.median
    traced = record.get("traced")
    if traced is None:
        checked = [p["program"] for pairs in record["rounds"] for p in pairs]
    else:
        checked = [traced] + record["untraced"]
    attempted = sum(s["gate"]["attempted"] for s in checked)
    failed = sum(s["gate"]["failed"] for s in checked)
    if traced is None:
        rounds = record["rounds"]
        metrics = {
            "setup_s": metric(workload.reference_setup_s
                              * ratio(record["setup_rounds"] + rounds, "setup_s"), "s"),
            "verify_s": metric(workload.reference_verify_s * ratio(rounds, "verify_s"), "s"),
            "peak_rss_mb": metric(median([s["peak_rss_mb"] for s in checked]), "MB"),
            "checks_passed_share": metric(1 - failed / attempted, "share"),
        }
    else:
        metrics = {name: metric(value, unit_of(name)) for name, value in traced["layers"].items()}
        metrics["harness.worst_err_to_tol"] = metric(traced["gate"]["worst_err_to_tol"], "ratio")
        metrics["trace.overhead_s"] = metric(
            traced["verify_s"] - median([s["verify_s"] for s in record["untraced"]]), "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "alloc_peak_mb": "MB", "bytes": "bytes",
            "useful_ratio": "ratio", "elems": "count"}.get(quantity, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for tree in (SRC, REFERENCE):
        if not (tree / "mixedsums" / "__init__.py").is_file():
            print(f"error: no mixedsums sources under {tree}", file=sys.stderr)
            return 2
    # Two worker processes share two cores, so each gets a single BLAS thread.
    os.environ.update(BLAS_THREADS)
    # A terminated run still ends its worker processes (see run_workers).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    a = workload.draw_a(args.seed)
    meta = run_metadata(args, a)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            record = measure(workload, a, args.seconds, bool(args.trace), Path(tmp),
                             OUT / f"{args.workload}.spans.npz")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(record, workload)
    full = {"meta": meta, "argv": workload.verify_argv(a), "result": result, **record}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
