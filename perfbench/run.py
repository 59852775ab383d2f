"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
process (``child.py``), one caller issuing one op at a time.

* ``--trace 0`` runs ``PROCESSES`` workload processes one after the
  other, each setting up and then timing ops for ``S / PROCESSES``
  seconds of op time (and at least ``child.MIN_OPS`` ops), and prints
  every end-to-end metric over their pooled ops (``setup_s`` and
  ``peak_rss_mb`` are medians over the processes).  A process can run
  slow as a whole on a shared host, so pooling several keeps one from
  moving the medians.
* ``--trace 1`` runs one process that alternates traced and untraced
  blocks of ops and prints the per-layer metrics, the tracing overhead
  among them; a layer the workload never calls reads 0.  Its kept
  spans go to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records host provenance, the seed and the op count.  A full record of
each run is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("session_images", "session_events", "fabric_churn", "broker_fanout")

#: workload processes per ``--trace 0`` run
PROCESSES = 3
#: wall seconds the whole run may take; a workload process still running
#: then is killed, and the run fails
RUN_BUDGET = 170

#: the benchmark's contract: every metric's name and unit
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(RuntimeError):
    """A workload process failed to produce a result."""


#: personality(2) flag that turns address-space randomisation off
ADDR_NO_RANDOMIZE = 0x0040000


def _isolate() -> None:
    """Pin the child to one CPU and turn address-space randomisation off
    (both best effort).

    With randomisation on, each process draws its own heap and library
    layout, and the same run's op time moved by up to ~15% between
    processes.  Unpinned, the broker's matching pool hands work between
    CPUs, and how fast the host schedules the second CPU swung that
    workload's p90 from 3.7 to 9 ms; on one CPU the pool's threads still
    run, taking turns as the interpreter lock makes them do anyway.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def _child(workload: str, seed: int, seconds: float, mode: str, deadline: float, spans: str = "") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    # string hashing decides set and dict layouts, which moved op times
    # by ~15% between otherwise identical processes: fix it
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            env=env,
            preexec_fn=_isolate,
        )
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchError(f"{mode} process still running after the {RUN_BUDGET} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _source_digest() -> str:
    """Digest of the program's sources (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def pooled(runs: list[dict]) -> dict:
    """One run record from several processes' records."""
    out = {key: sum(r[key] for r in runs) for key in ("attempted", "failed", "deliveries", "op_seconds")}
    out.update(
        op_ms=sorted(t for r in runs for t in r["op_ms"]),
        raw_op_ms=[t for r in runs for t in r["raw_op_ms"]],
        errors=[e for r in runs for e in r["errors"]],
        setups_s=[r["setup_s"] for r in runs],
        raw_setups_s=[r["raw_setup_s"] for r in runs],
        setup_s=statistics.median(r["setup_s"] for r in runs),
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in runs),
        probe_ms=[r["probe_ms"] for r in runs],
        threads=max(r["threads"] for r in runs),
    )
    return out


def end_to_end(run: dict) -> dict:
    ms = run["op_ms"]
    op_seconds = run["op_seconds"]
    return {
        "setup_s": run["setup_s"],
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "ops_per_s": len(ms) / op_seconds,
        "deliveries_per_s": run["deliveries"] / op_seconds,
        "ok_ratio": 1.0 - run["failed"] / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace)}
    try:
        if args.trace:
            run = _child(args.workload, args.seed, args.seconds, "trace", deadline,
                         spans=os.path.join(RESULTS, f"{tag}.spans.jsonl"))
            values, units = run.pop("per_layer"), _units("per_layer")
        else:
            share = args.seconds / PROCESSES
            run = pooled([_child(args.workload, args.seed, share, "measure", deadline) for _ in range(PROCESSES)])
            values, units = end_to_end(run), _units("end_to_end")
        if values.keys() != units.keys():
            raise BenchError(f"metrics {sorted(values.keys() ^ units.keys())} are not both measured and in {SPEC}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for err in run["errors"]:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
    record["provenance"].update(ops=len(run.pop("op_ms")), traced_ops=run.get("traced_ops", 0),
                                threads=run["threads"])
    record["run"] = run
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
