#!/usr/bin/env python3
"""The repo's one benchmark: end-to-end + per-layer, four workloads.

    python3 benchmarks/e2e/run.py                      # all four, both passes
    python3 benchmarks/e2e/run.py --workload tri-skew --seed 7 \
        --seconds 16 --trace 0                         # one contract run
    python3 benchmarks/e2e/run.py --trace 0 --repeat 10 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own subprocess (own peak RSS, own caches; a
crash or a hang is a failed op, not a dead run).  With ``--workload``
the last line of stdout is the one-line JSON result the driver reads:
the end-to-end metrics with ``--trace 0`` (measured with tracing off),
the per-layer metrics with ``--trace 1`` (the staged traced pass).  See
README.md for the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_SEED = 20210419
#: A workload subprocess that has not finished by then is killed and
#: counted as a failed op (the driver allows 180 s per run).
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the workload subprocess -------------------------------------------------

def child_main(args) -> int:
    """Run one workload in this process and print its record as JSON."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from e2e_runner import run_workload

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale, args.out_dir)
    print(json.dumps(record))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: float, out_dir: str) -> dict:
    """Supervise one workload subprocess; always returns a record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale), "--out-dir", out_dir]
    failure = None
    # Its own session, so a hung workload's pool children can be killed
    # with it as one process group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failure = f"timeout after {CHILD_TIMEOUT_S:.0f}s"
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    if failure is None and proc.returncode != 0:
        failure = f"exit code {proc.returncode}"
    if failure is None:
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failure = "no result record on stdout"
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": False, "attempted": 1, "failed": 1,
            "failures": [f"workload subprocess: {failure}"],
            "metrics": {}}


# -- reporting ---------------------------------------------------------------

def contract_line(record: dict, spec: dict) -> str:
    """The driver's one-line result: declared metrics, value + unit."""
    declared = spec["per_layer"] if record.get("trace") \
        else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        got = record["metrics"].get(entry["name"])
        if got is not None:
            metrics[entry["name"]] = {"value": got["value"],
                                      "unit": got["unit"]}
    return json.dumps({"correct": bool(record["correct"]),
                       "attempted": int(record["attempted"]),
                       "failed": int(record["failed"]),
                       "metrics": metrics})


def print_record(record: dict) -> None:
    name = record["workload"]
    pass_name = "per-layer (staged traced pass)" if record.get("trace") \
        else "end-to-end (tracing off)"
    print(f"== {name}: {pass_name}, seed {record.get('seed')} ==")
    for key, m in record["metrics"].items():
        extra = ""
        if "n" in m:
            extra = (f"  n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}")
            if "tail" in m:
                extra += f" p{m['tail']['p']}={m['tail']['value']:.6g}"
        print(f"  {key:34} {m['value']:>16.6g} {m['unit']:9}{extra}")
    ratio = record["failed"] / max(1, record["attempted"])
    print(f"  {'failed_ops_ratio':34} {ratio:>16.6g} ratio     "
          f"failed={record['failed']} attempted={record['attempted']}")
    for failure in record.get("failures", []):
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: the "
                             "staged traced pass (default: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and pass, on seeds "
                             "SEED, SEED+1, ... (for --compare)")
    parser.add_argument("--out", help="write the JSON record here "
                        "(default for a full run: out/result.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (determinism test only)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records written with --out")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        sys.path.insert(0, HERE)
        from e2e_compare import compare_files

        return compare_files(*args.compare, load_spec())
    if args.child:
        return child_main(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else names
    passes = [args.trace] if args.trace is not None else [0, 1]

    started = time.time()
    # Trace files go next to the result file.
    out = args.out
    if out is None and args.workload is None:
        out = os.path.join(OUT_DIR, "result.json")
    out_dir = os.path.dirname(os.path.abspath(out)) if out else OUT_DIR
    records = []
    for workload in workloads:
        for offset in range(args.repeat):
            for trace in passes:
                record = run_child(workload, args.seed + offset, seconds,
                                   trace, args.scale, out_dir)
                print_record(record)
                records.append(record)
    document = {"schema": 1, "claim": None, "seed": args.seed,
                "seconds": seconds, "scale": args.scale,
                "started": started, "runs": records}
    if out:
        os.makedirs(out_dir, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"wrote {out}")
    if args.workload and len(records) == 1:
        print(contract_line(records[0], spec))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
