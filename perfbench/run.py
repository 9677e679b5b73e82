"""pomdpkit benchmark: closed-loop workloads, each in a fresh process.

Run from the repository root:

    python3 perfbench/run.py                          # all three workloads
    python3 perfbench/run.py --workload exact-solve --seed 3 --seconds 30
    python3 perfbench/run.py --workload grid-filter --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  The full
record of a run goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exact-solve", "myopic-tables", "grid-filter")
UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 100)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["commit"] = commit()
    if trace:
        record["metrics"] = record.pop("per_layer")
    else:
        record["metrics"] = {name: {"value": record[name], "unit": unit}
                             for name, unit in UNITS.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary(record: dict) -> str:
    info = record["info"]
    lines = [f"{record['workload']} seed {record['seed']}: "
             f"{len(record['rounds'])} rounds, {record['attempted']} "
             f"operations attempted, {record['failed']} failed"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  machine: nproc {info['nproc']}, python {info['python']}"
                 f", numpy {info['numpy']}, blas {info['blas']}, commit "
                 f"{record['commit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pomdpkit" / "__init__.py").is_file():
        sys.stderr.write(f"no pomdpkit sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds,
                                        args.trace))
            print(summary(records[-1]), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
