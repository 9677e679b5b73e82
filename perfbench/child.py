"""One workload in one fresh process: set-up, timed rounds, checks.

Started by ``run.py``; prints one JSON object as its last line.  A
round runs every operation of the workload once, in order, each starting
when the previous one returns.  Rounds repeat until ``--seconds`` have
passed, so every run attempts whole rounds.  With ``--trace 1`` untraced
and traced rounds alternate, and the traced ones give the per-layer
metrics.  Untraced runs also time set-up: after every round a fresh
process started with ``--setup-only`` prints the time from its start to
the end of its set-up and exits.
"""

import os

# BLAS and OpenMP are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5      # at least; one runs after every untraced round
PROBE_TIMEOUT_S = 30
sys.path.insert(0, str(ROOT / "src"))


def _digest(obj, h) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest(item, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _digest(obj, h)
    return h.hexdigest()


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, from its start to the end of
    importing pomdpkit and building the workload's models and inputs.

    The probe subtracts the epoch time taken here just before its start
    from its own clock, so the figure includes interpreter start-up and
    none of the wait for its exit.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    started = time.time()
    proc = subprocess.run(cmd + [repr(started)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def run_round(workload, number, tracer, ref_out, ref_digest, errors,
              changed):
    """Run every operation once; returns the round's record.

    The first output of each operation becomes its reference; a later
    output with another digest puts the operation in ``changed``.
    """
    wall, cpu = {}, {}
    failed = set()
    for op in workload.ops:
        if tracer:
            sid = tracer.begin_op(f"{number}:{op.name}")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:   # a failed operation is counted, not fatal
            error = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer:
            tracer.end_op(sid, f"op.{op.name}", t0, t1)
        wall[op.name] = t1 - t0
        cpu[op.name] = c1 - c0
        if error:
            failed.add(op.name)
            if op.name not in errors:
                errors[op.name] = error
                sys.stderr.write(f"{op.name} failed:\n{error}")
            continue
        out = op.output(result)
        d = digest(out)
        if op.name not in ref_digest:
            ref_out[op.name], ref_digest[op.name] = out, d
        elif d != ref_digest[op.name]:
            failed.add(op.name)
            changed.add(op.name)
    return {"number": number, "traced": bool(tracer),
            "wall_s": sum(wall.values()), "ops_s": wall, "ops_cpu_s": cpu,
            "failed": sorted(failed)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="STARTED",
                    help="epoch time at which the caller started this "
                         "process; print the set-up time and exit")
    args = ap.parse_args(argv)

    import pomdpkit

    if Path(pomdpkit.__file__).resolve().parent != ROOT / "src" / "pomdpkit":
        sys.stderr.write(f"pomdpkit imported from {pomdpkit.__file__}, "
                         f"not from this checkout\n")
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only is not None:
        print(time.time() - args.setup_only, flush=True)
        os._exit(0)   # skip interpreter teardown: set-up ends here

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ref_out, ref_digest, errors, changed = {}, {}, {}, set()
    rounds = []
    setup_s = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(workload, len(rounds) + 1,
                                    tracer if traced else None,
                                    ref_out, ref_digest, errors, changed))
        finally:
            if traced:
                tracer.uninstall()
        if not tracer:
            # spread over the run, the probes see the same machine as
            # the rounds do
            setup_s.append(setup_probe(args.workload, args.seed))
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not tracer and len(setup_s) < SETUP_PROBES:
        setup_s.append(setup_probe(args.workload, args.seed))

    # independent checks, outside every timed interval
    try:
        problems = workload.check(ref_out)
    except Exception:
        problems = {op.name: [traceback.format_exc()]
                    for op in workload.ops}
    problems = {name: p for name, p in problems.items() if p}
    for name, p in problems.items():
        sys.stderr.write(f"{name}: check failed: " + "; ".join(p) + "\n")
    for name in sorted(changed):
        sys.stderr.write(f"{name}: output differs between rounds\n")
    attempted = failed = 0
    for r in rounds:
        attempted += len(workload.ops)
        failed += len(set(r["failed"]) | set(problems))

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not problems and not changed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "setup_samples_s": setup_s,
        "run_s": best_round(plain, "ops_s"),
        "cpu_s": best_round(plain, "ops_cpu_s"),
        "peak_rss_mb": peak_rss_mb,
        "median_round_s": statistics.median(r["wall_s"] for r in plain),
        "ops_s": {op.name: min(r["ops_s"][op.name] for r in plain)
                  for op in workload.ops},
        "rounds": rounds,
        "info": machine_info(),
    }
    if tracer:
        result["per_layer"] = traced_metrics(tracer, rounds, result["run_s"])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


def best_round(rounds, key) -> float:
    """A round made of each operation's fastest time over the rounds.

    The work is deterministic and single-threaded, so interference from
    other tenants only ever adds time; on a shared host whose speed
    drifts by tens of percent within a minute, the sum of per-operation
    minima is far steadier from run to run than a median round (see
    README.md).
    """
    return sum(min(r[key][name] for r in rounds) for name in rounds[0][key])


def traced_metrics(tracer, rounds, run_s) -> dict:
    """Every per-layer metric at its lowest over the traced rounds, plus
    the traced round taken like ``run_s`` and its excess over the
    untraced one: the tracing overhead."""
    from tracing import PER_LAYER, layer_metrics

    by_round = {}
    for sid, span in enumerate(tracer.spans):
        if span[4] is not None:
            by_round.setdefault(span[4].split(":")[0], []).append((sid, span))
    per_round = [layer_metrics(spans) for spans in by_round.values()]
    # times at their fastest over the traced rounds, as for run_s;
    # counts repeat exactly from round to round
    metrics = {name: {"value": min(m[name] for m in per_round),
                      "unit": unit} for name, unit, *_ in PER_LAYER}
    traced_s = best_round([r for r in rounds if r["traced"]], "ops_s")
    metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
