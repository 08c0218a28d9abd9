"""twoclock: the two-clock benchmark of the MSSG reproduction.

    python3 benchmarks/twoclock/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]

With ``--workload`` it measures that one workload in this process and ends
with the one-line JSON result the driver reads (``--trace 0``: the
end-to-end metrics; ``--trace 1``: the per-layer metrics of the traced
pass).  Without it, every workload is run in a fresh subprocess each (so
``peak_rss_mb`` is attributable), both passes when ``--trace`` is given,
and the combined document goes to ``--out``.

Single process, single thread, closed loop with one caller; concurrency
exists only inside the simulated cluster, on the virtual clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

_PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _pin_environment() -> None:
    """One numpy thread and a fixed hash seed, fixed before numpy loads.

    The hash seed is read at interpreter start, so when it is not already
    pinned this process replaces itself (same pid, no child) once.
    """
    if all(os.environ.get(k) == v for k, v in _PINNED_ENV.items()):
        return
    os.environ.update(_PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _spin_ms() -> float:
    """A fixed 3M-iteration Python loop: tells a noisy host from a regression."""
    t0 = time.perf_counter()
    x = 0
    for i in range(3_000_000):
        x += i
    return 1e3 * (time.perf_counter() - t0)


def _host_facts() -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def measure_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns its result document."""
    import deployments as dep
    import metrics
    from hostspeed import HostSpeed
    from inputs import build_inputs
    from phases import run_repetition
    from repro import MSSG
    from trace import Tracer

    workload = dep.WORKLOADS[name]
    n_vertices = dep.SMOKE_VERTICES if smoke else dep.N_VERTICES
    spin_ms = _spin_ms()
    host = HostSpeed()
    host.start()
    try:
        setup_windows = []
        for _ in range(1 if smoke else dep.SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = build_inputs(workload, seed, n_vertices)
            MSSG(dep.make_config(workload)).close()
            setup_windows.append((t0, time.perf_counter()))

        untraced, traced, tracers = [], [], []
        started = time.perf_counter()

        def traced_repetition():
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_repetition(workload, inp, tracer, host=host))
            finally:
                tracer.uninstall()
            tracers.append(tracer)

        if trace:
            # Alternate, so both sides see the same host; best of each side.
            for _ in range(1 if smoke else 2):
                untraced.append(run_repetition(workload, inp, host=host))
                traced_repetition()
        else:
            while True:
                untraced.append(run_repetition(workload, inp, host=host))
                if smoke or (
                    len(untraced) >= dep.MIN_REPETITIONS
                    and time.perf_counter() - started >= seconds
                ):
                    break
        measured_s = time.perf_counter() - started
    finally:
        host.stop()
    setup_times = [host.normalised(t0, t1) for t0, t1 in setup_windows]

    reps = untraced + traced
    first = reps[0]
    fingerprints = {rep.virtual_fingerprint for rep in reps}
    failures = [f for rep in reps for op in rep.ops for f in op.failures]
    attempted = sum(op.attempted for rep in reps for op in rep.ops)
    failed = sum(min(len(op.failures), op.attempted) for rep in reps for op in rep.ops)
    checks = {
        # Virtual seconds of every operation and every DiskStats counter,
        # over all repetitions — traced ones included: tracing must not
        # perturb the simulation.
        "virtual_identical_across_repetitions": len(fingerprints) == 1,
        "answers_identical_across_repetitions": len({r.answers_digest for r in reps}) == 1,
    }
    doc = {
        "workload": name,
        "seed": seed,
        "n_vertices": n_vertices,
        "trace": int(trace),
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "samples": {"n_solo": workload.n_solo, "n_drain": workload.n_drain},
        "measured_s": measured_s,
        "setup_samples_s": setup_times,
        "host_spin_ms": spin_ms,
        "virtual_fingerprint": first.virtual_fingerprint,
        "answers_digest": first.answers_digest,
        "checks": checks,
        "failures": failures[:20],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(checks.values()),
        # [raw wall, wall at reference host speed] per operation, per repetition
        "repetition_walls": [[[op.raw_wall_s, op.wall_s] for op in rep.ops] for rep in untraced],
        "host_factor": host.mean_factor(),
        "ops": [
            {"phase": op.phase, "name": op.name, "wall_s": wall, "virtual_s": op.virtual_s}
            for op, wall in zip(first.ops, metrics.typical_walls(untraced))
        ],
    }
    if trace:
        best = min(range(len(traced)), key=lambda i: traced[i].wall_s)
        values = metrics.per_layer(untraced, traced[best], tracers[best], spin_ms)
        table = metrics.PER_LAYER
        doc["trace_file"] = _write_trace(name, seed, tracers[best], traced[best])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(untraced, statistics.median(setup_times), peak_rss_mb)
        table = metrics.END_TO_END
        doc["repetition_spread"] = metrics.repetition_spread(untraced)
        doc["raw_wall_metrics"] = metrics.wall_metrics(
            untraced[0], metrics.typical_walls(untraced, raw=True)
        )
        doc["raw_setup_s"] = statistics.median(t1 - t0 for t0, t1 in setup_windows)
    doc["metrics"] = {n: {"value": v, "unit": table[n][0]} for n, v in values.items()}
    return doc


def _write_trace(name: str, seed: int, tracer, rep) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{name}_seed{seed}.json"
    aggregates = {
        phase: {
            tracer.names[nid]: {"layer": tracer.layer_of[nid], "spans": a[0],
                                "total_s": a[1], "self_s": a[2]}
            for nid, a in enumerate(table)
            if a[0]
        }
        for phase, table in tracer.aggregates.items()
    }
    ops = [{"op_id": i, "phase": op.phase, "name": op.name, "wall_s": op.wall_s}
           for i, op in enumerate(rep.ops)]
    with open(path, "w") as f:
        json.dump({"ops": ops, "aggregates": aggregates, "spans": tracer.raw_spans()}, f)
    return str(path.relative_to(ROOT))


def _print_metrics(doc: dict) -> None:
    import metrics

    table = metrics.PER_LAYER if doc["trace"] else metrics.END_TO_END
    print(
        f"== {doc['workload']}  seed={doc['seed']}  n_vertices={doc['n_vertices']}  "
        f"R={doc['repetitions']}+{doc['traced_repetitions']} traced  "
        f"n_solo={doc['samples']['n_solo']}  n_drain={doc['samples']['n_drain']}  "
        f"measured {doc['measured_s']:.1f} s  spin {doc['host_spin_ms']:.0f} ms"
    )
    for name, m in doc["metrics"].items():
        spec = table[name]
        note = f"{spec[1]} is better" + ("" if doc["trace"] else f", bound {spec[2]}")
        print(f"  {name:<44s} {m['value']:>16.6g} {m['unit']:<8s} ({note})")
    print(
        f"  ops attempted {doc['attempted']}, failed {doc['failed']}; "
        f"checks {doc['checks']}; virtual_fingerprint {doc['virtual_fingerprint'][:16]}"
    )
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")


def _contract_line(doc: dict) -> str:
    return json.dumps(
        {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    )


def run_all(args) -> int:
    """Every workload in its own subprocess; one combined document."""
    import deployments as dep

    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "benchmark": "twoclock",
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": _host_facts(),
        "workloads": {},
    }
    ok = True
    for name in dep.WORKLOADS:
        entry = result["workloads"][name] = {}
        for label, trace in (("untraced", 0), ("traced", 1))[: 2 if args.trace else 1]:
            part = OUT_DIR / f"part_{name}_{label}.json"
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(cmd, timeout=900).returncode
            if not part.exists():
                print(f"{name} ({label}) produced no result (exit {code})", file=sys.stderr)
                return 2
            with open(part) as f:
                entry[label] = json.load(f)
            part.unlink()
            ok = ok and code == 0 and entry[label]["correct"]
    digests = {e["untraced"]["answers_digest"] for e in result["workloads"].values()}
    result["cross_checks"] = {
        # Answer invariance across backends x presets, checked for free.
        "analytics_answers_identical_across_workloads": len(digests) == 1,
        "traced_pass_reproduces_untraced_fingerprint": all(
            e["traced"]["virtual_fingerprint"] == e["untraced"]["virtual_fingerprint"]
            for e in result["workloads"].values()
            if "traced" in e
        ),
    }
    ok = ok and all(result["cross_checks"].values())
    result["correct"] = ok
    print(f"cross-checks: {result['cross_checks']}")
    print("all answers correct" if ok else "SOME ANSWER OR CHECK FAILED")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload, in this process (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time: repetitions are added until it is used up")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, one repetition: a shape check, not a measurement")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)

    if argv is None:
        _pin_environment()
    if (ROOT / "src").is_dir():
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import deployments as dep
    except ImportError as exc:
        print(f"twoclock needs the repro package (src/) it measures: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = dep.RUN_SECONDS
    if args.workload is None:
        return run_all(args)
    if args.workload not in dep.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(dep.WORKLOADS)}")

    doc = measure_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _print_metrics(doc)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print(_contract_line(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
