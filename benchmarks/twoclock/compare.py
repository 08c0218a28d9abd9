"""Compare two twoclock result documents of the same seed.

    python3 benchmarks/twoclock/compare.py A.json B.json

One row per workload x end-to-end metric: direction, both values, the ratio
B/A (A is the base), and a verdict against the metric's bound —

* ``within``      B is no further than the bound from A (``0`` vs ``0`` too);
* ``better`` / ``worse``  B is beyond the bound, and the difference is larger
  than what either run's own repetitions differed by;
* ``unresolved``  B is beyond the bound, but not beyond the spread between
  the repetitions inside A or B: the host moved as much as the code did.

Wall metrics use the bound BENCHMARK.json carries.  Virtual and count
metrics repeat exactly for one seed, so they are held to
``SAME_SEED_VIRTUAL_BOUND``, and any change of a ``virtual_fingerprint`` is
listed — on ``grdb-paper`` as a paper-mode bit-identity break.  Exit code 1
on any ``worse`` or on such a break, 2 when the documents are not comparable.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, SAME_SEED_VIRTUAL_BOUND

PAPER_WORKLOAD = "grdb-paper"


def load(path: str) -> dict:
    """A combined document, or a single ``--workload ... --out`` one wrapped."""
    with open(path) as f:
        doc = json.load(f)
    if "workloads" not in doc:
        label = "traced" if doc["trace"] else "untraced"
        doc = {"seed": doc["seed"], "workloads": {doc["workload"]: {label: doc}}}
    return doc


def verdict(name: str, a: float, b: float, spread: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is relative to A, > 0 = worse."""
    _, better, bound, clock = END_TO_END[name]
    if clock == "virtual":
        bound, spread = SAME_SEED_VIRTUAL_BOUND, 0.0
    if a == b:
        return "within", 0.0
    if a == 0:
        worse = (b > 0) == (better == "lower")
        return ("worse" if worse else "better"), float("inf") if worse else float("-inf")
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if abs(worsening) <= bound:
        return "within", worsening
    if abs(worsening) <= spread:
        return "unresolved", worsening
    return ("worse" if worsening > 0 else "better"), worsening


def compare(doc_a: dict, doc_b: dict, out=sys.stdout) -> int:
    shared = [w for w in doc_a["workloads"] if w in doc_b["workloads"]]
    if not shared:
        print("no workload is in both documents", file=sys.stderr)
        return 2
    code = 0
    for workload in shared:
        a = doc_a["workloads"][workload].get("untraced")
        b = doc_b["workloads"][workload].get("untraced")
        if a is None or b is None:
            continue
        if (a["seed"], a["n_vertices"]) != (b["seed"], b["n_vertices"]):
            print(
                f"{workload}: seed/n_vertices differ "
                f"({a['seed']}/{a['n_vertices']} vs {b['seed']}/{b['n_vertices']}); "
                "virtual metrics only repeat for the same inputs",
                file=sys.stderr,
            )
            return 2
        print(f"== {workload}  (R={a['repetitions']} vs R={b['repetitions']})", file=out)
        for name, (unit, better, _, _) in END_TO_END.items():
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            spread = max(
                a.get("repetition_spread", {}).get(name, 0.0),
                b.get("repetition_spread", {}).get(name, 0.0),
            )
            word, worsening = verdict(name, va, vb, spread)
            ratio = f"B/A = {vb / va:.4f} (base A)" if va else "B/A undefined (A = 0)"
            print(
                f"  {name:<24s} {better:<6s} A={va:<14.6g} B={vb:<14.6g} {unit:<8s} "
                f"{ratio:<28s} {word}"
                + (f"  [repetition spread {spread:.3f}]" if word == "unresolved" else ""),
                file=out,
            )
            if word == "worse":
                code = 1
        for label in ("untraced", "traced"):
            fa = doc_a["workloads"][workload].get(label, {}).get("virtual_fingerprint")
            fb = doc_b["workloads"][workload].get(label, {}).get("virtual_fingerprint")
            if fa is None or fb is None or fa == fb:
                continue
            if workload == PAPER_WORKLOAD:
                print(
                    f"  virtual_fingerprint ({label}) CHANGED: paper-mode bit-identity break",
                    file=out,
                )
                code = 1
            else:
                print(f"  virtual_fingerprint ({label}) changed: the model moved", file=out)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
