"""Self-tests of the two-clock benchmark (smoke-sized, < 30 s together).

Run with ``python -m pytest benchmarks/twoclock/tests``; tier-1 collection
(``testpaths = ["tests"]``) does not reach this folder.
"""

import io
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import deployments as dep  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from inputs import build_inputs  # noqa: E402
from metrics import PHASES  # noqa: E402
from phases import run_repetition  # noqa: E402
from trace import Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_docs():
    """All four workloads, both passes, smoke-sized."""
    started = time.perf_counter()
    docs = {
        (name, trace): run.measure_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
        for name in dep.WORKLOADS
        for trace in (False, True)
    }
    docs["elapsed"] = time.perf_counter() - started
    return docs


def test_contract_names_match_the_tables():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(dep.WORKLOADS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        w.name: w.why for w in dep.WORKLOADS.values()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
    } == {name: spec[:3] for name, spec in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]} == dict(
        metrics.PER_LAYER
    )
    assert CONTRACT["run_seconds"] == dep.RUN_SECONDS
    assert CONTRACT["command"][-1] == str((HERE / "run.py").relative_to(ROOT))
    assert [Path(p) for p in CONTRACT["paths"]] == [HERE.relative_to(ROOT)]


def test_smoke_output_matches_contract_in_both_directions(smoke_docs):
    assert smoke_docs["elapsed"] < 30
    for name in dep.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            doc = smoke_docs[name, trace]
            assert doc["correct"], doc["failures"]
            assert doc["failed"] == 0 and doc["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in CONTRACT[key]}
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            assert got == want
            line = json.loads(run._contract_line(doc))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
        e2e = smoke_docs[name, False]["metrics"]
        assert all(m["value"] > 0 for m in e2e.values()), e2e


def test_traced_pass_reproduces_the_untraced_simulation(smoke_docs):
    for name in dep.WORKLOADS:
        traced, untraced = smoke_docs[name, True], smoke_docs[name, False]
        assert traced["virtual_fingerprint"] == untraced["virtual_fingerprint"]
        assert traced["checks"]["virtual_identical_across_repetitions"]
    digests = {smoke_docs[name, False]["answers_digest"] for name in dep.WORKLOADS}
    assert len(digests) == 1  # analytics answers invariant across backends x presets


@pytest.fixture(scope="module")
def array_inputs():
    return build_inputs(dep.WORKLOADS["array-floor"], 1, dep.SMOKE_VERTICES)


def _failed(rep):
    return sum(min(len(op.failures), op.attempted) for op in rep.ops)


def test_injected_wrong_bfs_answer_fails_the_operation(array_inputs):
    def wrong_distance(kind, report):
        if kind == "bfs" and report.result is not None:
            report.result += 1

    workload = dep.WORKLOADS["array-floor"]
    assert _failed(run_repetition(workload, array_inputs)) == 0
    rep = run_repetition(workload, array_inputs, tamper=wrong_distance)
    assert _failed(rep) == workload.n_solo


def test_injected_partial_flag_fails_the_operation(array_inputs):
    def partial(kind, report):
        if kind in ("drain", "pagerank"):
            report.partial = True

    workload = dep.WORKLOADS["array-floor"]
    rep = run_repetition(workload, array_inputs, tamper=partial)
    assert _failed(rep) == workload.n_drain + 1


def _repro_namespaces():
    """Every attribute of every repro module and of every class in them."""
    spaces = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        spaces[mod_name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type):
                spaces[f"{mod_name}:{attr}"] = dict(vars(value))
    return spaces


def test_uninstall_restores_every_patched_attribute():
    before = _repro_namespaces()
    tracer = Tracer()
    tracer.install()
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    assert len(patched) > 80
    from repro.bfs import oocbfs
    from repro.util import varint

    # Re-bound where it is *used*, not only where it is defined.
    assert oocbfs.bottom_up_level is not before["repro.bfs.oocbfs"]["bottom_up_level"]
    assert varint.encode_varints is not before["repro.util.varint"]["encode_varints"]
    tracer.uninstall()
    after = _repro_namespaces()
    assert before.keys() == after.keys()
    for space, attrs in before.items():
        assert attrs.keys() == after[space].keys()
        for attr, value in attrs.items():
            assert after[space][attr] is value, f"{space}.{attr} not restored"
    for owner, attr in patched:
        current = vars(owner)[attr]
        assert isinstance(current, types.FunctionType) and not hasattr(current, "__wrapped__")


def test_phase_self_times_add_up_to_the_phase_wall():
    workload = dep.WORKLOADS["streamdb-stream"]
    inp = build_inputs(workload, 1, dep.SMOKE_VERTICES)
    tracer = Tracer()
    tracer.install()
    try:
        rep = run_repetition(workload, inp, tracer)
    finally:
        tracer.uninstall()
    for phase in PHASES:
        wall = sum(op.wall_s for op in rep.phase_ops(phase))
        attributed = sum(tracer.layer_self_seconds(phase).values())
        assert attributed == pytest.approx(wall, rel=0.01), phase
    spans = tracer.raw_spans()
    assert spans and all(s["parent"] < i for i, s in enumerate(spans))


def _doc(value, fingerprint="f", spread=0.0, workload="grdb-paper"):
    body = {
        "seed": 1, "n_vertices": 4000, "trace": 0, "repetitions": 2,
        "virtual_fingerprint": fingerprint,
        "repetition_spread": dict.fromkeys(metrics.END_TO_END, spread),
        "metrics": {
            name: {"value": 0.0 if name == "io_bytes_per_query" else value, "unit": spec[0]}
            for name, spec in metrics.END_TO_END.items()
        },
    }
    return {"seed": 1, "workloads": {workload: {"untraced": body}}}


def _compare(a, b):
    out = io.StringIO()
    return compare.compare(a, b, out=out), out.getvalue()


def test_compare_verdicts_and_exit_codes():
    code, text = _compare(_doc(100.0), _doc(100.0))
    assert code == 0 and "worse" not in text
    # 0 vs 0 counts as within, and every ratio names its base.
    assert [line for line in text.splitlines() if "io_bytes_per_query" in line][0].endswith("within")
    assert "(base A)" in text

    code, text = _compare(_doc(100.0), _doc(130.0))
    lines = {line.split()[0]: line.split()[-1] for line in text.splitlines()[1:]}
    assert code == 1
    assert lines["solo_wall_p50_ms"] == "worse" and lines["solo_wall_qps"] == "better"

    # The same difference inside the runs' own repetition spread is unresolved.
    code, text = _compare(_doc(100.0, spread=0.5), _doc(130.0, spread=0.5))
    assert "unresolved" in text and "solo_wall_p50_ms" in text
    # ... but virtual metrics have no spread to hide in.
    assert code == 1 and "worse" in text


def test_compare_reports_paper_mode_fingerprint_break():
    code, text = _compare(_doc(1.0, "aaa"), _doc(1.0, "bbb"))
    assert code == 1 and "paper-mode bit-identity break" in text
    code, text = _compare(
        _doc(1.0, "aaa", workload="grdb-prod"), _doc(1.0, "bbb", workload="grdb-prod")
    )
    assert code == 0 and "the model moved" in text
