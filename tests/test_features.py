"""``Features``: the presets, the legacy-keyword fold, and sole ownership."""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import Features, MSSGConfig
from repro.util.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
KNOBS = {f.name for f in dataclasses.fields(Features)}


def _twoclock_deployments():
    """The frozen benchmark's deployment table, imported — not copied."""
    path = ROOT / "benchmarks" / "twoclock" / "deployments.py"
    spec = importlib.util.spec_from_file_location("twoclock_deployments", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return module


def test_exactly_two_presets_and_paper_is_the_benchmarks_paper_knobs():
    presets = [n for n, v in vars(Features).items() if isinstance(v, classmethod)]
    assert sorted(presets) == ["paper", "production"]
    assert Features.production() == Features()
    dep = _twoclock_deployments()
    assert Features.paper() == Features(**dep.PAPER_KNOBS, streaming=False)
    for workload in dep.WORKLOADS.values():  # make_config, unedited, via the fold
        base = Features.paper() if workload.paper else Features.production()
        assert dep.make_config(workload).features == dataclasses.replace(
            base, streaming=workload.streaming
        )


def _keyword_lands_on_top_of_features():
    cfg = MSSGConfig(features=Features.paper(), streaming=True, cache_policy="2q")
    assert cfg.features == dataclasses.replace(
        Features.paper(), streaming=True, cache_policy="2q"
    )
    assert MSSGConfig(checksums=False).features == Features(checksums=False)


def _a_config_has_no_knob_attributes():
    cfg = MSSGConfig(checksums=False)
    for name in KNOBS:  # a falsy leftover would read as "feature off"
        with pytest.raises(AttributeError):
            getattr(cfg, name)


def _replace_keeps_features():
    cfg = MSSGConfig(features=Features.paper(), streaming=True)
    assert dataclasses.replace(cfg, backend="Array").features == cfg.features


def _wrong_types_are_config_errors():
    for bad in (
        dict(checksums="no"),
        dict(streaming=1),
        dict(cache_policy="mru"),
        dict(features="paper"),
        dict(features=Features.paper(), batch_io=None),
    ):
        with pytest.raises(ConfigError):
            MSSGConfig(**bad)
    with pytest.raises(ConfigError):
        Features(shared_scans="yes")


@pytest.mark.parametrize(
    "check",
    [
        _keyword_lands_on_top_of_features,
        _a_config_has_no_knob_attributes,
        _replace_keeps_features,
        _wrong_types_are_config_errors,
    ],
    ids=lambda check: check.__name__.strip("_"),
)
def test_the_legacy_keyword_fold_fails_loudly(check):
    check()


# -- `make check-features-owner` ------------------------------------------------

#: Where a ``Features`` is carried, not re-spelled.
CARRIERS = [
    SRC / "framework.py",
    SRC / "cli.py",
    SRC / "graphdb" / "registry.py",
    *sorted((SRC / "services").glob("*.py")),
    *sorted((SRC / "experiments").glob("*.py")),
]

#: The per-query plan parameters: one query (or drain) overriding the
#: deployment's value is not a deployment feature.  Nothing else may declare
#: a knob's name, so a ninth knob cannot be threaded hop by hop.
PER_QUERY = {
    ("framework.py", "MSSG.query_many", "shared_scans"),
    ("query.py", "QueryService.drain", "shared_scans"),
    ("scheduler.py", "multiplex_program", "shared_scans"),
    ("query.py", "QueryService.submit", "direction_opt"),
    ("query.py", "QueryService._run_bfs", "direction_opt"),
    ("query.py", "QueryService._direction", "direction_opt"),
    ("scheduler.py", "QuerySpec", "direction_opt"),
}


def _declared_knobs(path):
    """``(file, qualified owner, knob)`` for every parameter or class-level
    field of ``path`` that is named like a ``Features`` field."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            inner = ".".join(filter(None, (owner, name)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found.update((path.name, inner, p.arg) for p in params if p is not None)
            elif isinstance(node, ast.ClassDef) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found.update(
                    (path.name, owner, t.id) for t in targets if isinstance(t, ast.Name)
                )
            visit(child, inner if name else owner)

    visit(ast.parse(path.read_text()), "")
    return {site for site in found if site[2] in KNOBS}


def test_no_knob_is_declared_outside_features():
    declared = set().union(*(_declared_knobs(path) for path in CARRIERS))
    assert declared == PER_QUERY
