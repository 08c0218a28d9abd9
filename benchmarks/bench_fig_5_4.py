"""Figure 5.4 — search performance of five GraphDBs on PubMed-S.

Paper's claims (verbatim from ch. 5): "the Array implementation gives the
lowest search time. Not surprisingly, the second best results are achieved
with the other in-memory implementation, HashMap. MySQL performs
significantly worse than all other implementations. The fastest of the
three out-of-core GraphDB implementations, grDB, performs an average of
33% faster than the next fastest out-of-core implementation, BerkeleyDB.
When comparing grDB with the in-memory implementations, grDB is only 1.7
times slower than HashMap and about 2.9 times slower than Array, on
average."
"""

import dataclasses

import numpy as np
from conftest import run_once

from repro import Features
from repro.experiments import fig_5_4


def test_fig_5_4(benchmark, bench_scale, bench_queries, save_result):
    series, text = run_once(
        benchmark, lambda: fig_5_4(scale=bench_scale, num_queries=bench_queries)
    )
    save_result("fig_5_4", text)

    longest = max(series["Array"])
    order = ["Array", "HashMap", "grDB", "BerkeleyDB", "MySQL"]
    times = [series[b][longest] for b in order]
    # Full standings at the longest (storage-bound) path length.
    assert times == sorted(times), f"standings broken at distance {longest}: {order} -> {times}"

    # Factor checks, averaged over long paths (distance >= 2), with slack:
    long_d = [d for d in series["Array"] if d >= 2]

    def mean_ratio(a, b):
        return float(np.mean([series[a][d] / series[b][d] for d in long_d]))

    # grDB vs BerkeleyDB: paper says grDB ~33% faster (ratio ~1.33).
    assert 1.1 < mean_ratio("BerkeleyDB", "grDB") < 1.8
    # grDB vs in-memory: ~1.7x HashMap and ~2.9x Array in the paper.
    assert 1.2 < mean_ratio("grDB", "HashMap") < 2.5
    assert 1.5 < mean_ratio("grDB", "Array") < 4.5
    # MySQL is in a different league (the paper's chart is dominated by it).
    assert mean_ratio("MySQL", "grDB") > 3.0


def test_fig_5_4_batched(benchmark, bench_scale, bench_queries, save_result):
    """Figure 5.4 rerun with batched/coalescing fringe expansion.

    Not a paper figure: the paper's prototype expanded the fringe one
    adjacency request at a time (the default above).  With ``batch_io``
    the out-of-core backends plan each level's I/O as one sorted, merged
    batch; adjacency results are identical, virtual time drops.  Asserts
    the headline win (grDB >= 20% faster end to end) while the backend
    standings survive.
    """
    base = fig_5_4(scale=bench_scale, num_queries=bench_queries, render=False)
    series, text = run_once(
        benchmark,
        lambda: fig_5_4(
            scale=bench_scale,
            num_queries=bench_queries,
            features=dataclasses.replace(Features.paper(), batch_io=True),
        ),
    )
    save_result("fig_5_4_batched", text)

    longest = max(series["Array"])
    order = ["Array", "HashMap", "grDB", "BerkeleyDB", "MySQL"]
    times = [series[b][longest] for b in order]
    # Batching must not reorder the standings at the longest path length.
    assert times == sorted(times), f"standings broken at distance {longest}: {order} -> {times}"

    # The in-memory backends have no batched path; their times are untouched.
    for backend in ("Array", "HashMap"):
        assert series[backend] == base[backend]

    # Headline: batched grDB cuts total search time by >= 20%.
    for backend, floor in (("grDB", 0.20), ("BerkeleyDB", 0.15)):
        total_base = sum(base[backend].values())
        total_batch = sum(series[backend].values())
        improvement = 1.0 - total_batch / total_base
        assert improvement >= floor, (
            f"{backend} batched improvement {improvement:.1%} below {floor:.0%}"
        )
