"""The engine names the end-to-end benchmark patches must stay bound.

``benchmarks/e2e`` traces the engine from outside by swapping
``vars(owner)[attribute]`` for a recording wrapper; renaming or moving
any of those callables must fail here, in tier-1, not in the benchmark.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import tracing


@pytest.mark.parametrize(
    "module, owner, attribute, span", tracing.TARGETS,
    ids=[".".join(filter(None, target[:3])) for target in tracing.TARGETS],
)
def test_traced_target_resolves(module, owner, attribute, span):
    assert callable(vars(tracing._owner(module, owner))[attribute])


def test_leaves_expose_what_the_tlb_probe_reads(small_dataset):
    from repro import HerculesConfig, HerculesIndex
    from repro.summarization.eapca import SeriesSketch

    config = HerculesConfig(leaf_capacity=50)
    with HerculesIndex.build(small_dataset, config) as index:
        sketch = SeriesSketch(small_dataset[0].astype("float64"))
        covered = 0
        for leaf in index.leaves:
            assert leaf.file_position == covered and leaf.size > 0
            assert leaf.lower_bound(sketch) >= 0.0
            covered += leaf.size
        assert covered == index.num_series
