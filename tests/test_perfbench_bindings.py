"""The benchmark's trace mode rebinds package names that must stay bound."""

import os

import mlmc_euler
from mlmc_euler import diagnostics, estimator, limit_law, paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_trace_finds_and_restores_every_rebound_name(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each of these names in place; a
    # missing one raises AttributeError on entering the block
    monkeypatch.syspath_prepend(REPO_ROOT)
    from perfbench import spans

    modules = (mlmc_euler, diagnostics, estimator, limit_law, paths)
    before = [dict(vars(module)) for module in modules]
    plain = paths.normal_block
    with spans.traced_package(spans.Recorder()):
        assert paths.normal_block is not plain
    assert [dict(vars(module)) for module in modules] == before
