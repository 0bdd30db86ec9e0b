"""Seed sweeps, deselected by default: `python3 -m pytest -m sweep`.

A benchmark run builds a new mesh for each repetition, from mesh seed
`workloads.mesh_seed(seed, i)`, and does not guard set-up: one mesh that
raises ends the run.  So every mesh of the run seeds 0-19, 100 repetitions
each (more than a run makes), must build and validate on both workloads.
Every registered case's default mesh, paper-size cylinders with their hole
included, must too, on seeds 0 and 1."""

import pytest

from fvvem.harness import cases
from perfbench.workloads import WORKLOADS, mesh_seed


@pytest.mark.sweep
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_mesh_builds(workload):
    wl = WORKLOADS[workload]
    failed = []
    for seed in range(20):
        for i in range(100):
            ms = mesh_seed(seed, i)
            try:
                cases.get_case(wl.case, seed=ms, **wl.params).make_mesh().validate()
            except Exception as exc:        # noqa: BLE001 - every failure is listed
                failed.append(f"mesh seed {ms}: {exc!r}")
    assert not failed, "\n".join(failed)


@pytest.mark.sweep
@pytest.mark.parametrize("name", cases.case_names())
@pytest.mark.parametrize("seed", [0, 1])
def test_every_default_case_mesh_builds(name, seed):
    cases.get_case(name, seed=seed).make_mesh().validate()
