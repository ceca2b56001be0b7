"""The benchmark under perfbench/ runs on the library's public API: every op
kind of every workload must still run and pass its own output checks."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def wl():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("workload", ["curves", "optimize", "mc-check"])
def test_first_op_of_each_kind_passes_its_checks(wl, tmp_path, workload):
    plan = wl.plan(workload, 1, wl.load_configs(workload))
    firsts = {}
    for op in plan:
        firsts.setdefault(op.kind, op)
    assert set(firsts) == set(wl.WORKLOADS[workload].kinds)
    for op in firsts.values():
        result = wl.run_op(op, tmp_path)
        assert wl.failure(op, result) is None
        assert wl.check(op, result) == []
        wl.result_bytes(op, tmp_path)  # every declared result file was written


def test_every_curves_op_passes_its_checks(wl, tmp_path):
    plan = wl.plan("curves", 1, wl.load_configs("curves"))
    assert len(plan) == 102
    for op in plan:
        result = wl.run_op(op, tmp_path)
        assert wl.failure(op, result) is None
        assert wl.check(op, result) == [], op


# sha256 of the result files of each workload's seed-1 plan, as
# perfbench/run.py prints it, on the versions in constraints.txt; a declared
# change to the output re-records it.
SEED1_DIGESTS = {
    "curves": "ae861aa173bc7af8dff06234ee0f2fcc9b19b935439f2d8380b29cfa85a8ecd5",
    "optimize": "8ad38a8b7984aa2e37c22251633745c7b1de3e38f504447519aef430147c8f47",
    "mc-check": "aebaef081fb734b2769d3af2b005b60add31f4d70bdcde05069ebfd097b7ea74",
}


@pytest.mark.bits
@pytest.mark.parametrize("workload", list(SEED1_DIGESTS))
def test_plan_digest(wl, tmp_path, recorded_stack, workload):
    chunks = []
    for op in wl.plan(workload, 1, wl.load_configs(workload)):
        wl.run_op(op, tmp_path)
        chunks.append(wl.result_bytes(op, tmp_path))
    assert wl.digest(chunks) == SEED1_DIGESTS[workload], recorded_stack


def test_every_mc_check_op_passes_its_checks(wl, tmp_path):
    # the MC columns and MC-based checks each op writes, against their bounds
    plan = wl.plan("mc-check", 1, wl.load_configs("mc-check"))
    assert len(plan) == 6
    for op in plan:
        result = wl.run_op(op, tmp_path)
        assert wl.failure(op, result) is None
        assert wl.check(op, result) == []


def test_closed_ref_gap_sample(wl):
    gap, compared, unconverged = wl.closed_ref_gap(wl.load_configs("curves")["sweep-links"])
    assert (compared, unconverged) == (120, 0)
    assert 0.0 <= gap < 1.0
