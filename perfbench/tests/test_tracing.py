import sys
from array import array

import numpy as np
import pytest

from openchain import runner

import tracing


def _snapshot():
    snap = {("numpy.linalg", "svd"): np.linalg.svd}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "openchain":
            snap.update({(name, a): o for a, o in vars(mod).items() if callable(o)})
    return snap


def _tiny(tmp_path, **kw):
    base = dict(engine="mpdo", n_sites=4, gamma_z=0.5, dt=0.1, dt_obs=0.1,
                t_max=0.2, chi=8, output_dir=str(tmp_path / "out"))
    base.update(kw)
    return runner.config_from_dict(base)


def test_restore_puts_back_every_patched_attribute(tmp_path):
    before = _snapshot()
    rec = tracing.Recorder(tmp_path / "spans").install()
    try:
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("openchain.kernels", "bond_update") in changed
        assert ("openchain.mpdo", "build_super_gates") in changed   # imported name
        assert ("openchain.runner", "run") in changed
        assert ("numpy.linalg", "svd") in changed
        assert ("openchain.kernels", "_split_theta") not in changed
    finally:
        rec.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracing._active is None


def test_self_times_are_nonnegative_and_sum_to_the_root(tmp_path):
    cfg = _tiny(tmp_path)
    with tracing.Recorder(tmp_path / "spans") as rec:
        runner.run(cfg)
    roots = [i for i, p in enumerate(rec.parent) if p < 0]
    assert [rec.names[rec.name[i]] for i in roots] == ["runner.run"]
    selfs = tracing.self_times(rec)
    assert min(selfs) >= 0.0
    root = roots[0]
    assert sum(selfs) == pytest.approx(rec.end[root] - rec.start[root], rel=1e-9)
    table = tracing.layer_table(rec)
    assert table["mpdo.trotter4_step"]["calls"] == 2
    assert table["kernels.svd"]["calls"] == len(rec.svd_shape) // 2 > 0


def test_overlapping_children_are_counted_once(tmp_path):
    rec = tracing.Recorder(tmp_path)
    rec.name = array("i", [0, 0, 0])
    rec.parent = array("i", [-1, 0, 0])
    rec.start = array("d", [0.0, 1.0, 3.0])
    rec.end = array("d", [10.0, 4.0, 6.0])
    assert tracing.self_times(rec) == [5.0, 3.0, 3.0]


def test_worker_spans_reach_the_parent(tmp_path):
    cfg = _tiny(tmp_path, engine="qt", gamma_plus=1.0, gamma_minus=1.0,
                gamma_z=0.0, n_traj=2, threads=2, dt=0.05)
    with tracing.Recorder(tmp_path / "spans") as rec:
        runner.run(cfg)
    rec.merge_worker_spans()
    assert not list((tmp_path / "spans").glob("*.jsonl"))
    ids = {name: i for i, name in enumerate(rec.names)}
    ens = [i for i, n in enumerate(rec.name) if n == ids[tracing.ENSEMBLE]]
    traj = [i for i, n in enumerate(rec.name)
            if n == ids["trajectories.run_trajectory"]]
    assert len(ens) == 1 and len(traj) == 2
    assert all(rec.parent[i] == ens[0] for i in traj)
    assert min(tracing.self_times(rec)) >= 0.0
    assert tracing.layer_table(rec)["kernels.bond_update"]["calls"] > 0
