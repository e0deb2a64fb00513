import csv
import json
import shutil

import pytest

import checks
from workloads import WORKLOADS


def _copy(tmp_path, name):
    dst = tmp_path / name
    shutil.copytree(checks.REFERENCES / name, dst)
    return dst


def _edit_csv(path, column, row, fn):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    k = rows[0].index(column)
    rows[row][k] = repr(fn(float(rows[row][k])))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _problems(name, outdir):
    return checks.check_run(WORKLOADS[name], outdir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_outputs_pass(tmp_path, name):
    out = _copy(tmp_path, name)
    assert _problems(name, out) == []
    assert checks.bit_identical(out, WORKLOADS[name])


@pytest.mark.parametrize("name,column", [
    ("mpdo-dephasing", "sz_site_3"),
    ("itebd-reorth", "S_center"),
    ("qt-weak", "S_bond_avg"),
])
def test_perturbed_trace_is_rejected(tmp_path, name, column):
    out = _copy(tmp_path, name)
    _edit_csv(out / "trace.csv", column, -1, lambda v: v + 1e-4)
    problems = _problems(name, out)
    assert any(f"trace.csv:{column}" in p for p in problems), problems


def test_change_below_tolerance_passes_but_is_not_bit_identical(tmp_path):
    out = _copy(tmp_path, "mpdo-dephasing")
    _edit_csv(out / "trace.csv", "sz_site_3", -1, lambda v: v + 1e-9)
    assert _problems("mpdo-dephasing", out) == []
    assert not checks.bit_identical(out, WORKLOADS["mpdo-dephasing"])


def test_jump_counts_must_match_exactly(tmp_path):
    out = _copy(tmp_path, "qt-weak")
    _edit_csv(out / "trajectories" / "traj_00000.csv", "jumps_cum", -1,
              lambda v: v + 1)
    problems = _problems("qt-weak", out)
    assert any("traj_00000.csv:jumps_cum" in p for p in problems), problems


@pytest.mark.parametrize("column,value,message", [
    ("trace", 1.0 + 1e-6, "|Tr rho - 1|"),
    ("sz_site_0", 1.5, "|<sz>| > 1"),
    ("S_center", -1e-3, "negative entropy"),
    ("S_bond_avg", float("nan"), "non-finite"),
])
def test_invariants_are_enforced(tmp_path, column, value, message):
    out = _copy(tmp_path, "mpdo-dephasing")
    _edit_csv(out / "trace.csv", column, 1, lambda v: value)
    problems = _problems("mpdo-dephasing", out)
    assert any(message in p for p in problems), problems


def test_ensemble_mean_is_compared_in_standard_errors(tmp_path):
    out = _copy(tmp_path, "qt-strong-ensemble")
    path = out / "ensemble.json"
    ens = json.loads(path.read_text())
    se = ens["sz_stderr"][-1][5]
    assert se > 0
    ens["sz_mean"][-1][5] += 2 * se          # within 4 combined SE: passes
    path.write_text(json.dumps(ens))
    assert _problems("qt-strong-ensemble", out) == []
    ens["sz_mean"][-1][5] += 10 * se         # far outside: rejected
    path.write_text(json.dumps(ens))
    problems = _problems("qt-strong-ensemble", out)
    assert any("ensemble:sz_mean" in p for p in problems), problems


def test_wrong_config_is_rejected(tmp_path):
    out = _copy(tmp_path, "qt-weak")
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["chi"] = 32
    path.write_text(json.dumps(manifest))
    assert any("config differs" in p for p in _problems("qt-weak", out))
