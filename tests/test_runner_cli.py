import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from openchain import cli, oracle, runner, traces
from openchain.models import ModelParams


def write_cfg(tmp_path, name="cfg.json", **kw):
    base = dict(engine="oracle", n_sites=4, gamma_plus=0.5, gamma_minus=0.5,
                t_max=1.0, dt_obs=0.5, dt=0.05, chi=32, cutoff=1e-12,
                output_dir=str(tmp_path / "out"))
    base.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path, base


def test_config_roundtrip(tmp_path):
    path, raw = write_cfg(tmp_path, engine="qt", n_traj=3, seed=9)
    cfg = runner.load_config(path)
    again = runner.config_from_dict(runner.config_to_dict(cfg))
    assert cfg == again
    inf = runner.config_from_dict({"engine": "itebd", "n_sites": "infinite"})
    assert inf.n_sites is None
    assert runner.config_to_dict(inf)["n_sites"] == "infinite"


def test_validation_collects_every_violation():
    cfg = runner.RunConfig(engine="bogus", n_sites=7, gamma_z=-1.0, chi=0,
                           dt=-0.1, dt_obs=0.0, t_max=-2.0, threads=0,
                           n_traj=2.5, reorth_every=True)
    with pytest.raises(runner.ConfigError) as exc:
        runner.validate_config(cfg)
    msgs = "\n".join(exc.value.problems)
    assert len(exc.value.problems) >= 9
    for frag in ("engine", "n_sites", "gamma_z", "chi", "dt ", "dt_obs",
                 "t_max", "threads", "n_traj must be an integer",
                 "reorth_every must be an integer"):
        assert frag in msgs


@pytest.mark.parametrize("name, value", [
    ("chi", 16.5), ("chi", True), ("reorth_every", 1.5), ("n_traj", 2.5),
    ("n_sites", 4.0), ("seed", 0.0), ("threads", False), ("chi", "8"),
    ("n_sites", "4"), ("n_traj", None)])
def test_validation_rejects_non_integer_counts(name, value):
    cfg = runner.config_from_dict({"engine": "qt", "n_sites": 4, name: value})
    with pytest.raises(runner.ConfigError) as exc:
        runner.validate_config(cfg)
    assert f"{name} must be an integer, got {value!r}" in exc.value.problems


def test_validation_engine_constraints():
    with pytest.raises(runner.ConfigError, match="infinite"):
        runner.validate_config(runner.RunConfig(engine="itebd", n_sites=8))
    with pytest.raises(runner.ConfigError, match="capped"):
        runner.validate_config(runner.RunConfig(engine="oracle", n_sites=10))
    with pytest.raises(runner.ConfigError, match="gamma_plus == gamma_minus"):
        runner.validate_config(runner.RunConfig(
            engine="qt", n_sites=4, gamma_plus=0.1, gamma_minus=0.5, n_traj=2))
    with pytest.raises(runner.ConfigError, match="unknown config key"):
        runner.config_from_dict({"engine": "mpdo", "bogus_key": 1})


@pytest.mark.parametrize("engine", ["mpdo", "qt", "itebd"])
def test_manifest_reports_the_restore_truncation_weight(tmp_path, engine):
    n_sites = "infinite" if engine == "itebd" else 4
    path, _ = write_cfg(tmp_path, engine=engine, n_sites=n_sites, n_traj=2,
                        t_max=0.5, dt_obs=0.25, chi=8, cutoff=1e-6)
    res = runner.run(runner.load_config(path))
    summary = json.loads(Path(res.manifest).read_text())["summary"]
    assert 0.0 <= summary["max_restore_trunc_weight"] <= 1e-6


def test_oracle_engine_is_a_passthrough(tmp_path):
    path, raw = write_cfg(tmp_path)
    res = runner.run(runner.load_config(path))
    _, cols = traces.read_csv(res.trace_csv)
    p = ModelParams(n_sites=4, gamma_plus=0.5, gamma_minus=0.5)
    times, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(4), p, 0.5, 1.0)
    assert np.allclose(cols["t"], times)
    for k, rho in enumerate(rhos):
        assert cols["S_center"][k] == pytest.approx(oracle.dense_oe(rho, 2), abs=1e-12)
        assert cols["trace"][k] == pytest.approx(1.0, abs=1e-8)
        for i in range(4):
            assert cols[f"sz_site_{i}"][k] == pytest.approx(
                oracle.dense_sz(rho)[i], abs=1e-12)


def test_run_writes_manifest_and_rerun_reproduces(tmp_path):
    path, _ = write_cfg(tmp_path, engine="mpdo", output_dir=str(tmp_path / "a"))
    res = runner.run(runner.load_config(path))
    first = Path(res.trace_csv).read_bytes()
    manifest = traces.read_json(res.manifest)
    assert manifest["code_version"]
    cfg2 = replace(runner.config_from_dict(manifest), output_dir=str(tmp_path / "b"))
    res2 = runner.run(cfg2)
    assert Path(res2.trace_csv).read_bytes() == first


def test_qt_outputs_and_thread_independence(tmp_path):
    path, _ = write_cfg(tmp_path, engine="qt", n_traj=6, seed=3, chi=16,
                        t_max=1.0, dt_obs=0.25, dt=0.05,
                        output_dir=str(tmp_path / "one"))
    res1 = runner.run(runner.load_config(path))
    cfg2 = replace(runner.load_config(path), threads=2,
                   output_dir=str(tmp_path / "two"))
    res2 = runner.run(cfg2)
    for name in ["trace.csv", "ensemble.json"] + \
            [f"trajectories/traj_{k:05d}.csv" for k in range(6)]:
        a = (Path(res1.output_dir) / name).read_bytes()
        b = (Path(res2.output_dir) / name).read_bytes()
        assert a == b, name
    ens = traces.read_json(res1.ensemble_json)
    assert ens["n_traj"] == 6
    assert len(ens["te_mean"]) == 5
    assert len(ens["sz_mean"][0]) == 4


def test_compare_runs(tmp_path):
    p1, _ = write_cfg(tmp_path, name="a.json", engine="mpdo",
                      output_dir=str(tmp_path / "ma"))
    p2, _ = write_cfg(tmp_path, name="b.json", engine="oracle",
                      output_dir=str(tmp_path / "ob"))
    ra = runner.run(runner.load_config(p1))
    rb = runner.run(runner.load_config(p2))
    report = runner.compare_runs(ra.trace_csv, rb.trace_csv)
    assert report["max_abs_deviation"] <= 1e-6
    assert "sz_site_0" in report["columns"]


def test_convergence_scan(tmp_path):
    path, _ = write_cfg(tmp_path, engine="mpdo", gamma_plus=0.1,
                        gamma_minus=0.1, t_max=1.0, dt_obs=0.5,
                        output_dir=str(tmp_path / "scan"))
    cfg = runner.load_config(path)
    with pytest.raises(runner.ConfigError):
        runner.convergence_scan(cfg, "chi", [8])
    with pytest.raises(runner.ConfigError):
        runner.convergence_scan(cfg, "n_traj", [1, 2])
    report = runner.convergence_scan(cfg, "dt", [0.25, 0.125, 0.0625],
                                     threshold=1e-3)
    devs = [pair["max_deviation"] for pair in report["pairs"]]
    assert len(devs) == 2
    assert devs[1] <= devs[0]
    assert report["converged"]
    assert (tmp_path / "scan" / "convergence.json").exists()


def test_cli_run_and_fit_and_errors(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, engine="mpdo", gamma_z=1.0, gamma_plus=0.0,
                        gamma_minus=0.0, t_max=2.0, dt_obs=0.125, dt=0.125,
                        output_dir=str(tmp_path / "cli_run"))
    assert cli.main(["run", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    trace = out["trace_csv"]

    assert cli.main(["fit", "--trace", trace, "--kind", "log",
                     "--column", "S_center", "--window", "0.4,2.0"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["kind"] == "log"
    assert Path(fit["fit_json"]).exists()

    assert cli.main(["plateau", "--gamma", "2.0,3.5"]) == 0
    pl = json.loads(capsys.readouterr().out)
    assert pl["plateaus"][0]["plateau"] == pytest.approx(0.0825, abs=1e-3)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"engine": "nope"}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any("engine" in p for p in err["problems"])

    assert cli.main(["compare", "--a", trace, "--b", trace]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["max_abs_deviation"] == 0.0


def test_cli_scan_and_threads_flag(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, engine="qt", n_traj=2, chi=8, seed=1,
                        t_max=0.5, dt_obs=0.25, dt=0.05,
                        output_dir=str(tmp_path / "q"))
    assert cli.main(["run", "--config", str(path), "--threads", "2",
                     "--output-dir", str(tmp_path / "q2")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert Path(out["output_dir"]).name == "q2"

    path2, _ = write_cfg(tmp_path, name="scan.json", engine="mpdo",
                         gamma_z=0.4, t_max=0.5, dt_obs=0.25,
                         output_dir=str(tmp_path / "sc"))
    assert cli.main(["convergence-scan", "--config", str(path2),
                     "--axis", "chi", "--values", "4,8"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["axis"] == "chi"


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(runner.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    cfg = runner.RunConfig(engine="oracle", n_sites=2, gamma_z=0.5,
                           t_max=0.5, dt_obs=0.25, output_dir="rel/run")
    res = runner.run(cfg)
    assert str(tmp_path / "root" / "rel" / "run") == res.output_dir
