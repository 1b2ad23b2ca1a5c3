"""Smoke tests: each experiment script under scripts/ runs to completion."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sparse_target_prints_timings_and_peak_rss(capsys):
    # with --lam, build_s holds the regularized oracle (2000 x 200 is above SVD_MAX_ENTRIES)
    load_script("sparse_target").main(["--m", "2000", "--n", "200", "--density", "0.01",
                                       "--k-max", "20", "--lam", "1"])
    values = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert values["stop_reason"] == "k_max" and values["iterations_per_agent"] == "20"
    assert int(values["events"]) >= 8 * 20   # one Iterate per agent step at least
    for name in ("generate_s", "save_s", "load_s", "setup_s", "build_s", "run_s", "wall_s",
                 "peak_rss_mb"):
        assert float(values[name]) > 0
    # each printed time is rounded to 0.0005 s at most
    parts = sum(float(values[name]) for name in ("setup_s", "build_s", "run_s"))
    assert float(values["wall_s"]) >= parts - 0.002


def test_sparse_target_tol_rel_solves(capsys):
    load_script("sparse_target").main(["--m", "2000", "--n", "200", "--density", "0.01",
                                       "--tol-rel", "1e-3"])
    out = capsys.readouterr().out.splitlines()
    tol = float(out[0].rsplit("tol ", 1)[1])
    values = dict(line.split(" ", 1) for line in out[1:])
    assert values["stop_reason"] == "tol"
    assert 0 < int(values["iterations_per_agent"]) < 80_000
    assert float(values["e_stop"]) <= tol
    assert float(values["run_s"]) > 0 and float(values["peak_rss_mb"]) > 0


def test_sparse_target_rejects_tol_rel_with_lam(capsys, monkeypatch):
    module = load_script("sparse_target")
    # refused while parsing, before any instance is generated
    monkeypatch.setattr(module.problems, "generate", lambda spec: pytest.fail("generated"))
    with pytest.raises(SystemExit) as exc:
        module.main(["--tol-rel", "1e-6", "--lam", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert "--tol-rel" in err[-1] and "--lam" in err[-1]
