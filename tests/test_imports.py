"""Import contract: the CLI import, generating, loading and partitioning
an instance and reading its matrix, a consistent or regularized `kaczsim
run`, a lambda sweep and `kaczsim certify` load numpy only, on both sides
of linalg.SVD_MAX_ENTRIES: the oracles' LSQR branch is numpy too.

scipy's import takes about 0.2 s, more than a small run's whole set-up, so
only the functions that call it import it: Matrix Market writing
(problems.save) and problems.CsrRows.tocsr.  Each check runs in a fresh
interpreter and fails if any scipy module was loaded.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kaczsim import problems

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", loaded)
sys.exit(1 if loaded else 0)
"""


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code + REPORT_SCIPY], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)


@pytest.fixture(scope="module")
def saved_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "inst"
    problems.save(problems.generate(problems.ProblemSpec(m=60, n=12, density=0.3, seed=2, agents=3)), path)
    return path


# 300 x 120 at 5 %: 36 000 entries, above linalg.SVD_MAX_ENTRIES
LARGE = dict(m=300, n=120, density=0.05, noise=0.1, seed=3, agents=4)


@pytest.fixture(scope="module")
def saved_large_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "large"
    problems.save(problems.generate(problems.ProblemSpec(**LARGE)), path)
    return path


def cli_code(*argv) -> str:
    return f"from kaczsim import cli\nassert cli.main({list(argv)!r}) == 0\n"


def test_import_cli_loads_no_scipy(tmp_path):
    proc = run_python("import kaczsim.cli\n", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_load_and_partition_load_no_scipy(tmp_path, saved_instance):
    code = ("import numpy as np\n"
            "from kaczsim import problems\n"
            f"inst = problems.load({str(saved_instance)!r})\n"
            "assert inst.A.nnz == 216\n"
            "assert (inst.A @ np.ones(inst.n)).shape == (inst.m,)\n"
            "assert inst.dense().shape == (inst.m, inst.n)\n"
            "assert len(problems.partition(inst.A, inst.b, 4)) == 4\n")
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_consistent_run_loads_no_scipy(tmp_path, saved_instance):
    out = tmp_path / "out"
    proc = run_python(cli_code("run", "--instance", str(saved_instance), "--block-size", "5",
                               "--interval", "2", "--k-max", "50", "--out", str(out)), tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "events.csv").exists()


def test_certify_loads_no_scipy(tmp_path):
    out = tmp_path / "out"
    proc = run_python(cli_code("certify", "--window", "8", "--out", str(out)), tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "certify.json").exists()


def test_regularized_run_and_lambda_sweep_load_no_scipy(tmp_path, saved_instance):
    common = ["--instance", str(saved_instance), "--block-size", "5", "--k-max", "50"]
    code = (cli_code("run", *common, "--lam", "1.0", "--out", str(tmp_path / "run"))
            + cli_code("sweep", *common, "--axis", "lambda", "--values", "0.5,2", "--reps", "1",
                       "--out", str(tmp_path / "sweep")))
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "run" / "events.csv").exists()
    assert (tmp_path / "sweep" / "metrics.csv").exists()


def test_generate_above_svd_cutoff_loads_no_scipy(tmp_path):
    code = ("from kaczsim import linalg, problems\n"
            f"spec = problems.ProblemSpec(**{LARGE!r})\n"
            "assert spec.m * spec.n > linalg.SVD_MAX_ENTRIES\n"
            "inst = problems.generate(spec)\n"
            "assert inst.x_star.shape == (spec.n,)\n")
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_regularized_run_and_lambda_sweep_above_svd_cutoff_load_no_scipy(tmp_path,
                                                                        saved_large_instance):
    common = ["--instance", str(saved_large_instance), "--block-size", "10", "--k-max", "20"]
    code = (cli_code("run", *common, "--lam", "1", "--out", str(tmp_path / "run"))
            + cli_code("sweep", *common, "--axis", "lambda", "--values", "0,1", "--reps", "2",
                       "--out", str(tmp_path / "sweep")))
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "run" / "events.csv").exists()
    assert (tmp_path / "sweep" / "metrics.csv").exists()
