import csv
import dataclasses
import json
import shutil

import numpy as np
import pytest

from kaczsim import cli, harness, problems
from kaczsim.engine import MetricsRecord
from kaczsim.errors import InvalidParameter
from kaczsim.harness import RunOptions


def metrics(**kw):
    base = dict(k_iter=0.0, t_cmp=0.0, c=0.0, t_comm=0.0, T=0.0,
                e_stop=0.0, k_stop=0.0, t_stop=0.0)
    base.update(kw)
    return MetricsRecord(**base)


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("instances") / "small"
    inst = problems.generate(problems.ProblemSpec(m=40, n=10, density=0.3,
                                                  noise=0.0, seed=3, agents=4))
    problems.save(inst, path)
    return path


def fast_options(**kw):
    base = dict(block_size=5, interval=5, tol=1e-3, k_max=400,
                event_budget=20_000, stop_mode="all", seed=0)
    base.update(kw)
    return RunOptions(**base)


# ------------------------------------------------------------ derived counts

def test_derive_agent_count_reference_cases():
    assert harness.derive_agent_count(30000, 3000, 0.8) == 13
    assert harness.derive_agent_count(100, 100, 1.0) == 1
    assert harness.derive_agent_count(50000, 3000, 0.375) == 45


def test_derive_agent_count_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        harness.derive_agent_count(10, 10, 0.0)


# ------------------------------------------------------- replicate averaging

def test_aggregate_single_record_is_itself():
    rec = metrics(k_iter=3.0, T=1.5)
    assert harness.aggregate_replicates([rec]) == rec


def test_aggregate_two_records_means():
    out = harness.aggregate_replicates([metrics(k_iter=2.0), metrics(k_iter=4.0)])
    assert out.k_iter == 3.0


def test_aggregate_rejects_empty():
    with pytest.raises(InvalidParameter):
        harness.aggregate_replicates([])


def test_aggregate_within_min_max_envelope(instance_dir):
    inst = problems.load(instance_dir)
    records = [harness.run_single(inst, fast_options(seed=s)).metrics for s in range(5)]
    agg = harness.aggregate_replicates(records)
    for f in MetricsRecord.NUMERIC_FIELDS:
        values = [getattr(r, f) for r in records]
        assert min(values) - 1e-12 <= getattr(agg, f) <= max(values) + 1e-12


def test_identical_seeds_average_to_single_run(instance_dir):
    inst = problems.load(instance_dir)
    one = harness.run_single(inst, fast_options(seed=1)).metrics
    agg = harness.aggregate_replicates([harness.run_single(inst, fast_options(seed=1)).metrics
                                        for _ in range(5)])
    assert agg == one


# --------------------------------------------------------------------- sweeps

def test_sweep_seed_formula(instance_dir):
    inst = problems.load(instance_dir)
    outcome = harness.sweep(inst, "interval", [2, 8], fast_options(seed=100), reps=2)
    seeds = [(r["cell"], r["rep"], r["seed"]) for r in outcome.rows]
    assert seeds == [(0, 0, 100), (0, 1, 101), (1, 0, 1100), (1, 1, 1101)]


def test_sweep_cell_counts_and_hash_echo(tmp_path, instance_dir):
    inst = problems.load(instance_dir)
    outcome = harness.sweep(inst, "lambda", [0.0, 0.5, 1.0], fast_options(), reps=2)
    assert len(outcome.aggregated) == 3
    assert len(outcome.rows) == 6
    harness.write_metrics_csv(outcome.rows, tmp_path / "metrics.csv")
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        assert row["config_hash"] in outcome.configs
    # rows of one cell share a config except for the seed
    docs = [outcome.configs[r["config_hash"]] for r in rows if r["cell"] == "1"]
    stripped = [{k: v for k, v in d.items() if k not in ("seed", "failure")} for d in docs]
    assert stripped[0] == stripped[1]


def test_sweep_failure_axis_is_cartesian(instance_dir):
    inst = problems.load(instance_dir)
    outcome = harness.sweep(inst, "failure", [0.25, 0.5], fast_options(),
                            reps=1, xi_values=[0.5, 1.0])
    assert [c.value for c in outcome.cells] == [(0.25, 0.5), (0.25, 1.0), (0.5, 0.5), (0.5, 1.0)]


def test_sweep_agents_axis_repartitions(instance_dir):
    inst = problems.load(instance_dir)
    outcome = harness.sweep(inst, "agents", [1.0, 2.0], fast_options(), reps=1)
    assert [c.options.agents for c in outcome.cells] == [4, 2]


def test_sweep_rejects_unknown_axis(instance_dir):
    inst = problems.load(instance_dir)
    with pytest.raises(InvalidParameter):
        harness.sweep(inst, "voltage", [1], fast_options(), reps=1)


def test_options_document_round_trip():
    opts = fast_options(lam=0.7, trigger="global", spacing=2.5,
                        failure_rho=0.25, failure_xi=1.5, topology_cap=3)
    back = harness.options_from_document(opts.to_document())
    assert back.lam == 0.7
    assert back.trigger == "global" and back.spacing == 2.5
    assert back.failure_rho == 0.25 and back.failure_xi == 1.5
    assert back.topology_cap == 3
    assert back.block_size == opts.block_size
    # a sweep's configs.json entry also labels its cell; it parses the same
    swept = harness.options_from_document({**opts.to_document(), "axis": "lambda", "value": [0.7]})
    assert swept == back


# ------------------------------------------------------------------------ CLI

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_gen_creates_instance(tmp_path):
    out = tmp_path / "inst"
    assert run_cli("gen", "--m", "30", "--n", "8", "--density", "0.3",
                   "--sigma", "0", "--seed", "7", "--agents", "3", "--out", str(out)) == 0
    header = (out / "A.mtx").read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate real general")
    inst = problems.load(out)
    assert len(inst.shards) == 3


def test_cli_run_deterministic(tmp_path, instance_dir):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    common = ["run", "--instance", str(instance_dir), "--block-size", "5",
              "--interval", "5", "--stop-mode", "all", "--k-max", "400",
              "--seed", "11", "--tol", "1e-3"]
    assert run_cli(*common, "--out", str(out_a)) == 0
    assert run_cli(*common, "--out", str(out_b)) == 0
    assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
    assert (out_a / "events.csv").read_text() == (out_b / "events.csv").read_text()


def test_cli_sweep_and_report(tmp_path, instance_dir):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--instance", str(instance_dir), "--axis", "lambda",
                   "--values", "0.3,1,2,3", "--reps", "2", "--block-size", "5",
                   "--interval", "5", "--k-max", "150", "--stop-mode", "all",
                   "--out", str(out)) == 0
    with open(out / "metrics.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert len(raw) == 8
    with open(out / "aggregated.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert len(agg) == 4
    configs = json.loads((out / "configs.json").read_text())
    assert all(r["config_hash"] in configs for r in raw)
    # long-format report
    assert run_cli("report", "--metrics", str(out / "metrics.csv"), "--out", str(out)) == 0
    with open(out / "report.csv", newline="") as fh:
        melted = list(csv.DictReader(fh))
    assert len(melted) == 8 * 8   # metrics per row
    assert {r["metric"] for r in melted} == set(harness.RAW_HEADER[3:-1])


def test_cli_certify(tmp_path):
    out = tmp_path / "cert"
    assert run_cli("certify", "--m", "4", "--n", "3", "--agents", "2",
                   "--seed", "1", "--window", "8", "--out", str(out)) == 0
    report = json.loads((out / "certify.json").read_text())
    for key in ("window", "hybrid_norm", "complete_rows", "C_l_verdict", "d"):
        assert key in report


def test_cli_certify_long_window(tmp_path):
    out = tmp_path / "cert"
    assert run_cli("certify", "--m", "4", "--n", "3", "--agents", "2",
                   "--window", "64", "--out", str(out)) == 0
    report = json.loads((out / "certify.json").read_text())
    assert report["window"] == 64
    assert report["complete_rows"] and all(report["complete_rows"])


def test_cli_env_var_output(tmp_path, instance_dir, monkeypatch):
    monkeypatch.setenv("KACZSIM_OUT", str(tmp_path / "from_env"))
    assert run_cli("run", "--instance", str(instance_dir), "--block-size", "5",
                   "--interval", "5", "--stop-mode", "all", "--k-max", "200") == 0
    assert (tmp_path / "from_env" / "metrics.csv").exists()


def test_cli_config_file_with_flag_override(tmp_path, instance_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(fast_options(seed=5).to_document()))
    out = tmp_path / "run"
    assert run_cli("run", "--instance", str(instance_dir), "--config", str(config),
                   "--seed", "6", "--out", str(out)) == 0
    configs = json.loads((out / "configs.json").read_text())
    (doc,) = configs.values()
    assert doc["seed"] == 6               # flag overrides the file
    assert doc["agent"]["block_size"] == 5


def test_cli_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--axis", "nope"])
    assert info.value.code == 2


def test_cli_missing_instance_exit_1(tmp_path):
    assert run_cli("run", "--instance", str(tmp_path / "absent")) == 1


BAD_INPUTS = {
    "manifest-without-files": (lambda manifest: manifest.pop("files"), None),
    "config-not-json": (None, "{block_size: 5"),
    "config-unknown-key": (None, json.dumps({"agnet": {"block_size": 5}})),
    "config-unknown-section-key": (None, json.dumps({"agent": {"block": 5}})),
    "config-unknown-trigger": (None, json.dumps({"trigger": {"kind": "sometimes"}})),
    "config-block-size-string": (None, json.dumps({"agent": {"block_size": "5"}})),
    "config-tol-string": (None, json.dumps({"tol": "x"})),
    "config-lam-string": (None, json.dumps({"agent": {"lam": "1"}})),
    "config-k-max-string": (None, json.dumps({"k_max": "10"})),
    "config-k-max-fraction": (None, json.dumps({"k_max": 10.5})),
    "config-k-max-negative": (None, json.dumps({"k_max": -5})),
    "config-event-budget-negative": (None, json.dumps({"event_budget": -1})),
    "config-agents-zero": (None, json.dumps({"agents": 0})),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exit_1(tmp_path, instance_dir, capsys, case):
    break_manifest, config_text = BAD_INPUTS[case]
    inst_dir = tmp_path / "inst"
    shutil.copytree(instance_dir, inst_dir)
    argv = ["run", "--instance", str(inst_dir), "--out", str(tmp_path / "out")]
    if break_manifest:
        manifest = json.loads((inst_dir / "manifest.json").read_text())
        break_manifest(manifest)
        (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    if config_text:
        (tmp_path / "cfg.json").write_text(config_text)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_non_finite_shard_exit_1(tmp_path, instance_dir, capsys):
    inst_dir = tmp_path / "inst"
    shutil.copytree(instance_dir, inst_dir)
    shard = inst_dir / "shard_00_b.txt"
    values = shard.read_text().splitlines()
    values[3] = "nan"
    shard.write_text("\n".join(values) + "\n")
    assert run_cli("run", "--instance", str(inst_dir), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("lam", ["0", "1"], ids=["consistent", "regularized"])
def test_cli_run_diverged(tmp_path, instance_dir, capsys, monkeypatch, lam):
    build = harness.build_sim_config

    def huge_init(inst, opts):
        cfg = build(inst, opts)
        return dataclasses.replace(cfg, init=[np.full(cfg.agents[0].dim, 1e308)] * len(cfg.agents))

    monkeypatch.setattr(harness, "build_sim_config", huge_init)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("run", "--instance", str(instance_dir), "--lam", lam, "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("stopped (diverged): ")
    assert "Traceback" not in captured.err
    assert (out / "events.csv").exists()


@pytest.mark.parametrize("lam", [None, 1.0], ids=["consistent", "regularized"])
def test_non_finite_data_rejected_at_construction(lam):
    g = np.random.default_rng(17)
    A = g.normal(size=(20, 5))
    b = g.normal(size=20)
    b[3] = np.nan
    inst = problems.from_arrays(A, b, agents=2)
    with pytest.raises(InvalidParameter):
        harness.run_single(inst, fast_options(lam=lam))
