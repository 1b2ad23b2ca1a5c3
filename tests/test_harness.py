import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kaczsim import cli, harness, problems
from kaczsim.engine import MetricsRecord
from kaczsim.errors import InvalidParameter, IoError
from kaczsim.harness import RunOptions
from oracles import write_events_csv as csv_writer_events


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
    records = [harness.run_single(inst, fast_options(seed=1)).metrics for _ in range(5)]
    # each replicate is the single run bit for bit; the mean of five equal
    # doubles need not round back to them, so it matches within one ulp
    assert all(rec == one for rec in records)
    agg = harness.aggregate_replicates(records)
    for f in MetricsRecord.NUMERIC_FIELDS:
        value = float(getattr(one, f))
        assert abs(float(getattr(agg, f)) - value) <= np.spacing(abs(value))


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
    harness.write_aggregated_csv(outcome.aggregated, tmp_path / "aggregated.csv", reps=2)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "aggregated.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(rows) == 6
    # each metric column holds the repr of the field it names
    for row, ref in zip(rows, outcome.rows):
        assert all(row[name] == repr(float(getattr(ref["metrics"], name)))
                   for name in harness.RAW_HEADER[3:-1])
    for cell, (_, ref) in zip(cells, outcome.aggregated):
        assert all(cell[name] == repr(float(getattr(ref, name))) for name in harness.AGG_HEADER[3:])
    for row in rows:
        assert row["config_hash"] in outcome.configs
    # rows of one cell share a config except for the seed
    docs = [outcome.configs[r["config_hash"]] for r in rows if r["cell"] == "1"]
    stripped = [{k: v for k, v in d.items() if k != "seed"} for d in docs]
    assert stripped[0] == stripped[1]


@pytest.mark.parametrize("axis, values", [("lambda", [0.0, 0.5, 1.0]), ("failure", [0.25, 0.5])])
def test_sweep_builds_each_cell_once(tmp_path, instance_dir, monkeypatch, axis, values):
    inst = problems.load(instance_dir)
    base = fast_options(seed=5)
    cells = harness._cells_for_axis(inst, axis, values, None, base)
    # each replicate built and run on its own, with its own oracle solve
    fresh = [[harness.run_single(inst, dataclasses.replace(cell.options, seed=5 + 1000 * cell.cell + rep))
              .metrics for rep in range(3)] for cell in cells]
    solves = []
    solve = harness.linalg.augmented_min_norm_solve
    monkeypatch.setattr(harness.linalg, "augmented_min_norm_solve",
                        lambda A, b, lam: solves.append(lam) or solve(A, b, lam))
    outcome = harness.sweep(inst, axis, values, base, reps=3)
    assert solves == ([0.5, 1.0] if axis == "lambda" else [])
    harness.write_metrics_csv(outcome.rows, tmp_path / "metrics.csv")
    harness.write_aggregated_csv(outcome.aggregated, tmp_path / "aggregated.csv", reps=3)
    harness.write_metrics_csv([{**row, "metrics": fresh[row["cell"]][row["rep"]]}
                               for row in outcome.rows], tmp_path / "fresh_metrics.csv")
    harness.write_aggregated_csv([(cell, harness.aggregate_replicates(records))
                                  for cell, records in zip(cells, fresh)],
                                 tmp_path / "fresh_aggregated.csv", reps=3)
    for name in ("metrics.csv", "aggregated.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"fresh_{name}").read_bytes()


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
    opts = RunOptions(agents=3, block_size=7, lam=0.7, sampling="iid", t_min=0.25, t_max=2.0,
                      topology_cap=2, topology_seed=4, trigger="global", interval=9,
                      spacing=2.5, delay_bound=0.5, tol=1e-6, k_max=123, event_budget=4567,
                      stop_mode="all", failure_rho=0.25, failure_xi=1.5, seed=11)
    defaults = RunOptions()
    assert all(getattr(opts, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(RunOptions))
    doc = opts.to_document()
    assert list(doc) == [f.name for f in dataclasses.fields(RunOptions)]
    assert harness.options_from_document(doc) == opts
    assert harness.options_from_document(json.loads(json.dumps(doc))) == opts
    # a sweep's configs.json entry also labels its cell; it parses the same
    assert harness.options_from_document({**doc, "axis": "lambda", "value": [0.7]}) == opts


# ------------------------------------------------------------------------ CLI

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_gen_creates_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run_cli("gen", "--m", "30", "--n", "8", "--density", "0.3",
                   "--sigma", "0", "--seed", "7", "--agents", "3", "--out", str(out)) == 0
    assert ", default agent count 3) to " in capsys.readouterr().out
    header = (out / "A.mtx").read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate real general")
    inst = problems.load(out)
    assert inst.agents == 3


def test_cli_run_deterministic(tmp_path, instance_dir):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    common = ["run", "--instance", str(instance_dir), "--block-size", "5",
              "--interval", "5", "--stop-mode", "all", "--k-max", "400",
              "--seed", "11", "--tol", "1e-3"]
    assert run_cli(*common, "--out", str(out_a)) == 0
    assert run_cli(*common, "--out", str(out_b)) == 0
    assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
    assert (out_a / "events.csv").read_text() == (out_b / "events.csv").read_text()


def test_events_csv_bytes_match_csv_writer(tmp_path):
    """events.csv is byte for byte what csv.writer writes, on a run that
    logs all six kinds (Resume with an empty detail)."""
    inst = problems.generate(problems.ProblemSpec(m=60, n=12, density=0.5, seed=3, agents=4))
    result = harness.run_single(inst, RunOptions(block_size=4, interval=2, failure_rho=0.5,
                                                 failure_xi=2.0, stop_mode="all", seed=3))
    assert {ev.kind for ev in result.log} == {"Deliver", "Iterate", "Broadcast", "Halt",
                                              "Resume", "Converge"}
    harness.write_events_csv(result.log, tmp_path / "events.csv")
    csv_writer_events(result.log, tmp_path / "reference.csv")
    data = (tmp_path / "events.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\r\n") == len(result.log) + 1


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


CERTIFY_CASES = json.loads((Path(__file__).resolve().parent.parent
                            / "perfbench" / "certify_cases.json").read_text())


@pytest.mark.parametrize("case", CERTIFY_CASES["full"] + CERTIFY_CASES["smoke"],
                         ids=lambda c: f"m{c['m']}-agents{c['agents']}-seed{c['seed']}-w{c['window']}")
def test_certify_matches_recorded_benchmark_case(case):
    # the benchmark's certify_window workload checks these recorded reports
    # (perfbench/workloads.check_certificate); a change to the run that moves
    # a certificate shows here, not only as a failed benchmark operation.
    # The second smoke case is the one recorded window with incomplete rows,
    # whose norm is 1.0
    report = harness.certify(m=case["m"], n=case["n"], agents=case["agents"],
                             seed=case["seed"], window=case["window"])
    assert abs(report["hybrid_norm"] - case["hybrid_norm"]) <= 1e-9
    for key in ("complete_rows", "d", "C_l_verdict"):
        assert report[key] == case[key], key


@pytest.mark.parametrize("window", ["0", "-3"])
def test_cli_certify_empty_window_exit_1(tmp_path, capsys, window):
    """A certificate over no ticks is refused, not reported."""
    out = tmp_path / "cert"
    assert run_cli("certify", "--m", "4", "--n", "3", "--agents", "2",
                   "--window", window, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "hybrid_norm" not in captured.out and not (out / "certify.json").exists()


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
    assert doc["block_size"] == 5


def test_cli_run_reproduced_from_configs_json(tmp_path, instance_dir):
    """A run's configs.json entry, given back as --config, reproduces its
    events.csv and metrics.csv byte for byte."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli("run", "--instance", str(instance_dir), "--block-size", "4",
                   "--trigger", "global", "--spacing", "2", "--rho", "0.5", "--xi", "2",
                   "--sampling", "iid", "--stop-mode", "all", "--k-max", "300",
                   "--seed", "9", "--out", str(first)) == 0
    (doc,) = json.loads((first / "configs.json").read_text()).values()
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run_cli("run", "--instance", str(instance_dir), "--config", str(tmp_path / "cfg.json"),
                   "--out", str(again)) == 0
    for name in ("events.csv", "metrics.csv", "configs.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_cli_sweep_rows_reproduced_from_configs_json(tmp_path, instance_dir):
    """Each sweep row's configs.json entry, given as --config to run,
    reproduces that row's seed and metrics."""
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--instance", str(instance_dir), "--axis", "failure",
                   "--values", "0.5", "--xi-values", "1,2", "--reps", "2", "--block-size", "5",
                   "--k-max", "150", "--stop-mode", "all", "--seed", "3", "--out", str(out)) == 0
    configs = json.loads((out / "configs.json").read_text())
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    metric_columns = harness.RAW_HEADER[2:-1]
    for i, row in enumerate(rows):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(configs[row["config_hash"]]))
        assert run_cli("run", "--instance", str(instance_dir), "--config", str(path),
                       "--out", str(tmp_path / f"run{i}")) == 0
        with open(tmp_path / f"run{i}" / "metrics.csv", newline="") as fh:
            (rerun,) = csv.DictReader(fh)
        assert [rerun[c] for c in metric_columns] == [row[c] for c in metric_columns]


@pytest.mark.parametrize("argv, own", [
    (["run", "--instance", "x"], {"instance", "out"}),
    (["sweep", "--instance", "x", "--axis", "lambda", "--values", "1"],
     {"instance", "out", "axis", "values", "xi_values", "reps"})], ids=["run", "sweep"])
def test_run_flags_are_the_run_options_fields(argv, own):
    """cli._resolve_options reads one flag per RunOptions field: a field
    without a flag would crash every run, and a flag that is no field would
    be dropped."""
    args = cli.build_parser().parse_args(argv)
    dests = set(vars(args)) - {"command", "func", "config"} - own
    assert dests == {f.name for f in dataclasses.fields(RunOptions)}


@pytest.mark.parametrize("flag", [("--density", "2"), ("--sigma", "-1"), ("--sigma", "nan")],
                         ids=["density-2", "sigma-negative", "sigma-nan"])
def test_cli_gen_bad_spec_exit_1(tmp_path, capsys, flag):
    out = tmp_path / "inst"
    assert run_cli("gen", "--m", "30", "--n", "8", *flag, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (out / "b.txt").exists()


def test_cli_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--axis", "nope"])
    assert info.value.code == 2


def test_cli_missing_instance_exit_1(tmp_path):
    assert run_cli("run", "--instance", str(tmp_path / "absent")) == 1


def test_python_m_kaczsim_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def kaczsim(*argv):
        return subprocess.run([sys.executable, "-m", "kaczsim", *argv], capture_output=True,
                              text=True, cwd=tmp_path, env=env, timeout=120)

    shown = kaczsim("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage:")
    failed = kaczsim("run", "--instance", str(tmp_path / "absent"))
    assert failed.returncode == 1
    assert failed.stderr.startswith("error: ") and failed.stderr.count("\n") == 1


# A config document in the nested layout configs.json used before documents
# were keyed by RunOptions field names.
PARENT_LAYOUT_DOCUMENT = {
    "agents": None,
    "agent": {"block_size": 5, "lam": None, "sampling": "cycle", "t_min": 0.5, "t_max": 1.0},
    "topology": {"cap": None, "seed": 0}, "trigger": {"kind": "every_k", "interval": 25},
    "delay_bound": 1.0, "tol": 0.001, "k_max": 5000, "event_budget": 1000000,
    "stop_mode": "first", "failure": {"rho": 0.5, "xi": 1.0, "seed": 99}, "seed": 99}

# case -> (manifest edit, config file text, a fragment of the error message)
BAD_INPUTS = {
    "manifest-without-files": (lambda manifest: manifest.pop("files"), None,
                               "missing or bad entry 'files'"),
    "manifest-agents-zero": (lambda manifest: manifest.update(agents=0), None,
                             "agents 0 is not an integer in [1, 40]"),
    "manifest-agents-past-m": (lambda manifest: manifest.update(agents=41), None,
                               "agents 41 is not an integer in [1, 40]"),
    "manifest-agents-string": (lambda manifest: manifest.update(agents="4"), None,
                               "agents '4' is not an integer"),
    "manifest-agents-bool": (lambda manifest: manifest.update(agents=True), None,
                             "agents True is not an integer"),
    "manifest-agents-missing": (lambda manifest: manifest.pop("agents"), None,
                                "missing or bad entry 'agents'"),
    "manifest-spec-m": (lambda manifest: manifest["spec"].update(m=999), None,
                        "spec is 999 x 10 but A.mtx is 40 x 10"),
    "manifest-spec-n": (lambda manifest: manifest["spec"].update(n=7), None,
                        "spec is 40 x 7 but A.mtx is 40 x 10"),
    "config-not-json": (None, "{block_size: 5", "is not valid JSON"),
    "config-not-object": (None, "[5]", "must be a JSON object"),
    "config-unknown-key": (None, json.dumps({"agnet": 5}), "unknown config key(s) ['agnet']"),
    "config-unknown-section-key": (None, json.dumps({"topology_cap": 3, "topology": {"seed": 1}}),
                                   "unknown config key(s) ['topology']"),
    "config-nested-layout": (None, json.dumps(PARENT_LAYOUT_DOCUMENT),
                             "unknown config key(s) ['agent', 'failure', 'topology']"),
    "config-unknown-trigger": (None, json.dumps({"trigger": "sometimes"}),
                               "unknown trigger 'sometimes'; pick every_k or global"),
    "config-block-size-string": (None, json.dumps({"block_size": "5"}),
                                 "block_size='5' is not a valid int"),
    "config-tol-string": (None, json.dumps({"tol": "x"}), "tol='x' is not a valid float"),
    "config-lam-string": (None, json.dumps({"lam": "1"}), "lam='1' is not a valid float or null"),
    "config-k-max-string": (None, json.dumps({"k_max": "10"}), "k_max='10' is not a valid int"),
    "config-k-max-fraction": (None, json.dumps({"k_max": 10.5}), "k_max=10.5 is not a valid int"),
    "config-k-max-negative": (None, json.dumps({"k_max": -5}), "k_max must be at least 1, got -5"),
    "config-event-budget-negative": (None, json.dumps({"event_budget": -1}),
                                     "event budget must be at least 1, got -1"),
    "config-agents-zero": (None, json.dumps({"agents": 0}), "need at least one agent, got 0"),
    "config-failure-rho-negative": (None, json.dumps({"failure_rho": -1, "failure_xi": 1.0}),
                                    "rho must lie in [0, 1], got -1.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exit_1(tmp_path, instance_dir, capsys, case):
    break_manifest, config_text, message = BAD_INPUTS[case]
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


BAD_RUN_FLAGS = {
    "delay-bound-nan": ["--delay-bound", "nan"],
    "delay-bound-inf": ["--delay-bound", "inf"],
    "tol-nan": ["--tol", "nan"],
    "t-max-inf": ["--t-max", "inf"],
    "spacing-nan": ["--trigger", "global", "--spacing", "nan"],
    "xi-nan": ["--rho", "0.5", "--xi", "nan"],
    "rho-negative": ["--rho", "-1"],
    "rho-nan": ["--rho", "nan"],
    "lam-square-underflows": ["--lam", "1e-170"],
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_FLAGS))
def test_cli_run_bad_value_exit_1(tmp_path, instance_dir, capsys, case):
    out = tmp_path / "out"
    assert run_cli("run", "--instance", str(instance_dir), "--out", str(out),
                   *BAD_RUN_FLAGS[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (out / "events.csv").exists()


BAD_SWEEP_VALUES = {
    "values-not-numbers": ["--axis", "lambda", "--values", "a,b"],
    "values-empty": ["--axis", "lambda", "--values", ""],
    "xi-values-not-numbers": ["--axis", "failure", "--values", "0.5", "--xi-values", "x"],
    "interval-nan": ["--axis", "interval", "--values", "nan"],
    "interval-fraction": ["--axis", "interval", "--values", "2,2.5"],
    "agents-nan": ["--axis", "agents", "--values", "nan"],
    "neighbors-nan": ["--axis", "neighbors", "--values", "0.5,nan"],
    "neighbors-negative": ["--axis", "neighbors", "--values", "-0.5"],
    "neighbors-zero": ["--axis", "neighbors", "--values", "0"],
    "neighbors-over-one": ["--axis", "neighbors", "--values", "5"],
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_VALUES))
def test_cli_sweep_bad_values_exit_1(tmp_path, instance_dir, capsys, case):
    out = tmp_path / "out"
    assert run_cli("sweep", "--instance", str(instance_dir), "--reps", "1", "--out", str(out),
                   *BAD_SWEEP_VALUES[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (out / "metrics.csv").exists()


NEGATIVE_SEEDS = {
    "gen": ["gen", "--m", "30", "--n", "8", "--seed", "-1"],
    "run-seed": ["run", "--seed", "-1"],
    "run-topology-seed": ["run", "--topology-seed", "-1"],
    "run-config-seed": ["run", "--config", "{config}"],
    "sweep": ["sweep", "--axis", "interval", "--values", "2", "--reps", "1", "--seed", "-1"],
    "certify": ["certify", "--seed", "-1"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEEDS))
def test_cli_negative_seed_exit_1(tmp_path, instance_dir, capsys, case):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": -1}))
    command, *rest = [arg.format(config=config) for arg in NEGATIVE_SEEDS[case]]
    if command in ("run", "sweep"):
        rest += ["--instance", str(instance_dir)]
    out = tmp_path / "out"
    assert run_cli(command, *rest, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_run_gram_not_positive_definite_exit_1(tmp_path, capsys):
    # two equal rows: lam^2 = 1e-300 is lost against A_J A_J^T
    inst = problems.from_arrays(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([3.0, 3.0]), 1)
    problems.save(inst, tmp_path / "inst")
    out = tmp_path / "out"
    assert run_cli("run", "--instance", str(tmp_path / "inst"), "--lam", "1e-150",
                   "--block-size", "2", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive definite" in err
    assert err.count("\n") == 1
    assert not (out / "events.csv").exists()


def test_cli_run_gram_overflow_exit_1(tmp_path, capsys):
    # a 6x4 block scaled by 1e160: A_J A_J^T + lambda^2 I overflows
    A = 1e160 * np.random.default_rng(5).normal(size=(6, 4))
    problems.save(problems.from_arrays(A, A @ np.ones(4), 1), tmp_path / "inst")
    out = tmp_path / "out"
    assert run_cli("run", "--instance", str(tmp_path / "inst"), "--lam", "1",
                   "--block-size", "6", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err
    assert err.count("\n") == 1
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_cli_run_scaled_block_converges(tmp_path, capsys, scale):
    # a consistent 6x4 block whose sigma^2 would underflow or overflow: one
    # projection solves it
    A = scale * np.random.default_rng(5).normal(size=(6, 4))
    inst = problems.from_arrays(A, A @ np.ones(4), 1)
    problems.save(inst, tmp_path / "inst")
    out = tmp_path / "out"
    assert run_cli("run", "--instance", str(tmp_path / "inst"), "--block-size", "6",
                   "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("converged: k_iter=1.0")
    with open(out / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["e_stop"]) <= 1e-14


def test_cli_report_without_metrics_columns_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("cell,rep,value\n0,0,1.5\n")
    assert run_cli("report", "--metrics", str(bad), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'seed'" in err and "'k_iter'" in err


NOT_UTF8 = b"cell,rep,seed\n\xff\xfe\x00\x81\n"


def unreadable_file(tmp_path, case):
    """A directory where a file is expected, or a file that is not UTF-8."""
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(NOT_UTF8)
    return path


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["report", "run"])
def test_cli_unreadable_input_exit_1(tmp_path, instance_dir, capsys, command, case):
    path = unreadable_file(tmp_path, case)
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--metrics", str(path), "--out", str(out)]
    else:
        argv = ["run", "--instance", str(instance_dir), "--config", str(path), "--out", str(out)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "report.csv").exists() and not (out / "events.csv").exists()


def test_non_utf8_input_raises_kaczsim_errors(tmp_path):
    path = unreadable_file(tmp_path, "not-utf8")
    with pytest.raises(IoError, match="not a metrics CSV"):
        harness.write_report_csv(path, tmp_path / "report.csv")
    args = cli.build_parser().parse_args(["run", "--instance", "x", "--config", str(path)])
    with pytest.raises(InvalidParameter, match="not valid JSON"):
        cli._resolve_options(args)


@pytest.mark.parametrize("name", ["b", "x_planted", "x_star"])
def test_cli_non_finite_vector_exit_1(tmp_path, instance_dir, capsys, name):
    inst_dir = tmp_path / "inst"
    shutil.copytree(instance_dir, inst_dir)
    path = inst_dir / f"{name}.txt"
    values = path.read_text().splitlines()
    values[3] = "nan"
    path.write_text("\n".join(values) + "\n")
    assert run_cli("run", "--instance", str(inst_dir), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name}.txt" in err and err.count("\n") == 1


def test_shard_data_of_an_older_directory_cannot_disagree(tmp_path, instance_dir):
    """Directories written before shards became views of (A, b) also hold a
    shard list and one b file per shard; load ignores both, so overlapping
    rows and an edited shard file reach no agent."""
    inst_dir = tmp_path / "inst"
    shutil.copytree(instance_dir, inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    b = (inst_dir / "b.txt").read_text().splitlines()
    manifest.update(m=40, n=10, shards=[])
    for i, (start, stop) in enumerate([(0, 10), (0, 10), (20, 30), (30, 40)]):
        values = b[start:stop]
        if i == 0:
            values[0] = "123.0"
        (inst_dir / f"shard_{i:02d}_b.txt").write_text("\n".join(values) + "\n")
        manifest["shards"].append({"rows": [start, stop], "b": f"shard_{i:02d}_b.txt"})
    (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    inst = problems.load(inst_dir)
    cfg = harness.build_sim_config(inst, fast_options())
    assert all(np.shares_memory(a.b, inst.b) for a in cfg.agents)
    assert np.array_equal(np.concatenate([a.rows for a in cfg.agents]), np.arange(inst.m))


@pytest.mark.parametrize("lam", ["0", "1"], ids=["consistent", "regularized"])
def test_cli_run_diverged(tmp_path, instance_dir, capsys, monkeypatch, lam):
    build = harness.build_sim_config

    def huge_init(inst, opts):
        cfg = build(inst, opts)
        return dataclasses.replace(cfg, init=[np.full(cfg.agents[0].dim, 1e308)] * len(cfg.agents))

    monkeypatch.setattr(harness, "build_sim_config", huge_init)
    out = tmp_path / "out"
    code = run_cli("run", "--instance", str(instance_dir), "--lam", lam, "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("stopped (diverged): ")
    assert "Traceback" not in captured.err
    assert "RuntimeWarning" not in captured.err
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
