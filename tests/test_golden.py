"""Golden-trace corpus: bit-for-bit digests of small end-to-end runs.

Each case in golden/corpus.json names a generated instance and a run
configuration, a config document (RunOptions fields by name) read by
harness.options_from_document.  The test reruns it through
harness.run_single and compares SHA-256 digests of the event log, the run
metrics and the final agent states with the recorded ones, so any change
that moves a single float or event of a run fails here.  The digests hold
for one numpy/OpenBLAS build and CPU kernel family; another BLAS may round
the block products differently in the last bit.

A digest is re-recorded only together with a CHANGES.md entry giving the
reason and the largest drift in x (and y).  To re-record some or all cases,
printing which of each case's events, metrics and states digests changed:

    PYTHONPATH=src python tests/test_golden.py [--parent DIR] [case ...]

With --parent, each case also runs under DIR/src (a checkout of the parent
commit) in a subprocess, and the largest |dx| and |dy| between the final
states of the two runs are printed beside the changed digests.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kaczsim import agents, harness, problems
from kaczsim.engine import MetricsRecord

CORPUS = Path(__file__).parent / "golden" / "corpus.json"


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text())


def run_case(case: dict):
    inst = problems.generate(problems.ProblemSpec(**case["instance"]))
    return harness.run_single(inst, harness.options_from_document(case["options"]))


def digests(result) -> dict[str, str]:
    """SHA-256 of the event log, the metrics and the final states of a run."""
    events = hashlib.sha256()
    for ev in result.log:
        events.update(f"{ev.time!r}\t{ev.kind}\t{ev.agent}\t{ev.detail}\n".encode())
    metrics = hashlib.sha256(result.stop_reason.encode())
    for name in MetricsRecord.NUMERIC_FIELDS:
        metrics.update(f"\t{name}={float(getattr(result.metrics, name))!r}".encode())
    states = hashlib.sha256()
    for st in result.states:
        states.update(st.x.tobytes())
        if st.y is not None:
            states.update(st.y.tobytes())
        states.update(f"k={st.k};".encode())
    return {"events": events.hexdigest(), "metrics": metrics.hexdigest(),
            "states": states.hexdigest()}


@pytest.mark.parametrize("name", sorted(load_corpus()))
def test_golden_digests(name):
    case = load_corpus()[name]
    assert digests(run_case(case)) == case["digests"]


@pytest.mark.parametrize("name", ["sparse_consistent_cycle_every_k_all",
                                  "sparse_regularized_iid_every_k_all"])
def test_sparse_cases_take_the_compressed_path(name, monkeypatch):
    # these cases pin narrow blocks: every block's rows have entries on fewer
    # than n/2 columns, so each A_J is much narrower than the shard
    plan_blocks, wide = agents.plan_blocks, []

    def recording(A, blocks):
        planned = plan_blocks(A, blocks)
        wide.extend(2 * len(cols) >= A.shape[1] for cols, _ in planned)
        return planned

    monkeypatch.setattr(agents, "plan_blocks", recording)
    run_case(load_corpus()[name])
    assert wide and not any(wide)


def test_parent_drift_of_the_package_against_itself_is_zero():
    # the --parent tooling, pointed at this checkout: a regularized case, so
    # that both x and y are compared
    name = "failure_full_regularized_global_first"
    case = load_corpus()[name]
    parent = states_under(Path(harness.__file__).parents[1], {name: case})
    assert drift(name, run_case(case), parent) == "|dx| 0, |dy| 0"


# Runs the cases given on stdin under the kaczsim on PYTHONPATH and saves
# their final states to the .npz file named by argv[1].
_SAVE_STATES = """
import json, sys
import numpy as np
from kaczsim import harness, problems
from kaczsim.harness import RunOptions
states = {}
for name, case in json.load(sys.stdin).items():
    inst = problems.generate(problems.ProblemSpec(**case["instance"]))
    for i, st in enumerate(harness.run_single(inst, RunOptions(**case["options"])).states):
        states[f"{name}.x{i}"] = st.x
        if st.y is not None:
            states[f"{name}.y{i}"] = st.y
np.savez(sys.argv[1], **states)
"""


def states_under(src: Path, cases: dict) -> dict[str, np.ndarray]:
    """Final states of the cases run with the kaczsim package in src, keyed
    "case.x<agent>" and "case.y<agent>"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "states.npz"
        subprocess.run([sys.executable, "-c", _SAVE_STATES, str(path)], input=json.dumps(cases),
                       text=True, check=True, cwd=tmp, env={**os.environ, "PYTHONPATH": str(src)})
        with np.load(path) as saved:
            return dict(saved)


def drift(name: str, result, parent: dict[str, np.ndarray]) -> str:
    """The largest |dx| and |dy| between a run's final states and the parent's."""
    def worst(part: str) -> str:
        d = [np.max(np.abs(vec - parent[f"{name}.{part}{i}"]), initial=0.0)
             for i, vec in enumerate(getattr(st, part) for st in result.states) if vec is not None]
        return f"|d{part}| {max(d):.2g}" if d else f"|d{part}| -"
    return f"{worst('x')}, {worst('y')}"


def record(names: list[str], parent: Path | None = None) -> None:
    """Re-record the named cases (all when none is named), printing for each
    which of its digests changed and, given a parent checkout, its drift."""
    corpus = load_corpus()
    names = names or sorted(corpus)
    before = states_under(parent / "src", {n: corpus[n] for n in names}) if parent else None
    for name in names:
        result = run_case(corpus[name])
        old, new = corpus[name]["digests"], digests(result)
        changed = [kind for kind in new if old.get(kind) != new[kind]]
        corpus[name]["digests"] = new
        note = f"; {drift(name, result, before)}" if before is not None else ""
        print(f"recorded {name}: {', '.join(changed) or 'none'} changed{note}")
    CORPUS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    parent = None
    if args[:1] == ["--parent"]:
        parent, args = Path(args[1]).resolve(), args[2:]
    record(args, parent)
