"""Golden-trace corpus: bit-for-bit digests of small end-to-end runs.

Each case in golden/corpus.json names a generated instance and a run
configuration (RunOptions fields).  The test reruns it through
harness.run_single and compares SHA-256 digests of the event log, the run
metrics and the final agent states with the recorded ones, so any change
that moves a single float or event of a run fails here.  The digests hold
for one numpy/OpenBLAS build and CPU kernel family; another BLAS may round
the block products differently in the last bit.

A digest is re-recorded only together with a CHANGES.md entry giving the
reason and the largest drift in x (and y).  To re-record some or all cases,
printing which of each case's events, metrics and states digests changed:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from kaczsim import harness, problems
from kaczsim.engine import MetricsRecord
from kaczsim.harness import RunOptions

CORPUS = Path(__file__).parent / "golden" / "corpus.json"


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text())


def run_case(case: dict):
    inst = problems.generate(problems.ProblemSpec(**case["instance"]))
    return harness.run_single(inst, RunOptions(**case["options"]))


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


def record(names: list[str]) -> None:
    """Re-record the named cases (all when none is named), printing for each
    which of its digests changed."""
    corpus = load_corpus()
    for name in names or sorted(corpus):
        old, new = corpus[name]["digests"], digests(run_case(corpus[name]))
        changed = [kind for kind in new if old.get(kind) != new[kind]]
        corpus[name]["digests"] = new
        print(f"recorded {name}: {', '.join(changed) or 'none'} changed")
    CORPUS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
