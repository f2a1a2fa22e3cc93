"""Equivalence pins for the shared frontend.

Sharing one parsed ``(Program, SemanticInfo)`` between the golden model,
the in-process cells, mutation and lint must not change a single result.
These pins were generated before the sharing existed and must hold
unchanged after it:

* the SHA-256 of ``CampaignReport.to_dict()`` (without ``elapsed_s``) for
  the two guided campaigns the ``fuzz_guided`` benchmark runs;
* the SHA-256 of the ``mutants()`` of every suite kernel at two seeds;
* serial (shared frontend) and parallel (one parse per worker) runs of
  the whole suite agree on every ``CellResult.identity()``.

Regenerate ``tests/golden/frontend_pins.json`` with
``PYTHONPATH=src python tests/test_frontend_pins.py`` only together with
a deliberate, documented change of campaign or mutation results.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz import FuzzOptions, mutants, run_campaign
from repro.runner import MatrixEngine
from repro.workloads import WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "frontend_pins.json"

#: ``seed_base = campaign_seed`` of the pinned campaigns.
CAMPAIGN_WINDOWS = (0, 8)
MUTANT_SEEDS = (0, 1)


def _sha(data) -> str:
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digest(window: int) -> str:
    report = run_campaign(FuzzOptions(
        coverage=True, reduce=False, cache_dir="", seeds=8, jobs=1,
        seed_base=window, campaign_seed=window,
    ))
    data = report.to_dict()
    data.pop("elapsed_s")
    return _sha(data)


def mutants_digest(source: str, seed: int) -> str:
    return _sha([[m.name, m.index, m.source]
                 for m in mutants(source, seed=seed)])


def _compute():
    return {
        "campaigns": {str(w): campaign_digest(w) for w in CAMPAIGN_WINDOWS},
        "mutants": {
            f"{w.name}/{seed}": mutants_digest(w.source, seed)
            for w in WORKLOADS for seed in MUTANT_SEEDS
        },
    }


PINNED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("window", CAMPAIGN_WINDOWS)
def test_guided_campaign_report_is_pinned(window):
    assert campaign_digest(window) == PINNED["campaigns"][str(window)]


def test_every_suite_kernel_mutant_set_is_pinned():
    expected = {f"{w.name}/{seed}" for w in WORKLOADS for seed in MUTANT_SEEDS}
    assert set(PINNED["mutants"]) == expected


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_suite_kernel_mutants_are_pinned(workload):
    for seed in MUTANT_SEEDS:
        assert (mutants_digest(workload.source, seed)
                == PINNED["mutants"][f"{workload.name}/{seed}"])


def test_serial_and_parallel_suite_identities_agree():
    serial = MatrixEngine(jobs=1).run_suite()
    parallel = MatrixEngine(jobs=2).run_suite()
    assert [r.identity() for r in serial] == [r.identity() for r in parallel]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
