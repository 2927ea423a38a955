"""Paper claims: the documented command reproduces the checked-in record.

Each cell reruns a FedGuard row of ``results/matrix.json`` through the
regeneration command ``EXPERIMENTS.md`` documents (``python -m repro matrix
--rounds 12``) and checks every per-round accuracy against the record. A
cell takes about a minute, so the suite is marked ``slow`` and runs in its
own CI job (``python -m pytest tests/claims -q -o addopts=``).
"""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.config import FederationConfig
from repro.experiments.storage import load_history

RECORD_PATH = pathlib.Path(__file__).parents[2] / "results" / "matrix.json"
SCENARIOS = ("label_flipping_30", "no_attack")


@pytest.fixture(scope="module")
def fedguard_histories(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    main([
        "matrix", "--rounds", "12", "--strategies", "fedguard",
        "--scenarios", *SCENARIOS, "--out", str(out),
    ])
    return {s: load_history(out / f"fedguard__{s}.json") for s in SCENARIOS}


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fedguard_row_matches_record(fedguard_histories, scenario):
    record = json.loads(RECORD_PATH.read_text())
    recorded = np.array(record[f"fedguard|{scenario}"]["acc"])
    measured = fedguard_histories[scenario].accuracies
    assert measured.shape == recorded.shape
    # Compare correct-prediction counts: every round within one test sample.
    n_test = FederationConfig.paper_scaled().test_samples
    off_by = np.abs(np.round(measured * n_test) - np.round(recorded * n_test))
    assert off_by.max() <= 1, (
        f"rounds {np.flatnonzero(off_by > 1) + 1} differ from the record: "
        f"measured {measured.round(4).tolist()} vs recorded {recorded.tolist()}"
    )
