"""Tests for array shape and dtype discipline.

The runtime shape oracle (``REPRO_RECORD_SHAPES=1``), the float64
hot-path allocations, the real-tree batched-engine invariant (RG206,
now a lint rule, is clean modulo its audited partition sites) and the
content- and version-keyed engine result cache.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import reporting
from repro.analysis.contracts import (
    clear_shape_observations,
    record_shapes,
    shape_observations,
    shape_oracle_report,
)
from repro.analysis.flow import analyze_paths, engine
from repro.analysis.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture()
def clean_shape_log():
    clear_shape_observations()
    yield
    clear_shape_observations()


class TestShapeOracle:
    def test_round_trip_records_observation(self, clean_shape_log):
        @record_shapes
        def normalize(x):
            return x / x.sum(axis=1, keepdims=True)

        x = np.ones((4, 3), dtype=np.float64)
        normalize(x)
        (obs,) = shape_observations()
        assert obs.qualname.endswith("normalize")
        assert obs.arg_shapes == ((4, 3),)
        assert obs.arg_dtypes == ("float64",)
        assert obs.out_shape == (4, 3)
        report = shape_oracle_report()
        assert report["observations"] == 1
        assert report["disagreements"] == []

    def test_dropped_leading_axis_is_a_disagreement(self, clean_shape_log):
        @record_shapes
        def collapse(x):
            return x.mean(axis=0)

        collapse(np.ones((4, 3), dtype=np.float64))
        report = shape_oracle_report()
        assert len(report["disagreements"]) == 1
        assert "leading" in report["disagreements"][0]

    def test_f32_to_f64_widening_is_a_disagreement(self, clean_shape_log):
        @record_shapes
        def widen(x):
            return x + np.float64(1.0)

        widen(np.ones((2, 2), dtype=np.float32))
        report = shape_oracle_report()
        assert len(report["disagreements"]) == 1
        assert "float64" in report["disagreements"][0]

    def test_oracle_smoke_federation_has_zero_disagreements(self, tmp_path):
        # REPRO_RECORD_SHAPES is read at import time (so the decorator is
        # zero-overhead when off), hence the subprocess: a tiny federation
        # runs with recording on and every @client_batched call must keep
        # its declared invariants.
        script = (
            "import json\n"
            "from repro.analysis.contracts import (shape_oracle_report,\n"
            "                                      shape_recording_enabled)\n"
            "assert shape_recording_enabled()\n"
            "from repro.config import FederationConfig\n"
            "from repro.attacks.scenario import no_attack\n"
            "from repro.fl import run_federation\n"
            "from repro.defenses.fedavg import FedAvg\n"
            "run_federation(FederationConfig.tiny(), FedAvg(), no_attack())\n"
            "print(json.dumps(shape_oracle_report()))\n"
        )
        env = dict(os.environ)
        env["REPRO_RECORD_SHAPES"] = "1"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["observations"] > 0
        assert report["disagreements"] == []


class TestRealTreeShapeDiscipline:
    def test_batched_engine_migration_is_complete(self):
        # The batched engine needs no per-client escape hatch: no package
        # source carries a @loop_fallback marker or a suppression for the
        # retired RG201-RG205 rules, and the only eager O(n_clients)
        # enumerations (RG206) are the audited partition schemes in
        # repro.data.partition, every one of them suppressed.
        src = REPO_ROOT / "src" / "repro"
        findings = lint_paths([src], rules={"RG206"})
        sources = {str(p): p.read_text() for p in sorted(src.rglob("*.py"))}
        assert findings, "the audited RG206 partition sites went missing"
        assert {pathlib.Path(f.path).name for f in findings} == {"partition.py"}
        assert reporting.apply_suppressions(
            findings, sources, active_rules={"RG206"}
        ) == []
        retired = re.compile(r"noqa\[RG20[1-5]\]|@loop_fallback\b")
        assert not [
            path for path, source in sources.items()
            if "analysis" not in pathlib.Path(path).parts
            and retired.search(source)
        ]


class TestResultCacheShapes:
    def _write(self, tmp_path, body):
        mod = tmp_path / "fl" / "m.py"
        mod.parent.mkdir(exist_ok=True)
        mod.write_text(body)
        return mod

    def test_cache_round_trip_and_invalidation(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        mod = self._write(
            tmp_path,
            "def total(losses):\n"
            "    pool = set(losses)\n"
            "    return sum(pool)\n",
        )
        stats: dict = {}
        first = analyze_paths([mod], cache_dir=cache, stats=stats)
        assert {f.rule for f in first} == {"RG105"}
        assert stats["engine_cache"] == "miss"
        assert list(cache.glob("*.json")), "cache entry not written"
        assert analyze_paths([mod], cache_dir=cache, stats=stats) == first
        assert stats["engine_cache"] == "hit"
        # Fixing the reduction changes the content hash: the stale entry
        # must not resurrect the finding.
        self._write(
            tmp_path,
            "def total(losses):\n"
            "    pool = set(losses)\n"
            "    return sum(sorted(pool))\n",
        )
        assert analyze_paths([mod], cache_dir=cache, stats=stats) == []
        assert stats["engine_cache"] == "miss"
        # An entry written by another engine version is never replayed
        # (v4 added RG105's reduction sinks; a v3 entry would hide them).
        monkeypatch.setattr(engine, "ENGINE_VERSION", engine.ENGINE_VERSION - 1)
        assert analyze_paths([mod], cache_dir=cache, stats=stats) == []
        assert stats["engine_cache"] == "miss"


class TestDtypeDiscipline:
    """Hot-path allocations that once took NumPy's default dtype are
    pinned to float64 end to end."""

    def test_reputation_sampler_is_float64(self):
        from repro.fl.sampling import ReputationSampler

        sampler = ReputationSampler()
        rep = sampler.reputation(5)
        assert rep.dtype == np.float64
        chosen = sampler.sample(5, 3, np.random.default_rng(0))
        assert chosen.size == 3
        assert sampler.reputation(5).dtype == np.float64

    def test_geometric_median_default_weights_are_float64(self):
        from repro.defenses.geomed import geometric_median

        pts = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = geometric_median(pts)
        assert out.dtype == np.float64
