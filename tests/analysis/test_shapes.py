"""Tests for the RG200 shape/dtype/client-axis abstract interpreter.

Mirror of ``test_flow.py`` for the second abstract domain: every RG200
rule has a *bad* fixture that must fire at exactly the ``# expect:``
marked lines and a *good* twin that must analyze clean, plus unit tests
for the lattices, the runtime shape oracle (``REPRO_RECORD_SHAPES=1``),
the real-tree invariant, and content-keyed cache invalidation.
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
from repro.analysis.flow import (
    SHAPE_RULES,
    SHAPE_RULE_DESCRIPTIONS,
    analyze_paths,
    analyze_source,
)
from repro.analysis.flow.shapes import ArrayVal, Batch, Dim, DType

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "shapes"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# RG202/RG203 are scoped to the hot directories (nn, defenses, fl) and
# RG204 to round logic (defenses, fl), so each fixture analyzes under a
# synthetic path inside the directory its rule guards.
SYNTHETIC_PATH = {
    "rg201": "src/repro/nn/{stem}.py",
    "rg202": "src/repro/fl/{stem}.py",
    "rg203": "src/repro/defenses/{stem}.py",
    "rg204": "src/repro/defenses/{stem}.py",
    "rg205": "src/repro/nn/{stem}.py",
    "rg206": "src/repro/fl/{stem}.py",
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RG\d+)")


def _expected_markers(source: str) -> list[tuple[str, int]]:
    out = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        for m in _EXPECT_RE.finditer(text):
            out.append((m.group(1), lineno))
    return sorted(out)


def _analyze_fixture(rule_dir: str, stem: str):
    path = FIXTURES / rule_dir / f"{stem}.py"
    source = path.read_text()
    synthetic = SYNTHETIC_PATH[rule_dir].format(stem=stem)
    return source, analyze_source(source, path=synthetic)


class TestFixtureTwins:
    @pytest.mark.parametrize("rule_dir", sorted(SYNTHETIC_PATH))
    def test_bad_fixture_fires_at_expected_lines(self, rule_dir):
        source, findings = _analyze_fixture(rule_dir, "bad")
        expected = _expected_markers(source)
        assert expected, f"fixture {rule_dir}/bad.py has no expect markers"
        got = sorted((f.rule, f.line) for f in findings)
        assert got == expected
        assert all(f.rule == rule_dir.upper() for f in findings)

    @pytest.mark.parametrize("rule_dir", sorted(SYNTHETIC_PATH))
    def test_good_twin_is_clean(self, rule_dir):
        _source, findings = _analyze_fixture(rule_dir, "good")
        assert findings == []

    def test_every_shape_rule_has_a_fixture_pair(self):
        for rule in SHAPE_RULES:
            d = FIXTURES / rule.lower()
            assert (d / "bad.py").is_file(), f"missing {rule} bad fixture"
            assert (d / "good.py").is_file(), f"missing {rule} good fixture"


class TestRuleMetadata:
    def test_rules_and_descriptions_agree(self):
        assert SHAPE_RULES == frozenset(SHAPE_RULE_DESCRIPTIONS)
        assert all(r.startswith("RG2") for r in SHAPE_RULES)

    def test_scoping_excludes_test_trees(self):
        # The same bad source under tests/ must not fire: fixtures and
        # benchmarks legitimately write shape-mangling code.
        source = (FIXTURES / "rg202" / "bad.py").read_text()
        assert analyze_source(source, path="tests/fl/bad.py") == []


class TestLattices:
    def test_dim_join(self):
        three = Dim(value=3)
        assert three.join(Dim(value=3)) == three
        assert three.join(Dim(value=4)) == Dim.TOP
        n = Dim(sym="n")
        assert n.join(Dim(sym="n")) == n
        assert n.join(Dim(sym="m")) == Dim.TOP
        assert n.join(three) == Dim.TOP
        assert three.concrete and not n.concrete and not Dim.TOP.concrete

    def test_dtype_join(self):
        assert DType.UNKNOWN.join(DType.F64) == DType.F64
        assert DType.F64.join(DType.UNKNOWN) == DType.F64
        assert DType.F64.join(DType.F64) == DType.F64
        assert DType.F32.join(DType.F64) == DType.TOP

    def test_batch_join(self):
        assert Batch.UNKNOWN.join(Batch.CARRIES) == Batch.CARRIES
        assert Batch.CARRIES.join(Batch.CARRIES) == Batch.CARRIES
        assert Batch.CARRIES.join(Batch.DROPPED) == Batch.TOP

    def test_arrayval_bottom_is_join_identity(self):
        v = ArrayVal(
            kind="array",
            shape=(Dim(value=2), Dim(value=3)),
            dtype=DType.F64,
            batch=Batch.CARRIES,
        )
        assert ArrayVal.BOTTOM.join(v) == v
        assert v.join(ArrayVal.BOTTOM) == v

    def test_arrayval_joins_shapes_elementwise(self):
        a = ArrayVal(kind="array", shape=(Dim(value=2), Dim(value=3)))
        b = ArrayVal(kind="array", shape=(Dim(value=2), Dim(value=5)))
        joined = a.join(b)
        assert joined.shape == (Dim(value=2), Dim.TOP)

    def test_arrayval_rank_mismatch_loses_shape(self):
        a = ArrayVal(kind="array", shape=(Dim(value=2),))
        b = ArrayVal(kind="array", shape=(Dim(value=2), Dim(value=3)))
        assert a.join(b).shape is None

    def test_arrayval_join_is_monotone_in_dtype_and_batch(self):
        a = ArrayVal(kind="array", dtype=DType.F64, batch=Batch.CARRIES)
        b = ArrayVal(kind="array", dtype=DType.F32, batch=Batch.UNKNOWN)
        joined = a.join(b)
        assert joined.dtype == DType.TOP
        assert joined.batch == Batch.CARRIES


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
        # runs with recording on and the report must agree with the static
        # summaries everywhere.
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
        # The RG204 batched-engine migration is done: the RG200 pass over
        # the real tree is clean with no suppression markers left — every
        # per-client loop is either batched or an audited @loop_fallback.
        src = REPO_ROOT / "src" / "repro"
        findings = analyze_paths([src], rules=SHAPE_RULES)
        sources = {str(p): p.read_text() for p in sorted(src.rglob("*.py"))}
        # RG206's legitimately-eager sites (the partition schemes in
        # repro.data.partition) carry audited noqa[RG206] suppressions;
        # stale ones surface as RG100.
        # Every other rule must be raw-clean.
        assert all(f.rule == "RG206" for f in findings)
        assert reporting.apply_suppressions(
            findings, sources, active_rules=SHAPE_RULES
        ) == []
        assert "noqa[RG204]" not in "".join(
            source for path, source in sources.items()
            if "analysis" not in path
        )


class TestResultCacheShapes:
    def _write(self, tmp_path, body):
        mod = tmp_path / "fl" / "m.py"
        mod.parent.mkdir(exist_ok=True)
        mod.write_text(body)
        return mod

    def test_cache_round_trip_and_invalidation(self, tmp_path):
        cache = tmp_path / "cache"
        mod = self._write(
            tmp_path,
            "import numpy as np\n\n\ndef f(n):\n    return np.zeros(n)\n",
        )
        first = analyze_paths([mod], cache_dir=cache)
        assert {f.rule for f in first} == {"RG202"}
        assert list(cache.glob("*.json")), "cache entry not written"
        assert analyze_paths([mod], cache_dir=cache) == first
        # Fixing the allocator changes the content hash: the stale entry
        # must not resurrect the finding.
        self._write(
            tmp_path,
            "import numpy as np\n\n\n"
            "def f(n):\n    return np.zeros(n, dtype=np.float64)\n",
        )
        assert analyze_paths([mod], cache_dir=cache) == []


class TestDtypeDiscipline:
    """Runtime twins of the RG202 fixes: the previously un-dtyped hot-path
    allocations now produce float64 end to end."""

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
