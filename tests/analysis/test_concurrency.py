"""Tests for the RG300 concurrency/determinism verifier.

Mirror of ``test_flow.py`` for the second abstract domain: every RG300
rule has a *bad* fixture that must fire at exactly the ``# expect:``
marked lines and a *good* twin that must analyze clean, plus unit tests
for the runtime schedule adversary (``REPRO_CHECK_SCHEDULES=1``) and
the real-tree invariant (the pass is clean modulo audited noqas).
"""

from __future__ import annotations

import heapq
import pathlib
import re

import pytest

from repro.analysis import reporting
from repro.analysis.contracts import (
    ScheduleAdversary,
    disable_schedule_adversary,
    enable_schedule_adversary,
    schedule_adversary,
    schedule_checks_enabled,
)
from repro.analysis.flow import (
    CONCURRENCY_RULES,
    CONCURRENCY_RULE_DESCRIPTIONS,
    analyze_paths,
    analyze_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "concurrency"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# Every RG300 rule guards mode/backend round logic, so all fixtures
# analyze under a synthetic fl/ path.
SYNTHETIC_PATH = {
    "rg301": "src/repro/fl/{stem}.py",
    "rg302": "src/repro/fl/{stem}.py",
    "rg303": "src/repro/fl/{stem}.py",
    "rg304": "src/repro/fl/{stem}.py",
    "rg305": "src/repro/fl/{stem}.py",
}

# RG302 (unordered collection into a float reduction or heap push) is
# folded into RG105. Its twins stay as a regression pair: every site it
# caught must fire RG105, and its good twin must stay clean.
FOLDED_INTO = {"rg302": "RG105"}

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
        rule = FOLDED_INTO.get(rule_dir, rule_dir.upper())
        assert all(f.rule == rule for f in findings)

    @pytest.mark.parametrize("rule_dir", sorted(SYNTHETIC_PATH))
    def test_good_twin_is_clean(self, rule_dir):
        _source, findings = _analyze_fixture(rule_dir, "good")
        assert findings == []

    def test_every_concurrency_rule_has_a_fixture_pair(self):
        for rule in CONCURRENCY_RULES:
            d = FIXTURES / rule.lower()
            assert (d / "bad.py").is_file(), f"missing {rule} bad fixture"
            assert (d / "good.py").is_file(), f"missing {rule} good fixture"


class TestRuleMetadata:
    def test_rules_and_descriptions_agree(self):
        assert CONCURRENCY_RULES == frozenset(CONCURRENCY_RULE_DESCRIPTIONS)
        assert all(r.startswith("RG3") for r in CONCURRENCY_RULES)

    def test_scoping_excludes_test_trees(self):
        # The same bad sources under tests/ must not fire: harnesses and
        # fixtures legitimately write schedule-dependent code.
        for rule_dir in sorted(SYNTHETIC_PATH):
            source = (FIXTURES / rule_dir / "bad.py").read_text()
            assert analyze_source(source, path="tests/fl/bad.py") == []

    def test_scoping_excludes_non_round_logic(self):
        # RG300 guards fl/ and defenses/ round logic only: the identical
        # source under an unrelated src/ directory is out of scope.
        source = (FIXTURES / "rg305" / "bad.py").read_text()
        assert analyze_source(source, path="src/repro/data/bad.py") == []


class TestRealTreeConcurrencyDiscipline:
    def test_real_tree_is_clean_modulo_audited_noqas(self):
        # The RG300 pass over the real tree: the only raw findings are
        # the two audited sites (the transient CVAE rebuild and the
        # mode-owned sampler stream), both carrying noqa markers that
        # apply_suppressions honors — so --strict on an empty baseline
        # stays green.
        src = REPO_ROOT / "src" / "repro"
        findings = analyze_paths([src], rules=CONCURRENCY_RULES)
        sources = {str(p): p.read_text() for p in sorted(src.rglob("*.py"))}
        assert reporting.apply_suppressions(
            findings, sources, active_rules=CONCURRENCY_RULES
        ) == []

    def test_event_heap_entries_carry_seq_tiebreak(self):
        # Satellite audit: the async mode's heap push keeps the inline
        # (time, seq, kind, payload) tuple — RG305 proves the tie-break
        # statically, so the real tree needs no RG305 suppression.
        modes = (REPO_ROOT / "src" / "repro" / "fl" / "modes.py").read_text()
        assert "noqa[RG305]" not in modes


class TestScheduleAdversary:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_SCHEDULES", raising=False)
        assert not schedule_checks_enabled()

    def test_enable_disable_round_trip(self):
        try:
            adversary = enable_schedule_adversary(seed=3)
            assert schedule_adversary() is adversary
        finally:
            disable_schedule_adversary()
        assert schedule_adversary() is None

    def test_shuffle_heap_preserves_pop_order_with_total_order_keys(self):
        # The adversary is semantics-preserving exactly when entries
        # carry the (time, seq, ...) contract RG305 enforces: shuffling
        # then re-heapifying must never change pop order.
        entries = [
            (0.5, 0, "flush", None),
            (0.5, 1, "result", "a"),
            (0.1, 2, "result", "b"),
            (0.5, 3, "arrival", None),
            (0.1, 4, "flush", None),
        ]
        reference = sorted(entries)
        for seed in range(5):
            heap = list(entries)
            heapq.heapify(heap)
            ScheduleAdversary(seed=seed).shuffle_heap(heap)
            popped = [heapq.heappop(heap) for _ in range(len(entries))]
            assert popped == reference

    def test_permutation_is_a_bijection(self):
        adversary = ScheduleAdversary(seed=11)
        for n in (0, 1, 2, 7):
            order = adversary.permutation(n)
            assert sorted(order) == list(range(n))

    def test_adversary_is_deterministic_per_seed(self):
        a = ScheduleAdversary(seed=5).permutation(8)
        b = ScheduleAdversary(seed=5).permutation(8)
        assert a == b
