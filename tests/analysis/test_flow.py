"""Tests for the whole-program flow analyzer (RG101–RG105).

The core contract is mutation-style: every rule has a checked-in *bad*
fixture that must produce findings at exactly the ``# expect: RGxxx``
marked lines, and a corrected *good* twin that must analyze clean. A
rule that stops firing on its bad fixture (or starts firing on the good
one) fails here before it silently stops guarding the real tree.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.analysis.flow import (
    ENGINE_RULES,
    FLOW_RULES,
    FLOW_RULE_DESCRIPTIONS,
    analyze_paths,
    analyze_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"

# RG101/RG102/RG105 are path-scoped to fl//defenses round logic, so their
# fixtures analyze under a synthetic fl/ path; the protocol rules are
# path-insensitive.
SYNTHETIC_PATH = {
    "rg101": "src/repro/fl/{stem}.py",
    "rg102": "src/repro/fl/{stem}.py",
    "rg103": "{stem}_proto.py",
    "rg104": "{stem}_ckpt.py",
    "rg105": "src/repro/fl/{stem}.py",
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

    def test_every_flow_rule_has_a_fixture_pair(self):
        for rule in FLOW_RULES:
            d = FIXTURES / rule.lower()
            assert (d / "bad.py").is_file(), f"missing {rule} bad fixture"
            assert (d / "good.py").is_file(), f"missing {rule} good fixture"


class TestRuleMetadata:
    def test_descriptions_cover_all_rules(self):
        assert FLOW_RULES <= set(FLOW_RULE_DESCRIPTIONS)
        assert "RG100" in FLOW_RULE_DESCRIPTIONS  # reporting-pipeline rule

    def test_rule_selection(self):
        source = (FIXTURES / "rg104" / "bad.py").read_text()
        none = analyze_source(source, path="ckpt.py", rules=["RG103"])
        assert none == []
        some = analyze_source(source, path="ckpt.py", rules=["RG104"])
        assert {f.rule for f in some} == {"RG104"}


class TestDataflowPrecision:
    """Targeted behaviors of the abstract interpretation itself."""

    def test_branch_join_is_ambiguous(self):
        findings = analyze_source(
            "import numpy as np\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def f(seed, fast):\n"
            "    if fast:\n"
            "        rng = np.random.default_rng()\n"
            "    else:\n"
            "        rng = np.random.default_rng(seed)\n"
            "    run_round(rng)\n",
            path="src/repro/fl/m.py",
        )
        assert len(findings) == 1
        assert "ambiguously seeded" in findings[0].message

    def test_origin_is_named_in_message(self):
        findings = analyze_source(
            "import numpy as np\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def f():\n"
            "    rng = np.random.default_rng()\n"
            "    run_round(rng)\n",
            path="src/repro/fl/m.py",
        )
        assert len(findings) == 1
        assert "m.py:5" in findings[0].message

    def test_interprocedural_factory_return(self):
        # The unseeded stream is constructed inside a factory; only the
        # return-summary propagation can see it reach round logic.
        findings = analyze_source(
            "import numpy as np\n"
            "def make_stream():\n"
            "    return np.random.default_rng()\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def f():\n"
            "    rng = make_stream()\n"
            "    run_round(rng)\n",
            path="src/repro/fl/m.py",
        )
        assert [f.rule for f in findings] == ["RG101"]

    def test_interprocedural_parameter_summary(self):
        # The unseeded stream enters round logic through a helper's
        # parameter, two calls deep.
        findings = analyze_source(
            "import numpy as np\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def helper(rng):\n"
            "    run_round(rng)\n"
            "def f():\n"
            "    helper(np.random.default_rng())\n",
            path="src/repro/fl/m.py",
        )
        assert "RG101" in {f.rule for f in findings}

    def test_seeded_stream_is_silent(self):
        findings = analyze_source(
            "import numpy as np\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def f(seed):\n"
            "    run_round(np.random.default_rng(seed))\n",
            path="src/repro/fl/m.py",
        )
        assert findings == []

    def test_sorted_launders_order(self):
        findings = analyze_source(
            "def f(ids):\n"
            "    return list(sorted({i for i in ids}))\n",
            path="src/repro/fl/m.py",
        )
        assert findings == []

    def test_rules_only_fire_inside_round_logic_paths(self):
        source = (
            "import numpy as np\n"
            "def run_round(rng):\n"
            "    return rng\n"
            "def f():\n"
            "    run_round(np.random.default_rng())\n"
        )
        outside = analyze_source(source, path="src/repro/models/m.py")
        assert outside == []
        inside = analyze_source(source, path="src/repro/defenses/m.py")
        assert [f.rule for f in inside] == ["RG101"]

    def test_rg105_is_package_round_logic_only(self):
        # RG105 judges the iterating module itself: a tests/fl/ file is
        # not round logic even though one of its path parts is `fl`.
        source = (FIXTURES / "rg105" / "bad.py").read_text()
        inside = analyze_source(source, path="src/repro/fl/x.py")
        assert {f.rule for f in inside} == {"RG105"}
        assert len(inside) == 5
        assert analyze_source(source, path="tests/fl/test_x.py") == []


class TestProtocolScoping:
    def test_payload_discriminator_is_not_a_message_tag(self):
        # ref[0] on a plain parameter must not register dispatch branches:
        # a helper that branches on a payload's first field is not a
        # receiver of the module's message tags.
        findings = analyze_source(
            "import pickle\n"
            "def resolve(ref):\n"
            "    if ref[0] == 'shm':\n"
            "        return ref[1]\n"
            "    return ref[2]\n"
            "def send(conn):\n"
            "    conn.send(('payload', 1))\n",
            path="proto.py",
            rules=["RG103"],
        )
        assert findings == []

    def test_send_only_module_is_out_of_scope(self):
        findings = analyze_source(
            "def f(conn):\n"
            "    conn.send(('orphan', 1))\n",
            path="proto.py",
            rules=["RG103"],
        )
        assert findings == []

    def test_reply_status_check_is_not_a_receiver(self):
        # A sender that checks its reply's status tag dispatches on no tag
        # the module sends, so its receiver lives elsewhere: out of scope,
        # not "ok" as a dead arm plus two unhandled requests.
        findings = analyze_source(
            "import pickle\n"
            "\n"
            "\n"
            "def probe(conn):\n"
            "    conn.send_bytes(pickle.dumps(('snapshot',)))\n"
            "    status, payload = pickle.loads(conn.recv_bytes())\n"
            "    assert status == 'ok'\n"
            "    conn.send_bytes(pickle.dumps(('close',)))\n"
            "    return payload\n",
            path="proto.py",
            rules=["RG103"],
        )
        assert findings == []

    def test_local_name_collision_does_not_dispatch(self):
        # `kind` is a dispatch variable inside the worker only; an
        # unrelated local of the same name elsewhere must not register
        # its comparisons as protocol branches.
        findings = analyze_source(
            "import pickle\n"
            "def worker(conn):\n"
            "    msg = conn.recv()\n"
            "    kind = msg[0]\n"
            "    if kind == 'fit':\n"
            "        conn.send(('ok', 1))\n"
            "def driver(conn):\n"
            "    conn.send(('fit', 1))\n"
            "    status, payload = conn.recv()\n"
            "    if status == 'ok':\n"
            "        return payload\n"
            "def make_backend(config):\n"
            "    kind = config.backend\n"
            "    if kind == 'sequential':\n"
            "        return 1\n"
            "    return 2\n",
            path="proto.py",
            rules=["RG103"],
        )
        assert findings == []


class TestCheckpointScoping:
    def test_dynamic_reader_suppresses_written_direction(self):
        findings = analyze_source(
            "def federation_state(server):\n"
            "    return {'round': 1, 'weights': 2}\n"
            "def restore_federation(state):\n"
            "    for key in state:\n"
            "        print(key)\n",
            path="ckpt.py",
            rules=["RG104"],
        )
        assert findings == []

    def test_method_pair_scoped_per_class(self):
        findings = analyze_source(
            "class A:\n"
            "    def state_dict(self):\n"
            "        return {'x': self.x}\n"
            "    def load_state_dict(self, state):\n"
            "        self.x = state['x']\n"
            "class B:\n"
            "    def state_dict(self):\n"
            "        return {'y': self.y}\n"
            "    def load_state_dict(self, state):\n"
            "        self.y = state['y']\n",
            path="ckpt.py",
            rules=["RG104"],
        )
        assert findings == []


class TestRealTreeIsClean:
    def test_src_tree_has_no_flow_findings(self):
        # The engine runs the concurrency domain too, whose audited sites
        # carry noqa markers, so pipe raw findings through the
        # suppression layer the CLI applies before reporting. Markers for
        # lint rules (RG006, RG206) belong to a pass that did not run.
        from repro.analysis import reporting

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = analyze_paths([src])
        sources = {str(p): p.read_text() for p in sorted(src.rglob("*.py"))}
        assert reporting.apply_suppressions(
            findings, sources, active_rules=ENGINE_RULES
        ) == []


class TestResultCache:
    def test_cache_round_trip(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n"
            "def federation_state(s):\n"
            "    return {'a': 1}\n"
            "def restore_federation(state):\n"
            "    return state['b']\n"
        )
        cache = tmp_path / "cache"
        first = analyze_paths([mod], cache_dir=cache)
        assert {f.rule for f in first} == {"RG104"}
        assert list(cache.glob("*.json")), "cache entry not written"
        second = analyze_paths([mod], cache_dir=cache)
        assert [vars(f) for f in second] == [vars(f) for f in first]

    def test_cache_invalidated_by_edit(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "def federation_state(s):\n"
            "    return {'a': 1}\n"
            "def restore_federation(state):\n"
            "    return state['b']\n"
        )
        cache = tmp_path / "cache"
        assert analyze_paths([mod], cache_dir=cache) != []
        mod.write_text(
            "def federation_state(s):\n"
            "    return {'a': 1}\n"
            "def restore_federation(state):\n"
            "    return state['a']\n"
        )
        assert analyze_paths([mod], cache_dir=cache) == []
