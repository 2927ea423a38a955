"""Tests for the shared reporting pipeline and the analyze CLI contract.

Covers: ``# repro: noqa[...]`` suppressions (honored + unused flagged as
RG100), baseline round-trip with line-number drift, output formats
(json envelope, SARIF 2.1.0 structure), dedup, and the CLI exit-code
contract (0 clean / 1 findings / 2 usage error).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import reporting
from repro.analysis.cli import main
from repro.analysis.lint import Finding


def _finding(rule="RG101", path="m.py", line=2, col=0, message="boom"):
    return Finding(rule, path, line, col, message)


class TestDedup:
    def test_one_finding_per_path_line_rule(self):
        a = _finding(message="first")
        b = _finding(message="second")
        c = _finding(line=3)
        assert reporting.dedup([a, b, c]) == [a, c]


class TestSuppressions:
    def test_matching_suppression_is_honored(self):
        source = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[RG101]\n"
        out = reporting.apply_suppressions([_finding()], {"m.py": source})
        assert out == []

    def test_suppression_requires_matching_code(self):
        source = "x = 1\ny = 2  # repro: noqa[RG105]\n"
        f = _finding()
        out = reporting.apply_suppressions([f], {"m.py": source})
        # The RG101 finding survives AND the RG105 suppression is unused.
        assert {o.rule for o in out} == {"RG101", "RG100"}

    def test_unused_suppression_becomes_rg100(self):
        source = "x = 1  # repro: noqa[RG103]\n"
        out = reporting.apply_suppressions([], {"m.py": source})
        assert [o.rule for o in out] == ["RG100"]
        assert out[0].line == 1
        assert "RG103" in out[0].message

    def test_multiple_codes(self):
        source = "x = 1\ny = 2  # repro: noqa[RG101, RG105]\n"
        out = reporting.apply_suppressions(
            [_finding(), _finding(rule="RG105")], {"m.py": source}
        )
        assert out == []

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""docs say # repro: noqa[RG101] here"""\nx = 1\n'
        out = reporting.apply_suppressions([], {"m.py": source})
        assert out == []

    def test_inactive_rule_suppression_is_not_stale(self):
        # A `noqa[RG301]` marker on a run where the concurrency pass was
        # skipped is neither used nor stale: flagging it as RG100 would
        # punish partial runs for markers a full run needs.
        source = "self.cache = build()  # repro: noqa[RG301]\n"
        out = reporting.apply_suppressions(
            [], {"m.py": source}, active_rules={"RG101", "RG105"}
        )
        assert out == []
        # The same marker on a run that *did* execute RG301 is stale.
        out = reporting.apply_suppressions(
            [], {"m.py": source}, active_rules={"RG301"}
        )
        assert [o.rule for o in out] == ["RG100"]


class TestBaseline:
    def test_round_trip_filters_accepted_findings(self, tmp_path):
        source = "a = 1\nb = unseeded()\n"
        f = _finding()
        baseline_path = tmp_path / "baseline.json"
        reporting.write_baseline([f], {"m.py": source}, baseline_path)
        baseline = reporting.load_baseline(baseline_path)
        assert reporting.apply_baseline([f], baseline, {"m.py": source}) == []

    def test_matches_survive_line_drift(self, tmp_path):
        source = "a = 1\nb = unseeded()\n"
        baseline_path = tmp_path / "baseline.json"
        reporting.write_baseline(
            [_finding(line=2)], {"m.py": source}, baseline_path
        )
        baseline = reporting.load_baseline(baseline_path)
        # Two lines inserted above: same content, new line number.
        drifted = "import x\nimport y\na = 1\nb = unseeded()\n"
        moved = _finding(line=4)
        assert reporting.apply_baseline([moved], baseline, {"m.py": drifted}) == []

    def test_edited_line_invalidates_entry(self, tmp_path):
        source = "a = 1\nb = unseeded()\n"
        baseline_path = tmp_path / "baseline.json"
        reporting.write_baseline(
            [_finding(line=2)], {"m.py": source}, baseline_path
        )
        baseline = reporting.load_baseline(baseline_path)
        edited = "a = 1\nb = unseeded(now_different=True)\n"
        f = _finding(line=2)
        assert reporting.apply_baseline([f], baseline, {"m.py": edited}) == [f]

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = reporting.load_baseline(tmp_path / "nope.json")
        f = _finding()
        assert reporting.apply_baseline([f], baseline, {}) == [f]

    def test_preserved_entries_survive_rewrite(self, tmp_path):
        source = "a = 1\nb = unseeded()\n"
        baseline_path = tmp_path / "baseline.json"
        flow = _finding(rule="RG101", line=2)
        concurrency = _finding(rule="RG301", line=1)
        reporting.write_baseline(
            [flow, concurrency], {"m.py": source}, baseline_path
        )
        kept = [
            e for e in reporting.load_baseline(baseline_path).entries.values()
            if e["rule"] == "RG301"
        ]
        # A partial rewrite (only the flow finding re-observed) carries
        # the concurrency entry forward instead of clobbering it.
        reporting.write_baseline(
            [flow], {"m.py": source}, baseline_path, preserved=kept
        )
        baseline = reporting.load_baseline(baseline_path)
        assert {e["rule"] for e in baseline.entries.values()} == {
            "RG101", "RG301",
        }


class TestFormats:
    def test_text(self):
        out = reporting.format_findings([_finding()], fmt="text")
        assert out == "m.py:2:1: RG101 boom"

    def test_json_envelope(self):
        doc = json.loads(reporting.format_findings([_finding()], fmt="json"))
        assert doc["version"] == reporting.JSON_SCHEMA_VERSION
        assert doc["findings"] == [
            {"rule": "RG101", "path": "m.py", "line": 2, "col": 0,
             "message": "boom"}
        ]

    def test_sarif_structure(self):
        doc = json.loads(
            reporting.format_findings(
                [_finding()], fmt="sarif", descriptions={"RG101": "desc"}
            )
        )
        # Structural validation against the SARIF 2.1.0 shape (no
        # jsonschema dependency: assert the required spine directly).
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        assert {"id": "RG101", "shortDescription": {"text": "desc"}} in driver["rules"]
        (result,) = run["results"]
        assert result["ruleId"] == "RG101"
        assert result["level"] == "error"
        assert result["message"]["text"] == "boom"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "m.py"
        assert loc["region"] == {"startLine": 2, "startColumn": 1}

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            reporting.format_findings([], fmt="xml")


_STATIC = ["--skip", "gradcheck", "--skip", "contracts", "--no-cache"]


class TestCliExitCodes:
    def _clean_file(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text("import numpy as np\n\n\ndef f(seed):\n    return np.random.default_rng(seed)\n")
        return p

    def _dirty_file(self, tmp_path):
        p = tmp_path / "dirty.py"
        p.write_text("import numpy as np\nx = np.random.rand(3)\n")
        return p

    def test_exit_0_on_clean_tree(self, tmp_path, capsys):
        assert main(_STATIC + [str(self._clean_file(tmp_path))]) == 0
        assert "static: 0 finding(s)" in capsys.readouterr().out

    def test_exit_1_on_findings(self, tmp_path, capsys):
        assert main(_STATIC + [str(self._dirty_file(tmp_path))]) == 1
        assert "RG001" in capsys.readouterr().out

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert main(_STATIC + [str(tmp_path / "nope.py")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_2_on_unknown_rule(self, tmp_path, capsys):
        path = self._clean_file(tmp_path)
        assert main(_STATIC + ["--rules", "RG999", str(path)]) == 2
        assert "unknown rules" in capsys.readouterr().err

    def test_baseline_workflow(self, tmp_path, capsys):
        dirty = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = _STATIC + ["--baseline", str(baseline), str(dirty)]
        assert main(argv + ["--write-baseline"]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        # Accepted debt no longer fails the run...
        assert main(argv) == 0
        # ...unless the baseline is ignored.
        assert main(argv + ["--no-baseline"]) == 1

    def test_machine_readable_output(self, tmp_path, capsys):
        dirty = self._dirty_file(tmp_path)
        assert main(_STATIC + ["--format", "json", str(dirty)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "RG001"

    def test_output_file(self, tmp_path, capsys):
        dirty = self._dirty_file(tmp_path)
        out = tmp_path / "report.sarif"
        assert main(
            _STATIC + ["--format", "sarif", "--output", str(out), str(dirty)]
        ) == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]


# One lint finding (RG001) and one flow finding (RG104: a checkpoint
# key written but never restored).
_LINT_AND_FLOW = (
    "import numpy as np\n"
    "Y = np.random.rand(3)\n"
    "def federation_state(s):\n"
    "    return {'a': 1}\n"
    "def restore_federation(state):\n"
    "    return state['b']\n"
)


class TestPassSelection:
    def _clean_file(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text("x = 1\n")
        return p

    def _mixed_file(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(_LINT_AND_FLOW)
        return p

    def test_unknown_pass_is_a_usage_error(self, tmp_path, capsys):
        path = self._clean_file(tmp_path)
        assert main(["--passes", "shape", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown pass(es): shape" in err
        assert "lint, flow, concurrency, gradcheck, contracts" in err

    def test_retired_shapes_pass_is_a_usage_error(self, tmp_path, capsys):
        path = self._clean_file(tmp_path)
        assert main(["--passes", "shapes", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown pass(es): shapes" in err
        assert "valid passes: lint, flow, concurrency, gradcheck, contracts" in err

    def test_lint_only_rules_skip_the_engine(self, tmp_path, capsys):
        # RG206 is a lint rule: selecting it alone must not run (or
        # cache) the whole-program engine.
        path = self._clean_file(tmp_path)
        cache = tmp_path / "cache"
        argv = _STATIC[:-1] + ["--rules", "RG206", "--cache-dir", str(cache),
                               "--stats", str(path)]
        assert main(argv) == 0
        assert "engine cache: off" in capsys.readouterr().out
        assert not list(cache.glob("*.json"))

    def test_passes_selects_positively(self, tmp_path, capsys):
        # A flow-only run fires RG104 but not the lint rules.
        target = self._mixed_file(tmp_path)
        assert main(["--passes", "flow", "--no-cache", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RG104" in out and "RG001" not in out

    def test_skip_still_subtracts(self, tmp_path, capsys):
        target = self._mixed_file(tmp_path)
        argv = ["--passes", "flow", "--skip", "flow", "--no-cache",
                str(target)]
        assert main(argv) == 0

    def test_partial_write_baseline_preserves_other_passes(self, tmp_path, capsys):
        # One file with both a lint finding (RG001) and a flow finding
        # (RG104); baselining passes separately must not clobber.
        target = self._mixed_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        base = ["--no-cache", "--baseline", str(baseline), str(target)]
        assert main(["--passes", "flow", "--write-baseline"] + base) == 0
        assert main(["--passes", "lint", "--write-baseline"] + base) == 0
        rules = {
            e["rule"]
            for e in json.loads(baseline.read_text())["findings"]
        }
        assert rules == {"RG001", "RG104"}
        # With both entries accepted, the full static run is clean.
        capsys.readouterr()
        assert main(_STATIC + base) == 0


class TestStats:
    """The ``--stats`` line and the ``--write-baseline`` summary."""

    def _dirty_file(self, tmp_path):
        p = tmp_path / "dirty.py"
        p.write_text("import numpy as np\nx = np.random.rand(3)\n")
        return p

    def test_stats_flag_reports_per_pass_counts(self, tmp_path, capsys):
        path = self._dirty_file(tmp_path)
        assert main(_STATIC + ["--stats", str(path)]) == 1
        out = capsys.readouterr().out
        assert "stats: " in out
        # The lint pass owns RG001; every other selected pass is zero.
        assert "lint=1" in out
        assert "flow=0" in out
        assert "concurrency=0" in out
        assert "shapes" not in out
        assert "engine cache: off" in out
        assert "1 file(s)" in out

    def test_stats_line_is_opt_in(self, tmp_path, capsys):
        path = self._dirty_file(tmp_path)
        assert main(_STATIC + [str(path)]) == 1
        assert "stats: " not in capsys.readouterr().out

    def test_write_baseline_reports_summary_and_stats(self, tmp_path, capsys):
        path = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = _STATIC + ["--baseline", str(baseline), "--write-baseline",
                          str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "baseline: accepted 1 finding(s) (0 preserved)" in out
        assert str(baseline) in out
        # The summary always carries the stats line: a baseline write is
        # exactly where you want to see what each pass contributed.
        assert "stats: " in out
        assert "lint=1" in out

    def test_stats_reports_engine_cache_miss_then_hit(self, tmp_path, capsys):
        path = self._dirty_file(tmp_path)
        cache = tmp_path / "cache"
        argv = ["--skip", "gradcheck", "--skip", "contracts",
                "--cache-dir", str(cache), "--stats", str(path)]
        assert main(argv) == 1
        assert "engine cache: miss" in capsys.readouterr().out
        assert main(argv) == 1
        assert "engine cache: hit" in capsys.readouterr().out


class TestPerDirectoryScoping:
    """RG005/RG006 guard the package source only; tests and benchmarks
    legitimately build narrow arrays and check byte math."""

    _NARROW = 'import numpy as np\nX = np.zeros(3, dtype="float32")\n'

    def test_src_only_rule_fires_under_src(self, tmp_path, capsys):
        target = tmp_path / "pkg" / "nn" / "m.py"
        target.parent.mkdir(parents=True)
        target.write_text(self._NARROW)
        assert main(_STATIC + [str(target)]) == 1
        assert "RG005" in capsys.readouterr().out

    def test_src_only_rule_silent_under_tests(self, tmp_path, capsys):
        target = tmp_path / "tests" / "nn" / "m.py"
        target.parent.mkdir(parents=True)
        target.write_text(self._NARROW)
        assert main(_STATIC + [str(target)]) == 0
        assert "static: 0 finding(s)" in capsys.readouterr().out
