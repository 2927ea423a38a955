"""Positive/negative fixtures for every RG lint rule."""

import pathlib
import re
import textwrap

import pytest

from repro.analysis import reporting
from repro.analysis.cli import main
from repro.analysis.flow.project import collect_files
from repro.analysis.lint import ALL_RULES, RULE_DESCRIPTIONS, lint_paths, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_EXPECT_RE = re.compile(r"#\s*expect:\s*(RG\d+)")


def _lint(source, path="src/repro/some_module.py", **kwargs):
    return lint_source(textwrap.dedent(source), path, **kwargs)


def _reported(source, path="src/repro/some_module.py", **kwargs):
    """Lint findings left after the reporting pipeline's suppressions."""
    findings = _lint(source, path, **kwargs)
    return reporting.apply_suppressions(
        findings, {path: textwrap.dedent(source)}
    )


def _rules(findings):
    return [f.rule for f in findings]


class TestRG001LegacyRng:
    def test_flags_global_rng_call(self):
        findings = _lint("import numpy as np\nx = np.random.rand(3)\n")
        assert _rules(findings) == ["RG001"]
        assert "np.random.rand" in findings[0].message

    def test_flags_global_seed(self):
        assert _rules(_lint("import numpy as np\nnp.random.seed(0)\n")) == ["RG001"]

    def test_flags_legacy_from_import(self):
        assert _rules(_lint("from numpy.random import rand\n")) == ["RG001"]

    def test_allows_default_rng(self):
        source = """
        import numpy as np
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        """
        assert _lint(source) == []

    def test_allows_generator_classes(self):
        source = """
        import numpy as np
        from numpy.random import Generator, PCG64
        rng = Generator(np.random.PCG64(1))
        """
        assert _lint(source) == []


# A defense module skeleton: ``{body}`` is the aggregate() body.
_DEFENSE_TEMPLATE = """
import numpy as np

class Demo(Strategy):
    def aggregate(self, round_idx, updates, global_weights, context):
{body}
"""


def _lint_aggregate(body, path="src/repro/defenses/demo.py"):
    body = textwrap.indent(textwrap.dedent(body), " " * 8)
    return lint_source(
        _DEFENSE_TEMPLATE.format(body=body), path, rules=["RG002"]
    )


class TestRG002AggregateMutation:
    def test_flags_augassign_on_global_weights(self):
        findings = _lint_aggregate("global_weights += 1.0\nreturn global_weights")
        assert _rules(findings) == ["RG002"]

    def test_flags_slice_assignment_on_global_weights(self):
        findings = _lint_aggregate("global_weights[:] = 0.0\nreturn global_weights")
        assert _rules(findings) == ["RG002"]

    def test_flags_update_mutation_through_loop_var(self):
        body = """
        for u in updates:
            u.weights += 1.0
        return global_weights
        """
        assert _rules(_lint_aggregate(body)) == ["RG002"]

    def test_flags_mutation_through_alias(self):
        body = """
        for u in updates:
            vec = u.weights
            vec += 1.0
        return global_weights
        """
        assert _rules(_lint_aggregate(body)) == ["RG002"]

    def test_flags_mutating_method_call(self):
        body = """
        for u in updates:
            u.weights.sort()
        return global_weights
        """
        assert _rules(_lint_aggregate(body)) == ["RG002"]

    def test_flags_out_kwarg(self):
        body = """
        np.multiply(global_weights, 2.0, out=global_weights)
        return global_weights
        """
        assert _rules(_lint_aggregate(body)) == ["RG002"]

    def test_flags_np_add_at(self):
        body = """
        np.add.at(global_weights, [0], 1.0)
        return global_weights
        """
        assert _rules(_lint_aggregate(body)) == ["RG002"]

    def test_allows_operating_on_copies(self):
        body = """
        acc = global_weights.copy()
        acc += 1.0
        stacked = np.stack([u.weights for u in updates])
        stacked.sort(axis=0)
        return acc
        """
        assert _lint_aggregate(body) == []

    def test_allows_enumerate_counter_augassign(self):
        # ``i`` comes from enumerating the updates but is not client memory.
        body = """
        total = 0
        for i, u in enumerate(updates):
            i += 1
            total += i
        return global_weights.copy()
        """
        assert _lint_aggregate(body) == []

    def test_applies_outside_defenses_path_when_subclassing_strategy(self):
        source = _DEFENSE_TEMPLATE.format(
            body="        global_weights += 1.0\n        return global_weights"
        )
        findings = lint_source(source, "src/other/module.py", rules=["RG002"])
        assert _rules(findings) == ["RG002"]

    def test_ignores_non_strategy_class_outside_defenses(self):
        source = """
        class NotADefense:
            def aggregate(self, round_idx, updates, global_weights, context):
                global_weights += 1.0
        """
        assert _lint(source, path="src/other/module.py", rules=["RG002"]) == []


class TestRG003UnpairedForwardBackward:
    def test_flags_forward_only(self):
        source = """
        class Half(Module):
            def forward(self, x):
                return x
        """
        findings = _lint(source, rules=["RG003"])
        assert _rules(findings) == ["RG003"]
        assert "Half" in findings[0].message

    def test_flags_backward_only(self):
        source = """
        class Half(nn.Module):
            def backward(self, g):
                return g
        """
        assert _rules(_lint(source, rules=["RG003"])) == ["RG003"]

    def test_allows_paired_methods(self):
        source = """
        class Full(Module):
            def forward(self, x):
                return x
            def backward(self, g):
                return g
        """
        assert _lint(source, rules=["RG003"]) == []

    def test_allows_container_with_neither(self):
        source = """
        class Container(Module):
            def extra(self):
                return None
        """
        assert _lint(source, rules=["RG003"]) == []


class TestRG004Registry:
    def test_flags_defense_missing_from_module_all(self):
        source = """
        __all__ = ["other"]

        class Hidden(Strategy):
            pass
        """
        findings = _lint(source, path="src/repro/defenses/hidden.py", rules=["RG004"])
        assert _rules(findings) == ["RG004"]
        assert "__all__" in findings[0].message

    def test_flags_attack_missing_from_package_registry(self):
        source = """
        __all__ = ["NewAttack"]

        class NewAttack(ModelPoisoningAttack):
            pass
        """
        findings = lint_source(
            textwrap.dedent(source),
            "src/repro/attacks/new.py",
            rules=["RG004"],
            package_all={"attacks": {"SomeOtherAttack"}},
        )
        assert _rules(findings) == ["RG004"]
        assert "package registry" in findings[0].message

    def test_allows_fully_registered_class(self):
        source = """
        __all__ = ["Exported"]

        class Exported(Strategy):
            pass
        """
        findings = lint_source(
            textwrap.dedent(source),
            "src/repro/defenses/exported.py",
            rules=["RG004"],
            package_all={"defenses": {"Exported"}},
        )
        assert findings == []

    def test_ignores_private_and_out_of_scope_classes(self):
        source = """
        __all__ = []

        class _Internal(Strategy):
            pass
        """
        assert _lint(source, path="src/repro/defenses/x.py", rules=["RG004"]) == []
        # Same class outside defenses/attacks is out of scope entirely.
        public = "class Foo(Strategy):\n    pass\n"
        assert _lint(public, path="src/repro/other/x.py", rules=["RG004"]) == []

    def test_lint_paths_reads_package_registry_from_disk(self, tmp_path):
        pkg = tmp_path / "defenses"
        pkg.mkdir()
        (pkg / "__init__.py").write_text('__all__ = ["Registered"]\n')
        (pkg / "mod.py").write_text(
            '__all__ = ["Registered", "Forgotten"]\n\n'
            "class Registered(Strategy):\n    pass\n\n"
            "class Forgotten(Strategy):\n    pass\n"
        )
        findings = lint_paths([pkg], rules=["RG004"])
        assert _rules(findings) == ["RG004"]
        assert "Forgotten" in findings[0].message


class TestRG005NarrowDtypes:
    def test_flags_np_float32_in_nn(self):
        source = "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        findings = _lint(source, path="src/repro/nn/fast.py", rules=["RG005"])
        assert _rules(findings) == ["RG005"]

    def test_flags_string_dtype_and_astype(self):
        source = (
            "import numpy as np\n"
            'a = np.zeros(3, dtype="float32")\n'
            'b = a.astype("float16")\n'
        )
        findings = _lint(source, path="src/repro/nn/fast.py", rules=["RG005"])
        assert _rules(findings) == ["RG005", "RG005"]

    def test_allows_float64(self):
        source = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"
        assert _lint(source, path="src/repro/nn/fast.py", rules=["RG005"]) == []

    def test_scoped_to_nn_path(self):
        source = "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        assert _lint(source, path="src/repro/data/synth.py", rules=["RG005"]) == []


class TestRG006WireByteArithmetic:
    def test_flags_bare_name_multiplication(self):
        source = "nbytes = n_params * WIRE_BYTES_PER_PARAM\n"
        findings = _lint(source, path="src/repro/fl/server.py", rules=["RG006"])
        assert _rules(findings) == ["RG006"]
        assert "transport" in findings[0].message

    def test_flags_attribute_access_and_reversed_operands(self):
        source = (
            "from repro import nn\n"
            "a = nn.WIRE_BYTES_PER_PARAM * count\n"
            "b = count * nn.serialization.WIRE_BYTES_PER_PARAM\n"
        )
        findings = _lint(source, path="src/repro/experiments/tables.py",
                         rules=["RG006"])
        assert _rules(findings) == ["RG006", "RG006"]

    def test_transport_module_is_exempt(self):
        source = "nbytes = n_params * WIRE_BYTES_PER_PARAM\n"
        assert _lint(source, path="src/repro/fl/transport.py", rules=["RG006"]) == []

    def test_allows_non_multiplicative_uses(self):
        source = (
            "from repro.nn.serialization import WIRE_BYTES_PER_PARAM\n"
            "assert WIRE_BYTES_PER_PARAM == 4\n"
            "x = WIRE_BYTES_PER_PARAM + 1\n"
        )
        assert _lint(source, path="src/repro/fl/server.py", rules=["RG006"]) == []

    def test_noqa_suppresses_definition_site(self):
        source = "n = size * WIRE_BYTES_PER_PARAM  # repro: noqa[RG006]\n"
        path = "src/repro/nn/serialization.py"
        assert _rules(_lint(source, path=path, rules=["RG006"])) == ["RG006"]
        assert _reported(source, path=path, rules=["RG006"]) == []


class TestRG007WallClockInRoundLogic:
    def test_flags_time_time_in_fl_module(self):
        source = "import time\nstart = time.time()\n"
        findings = _lint(source, path="src/repro/fl/server.py", rules=["RG007"])
        assert _rules(findings) == ["RG007"]
        assert "simulated" in findings[0].message

    def test_flags_datetime_now(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        findings = _lint(source, path="src/repro/fl/faults.py", rules=["RG007"])
        assert _rules(findings) == ["RG007"]

    def test_flags_from_time_import(self):
        source = "from time import time\n"
        findings = _lint(source, path="src/repro/fl/client.py", rules=["RG007"])
        assert _rules(findings) == ["RG007"]

    def test_allows_perf_counter(self):
        """Durations (perf_counter/monotonic) are fine — they never feed
        round decisions, only reporting columns."""
        source = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "m = time.monotonic()\n"
        )
        assert _lint(source, path="src/repro/fl/server.py", rules=["RG007"]) == []

    def test_wall_clock_allowed_outside_fl(self):
        source = "import time\nstart = time.time()\n"
        assert _lint(source, path="src/repro/experiments/runner.py",
                     rules=["RG007"]) == []

    def test_noqa_suppresses(self):
        source = "import time\nstart = time.time()  # repro: noqa[RG007]\n"
        assert _reported(source, path="src/repro/fl/server.py",
                         rules=["RG007"]) == []


def _twin(stem):
    source = (FIXTURES / "rg206" / f"{stem}.py").read_text()
    return source, lint_source(source, "src/repro/fl/x.py", rules=["RG206"])


class TestRG206EagerEnumeration:
    def test_bad_twin_fires_at_expected_lines(self):
        source, findings = _twin("bad")
        expected = sorted(
            (m.group(1), lineno)
            for lineno, text in enumerate(source.splitlines(), start=1)
            for m in _EXPECT_RE.finditer(text)
        )
        assert len(expected) == 4
        assert sorted((f.rule, f.line) for f in findings) == expected

    def test_good_twin_is_clean(self):
        assert _twin("good")[1] == []

    def test_population_module_is_exempt(self):
        source = (FIXTURES / "rg206" / "bad.py").read_text()
        assert lint_source(source, "src/repro/fl/population.py",
                           rules=["RG206"]) == []

    def test_package_source_only(self, tmp_path, capsys):
        # Tests legitimately enumerate small federations: the CLI lints
        # the tests/ tree without RG206, as it does without RG005/RG006.
        target = tmp_path / "tests" / "fl" / "test_x.py"
        target.parent.mkdir(parents=True)
        target.write_text((FIXTURES / "rg206" / "bad.py").read_text())
        argv = ["--passes", "lint", "--rules", "RG206", str(target)]
        assert main(argv) == 0
        assert "static: 0 finding(s)" in capsys.readouterr().out


class TestNoqaAndDriver:
    def test_specific_noqa_suppresses(self):
        source = "import numpy as np\nx = np.random.rand(3)  # repro: noqa[RG001]\n"
        assert _reported(source) == []

    def test_bare_noqa_does_not_suppress(self):
        # The audited `# repro: noqa[...]` is the only suppression: a bare
        # or classic `# noqa` hides no RG finding, in lint or reporting.
        for comment in ("# noqa", "# noqa: RG001"):
            source = f"import numpy as np\nx = np.random.rand(3)  {comment}\n"
            assert _rules(_lint(source)) == ["RG001"]
            assert _rules(_reported(source)) == ["RG001"]

    def test_mismatched_noqa_does_not_suppress(self):
        source = "import numpy as np\nx = np.random.rand(3)  # repro: noqa[RG005]\n"
        # RG001 survives, and the unused RG005 marker is reported stale.
        assert _rules(_reported(source)) == ["RG001", "RG100"]

    def test_syntax_error_becomes_rg000(self):
        findings = _lint("def broken(:\n")
        assert _rules(findings) == ["RG000"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            _lint("x = 1\n", rules=["RG999"])

    def test_rule_filter_restricts_output(self):
        source = """
        import numpy as np
        np.random.seed(0)

        class Half(Module):
            def forward(self, x):
                return x
        """
        assert _rules(_lint(source, rules=["RG003"])) == ["RG003"]

    def test_descriptions_cover_all_rules(self):
        assert set(RULE_DESCRIPTIONS) == set(ALL_RULES)

    def test_finding_format_is_tool_style(self):
        finding = _lint("import numpy as np\nx = np.random.rand(3)\n")[0]
        path, line, col, rest = finding.format().split(":", 3)
        assert path.endswith(".py")
        assert int(line) == 2 and int(col) >= 1
        assert rest.strip().startswith("RG001")


def _suppressed(findings, trees, rules):
    """Findings left after the audited suppressions, as the CLI reports."""
    sources = {str(f): f.read_text() for f, _root in collect_files(trees)}
    return reporting.apply_suppressions(findings, sources, active_rules=rules)


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        # The raw lint output carries the audited `# repro: noqa[...]`
        # sites (RG006's definition site, RG206's partition schemes);
        # the reporting pipeline must consume every one of them.
        pkg_dir = REPO_ROOT / "src" / "repro"
        findings = _suppressed(lint_paths([pkg_dir]), [pkg_dir], ALL_RULES)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_out_of_src_trees_are_clean_under_scoped_rules(self):
        # benchmarks/, examples/ and tests/ are linted with the src-only
        # rules (RG005 narrow dtypes, RG006 wire-byte math, RG206 eager
        # enumeration) removed.
        trees = [
            REPO_ROOT / name for name in ("benchmarks", "examples", "tests")
            if (REPO_ROOT / name).is_dir()
        ]
        scoped = ALL_RULES - {"RG005", "RG006", "RG206"}
        findings = _suppressed(lint_paths(trees, rules=scoped), trees, scoped)
        assert findings == [], "\n".join(f.format() for f in findings)


class TestFileCollection:
    def test_fixture_directories_are_excluded(self, tmp_path):
        bad = "import numpy as np\nx = np.random.rand(3)\n"
        fixture = tmp_path / "fixtures" / "bad.py"
        fixture.parent.mkdir()
        fixture.write_text(bad)
        (tmp_path / "real.py").write_text(bad)
        # Directory walks skip fixtures/ (intentionally-buggy inputs)...
        findings = lint_paths([tmp_path])
        assert [f.path for f in findings] == [str(tmp_path / "real.py")]
        # ...but an explicitly named file is always linted.
        assert _rules(lint_paths([fixture])) == ["RG001"]
