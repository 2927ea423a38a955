"""Whole-program dataflow analysis for the FedGuard reproduction.

The :mod:`repro.analysis.lint` rules are single-file pattern matchers;
this package sees the *whole* ``src/repro`` tree at once:

* :mod:`.project` — a project symbol table and import graph over every
  analyzed module;
* :mod:`.cfg` — per-function control-flow graphs;
* :mod:`.dataflow` — a forward dataflow pass tracking the provenance of
  ``numpy.random.Generator`` values (seeded-at-construction vs. unseeded
  vs. derived-from-stream) and the orderedness of collections, across
  assignments, calls, and attribute storage — interprocedurally, via
  call-site parameter summaries iterated to a fixpoint;
* :mod:`.rules` / :mod:`.protocol` — the RG100-series rule family built
  on top of those facts;
* :mod:`.concurrency` — a second domain over the same project model:
  event-heap tie-break keys, checkpoint coverage of mutable mode/backend
  state, schedule-tainted RNG draws, and shared-memory lifecycles (the
  RG300-series rules guarding the async/parallel determinism seams);
* :mod:`.engine` — the driver: build the project, run the rules, cache
  results keyed on source content hashes.

Public API: :func:`analyze_paths` and :func:`analyze_source` return
:class:`repro.analysis.lint.Finding` objects, exactly like the linter,
so both route through the same reporting pipeline
(:mod:`repro.analysis.reporting`).
"""

from .concurrency import CONCURRENCY_RULES, CONCURRENCY_RULE_DESCRIPTIONS
from .engine import (
    ENGINE_RULES,
    FLOW_RULES,
    FLOW_RULE_DESCRIPTIONS,
    analyze_paths,
    analyze_source,
)

__all__ = [
    "CONCURRENCY_RULES",
    "CONCURRENCY_RULE_DESCRIPTIONS",
    "ENGINE_RULES",
    "FLOW_RULES",
    "FLOW_RULE_DESCRIPTIONS",
    "analyze_paths",
    "analyze_source",
]
