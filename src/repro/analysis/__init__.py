"""Correctness tooling for the FedGuard reproduction.

Complementary verification layers (see ``docs/static_analysis.md``):

* :mod:`repro.analysis.lint` — repo-specific AST rules (RG001–RG007,
  RG206);
* :mod:`repro.analysis.flow` — whole-program dataflow and concurrency
  rules (RG101–RG105, RG301, RG303–RG305);
* :mod:`repro.analysis.gradcheck` — finite-difference verification of
  every hand-written backward pass in :mod:`repro.nn`;
* :mod:`repro.analysis.contracts` — runtime shape/dtype/no-mutation
  contracts, enabled with ``REPRO_CHECK_CONTRACTS=1``.

Run all of them with ``python -m repro.analysis`` (or ``repro analyze``).

This ``__init__`` stays import-light on purpose: :mod:`repro.nn.functional`
and every defense module import :mod:`repro.analysis.contracts` at import
time, so pulling heavyweight submodules (gradcheck needs :mod:`repro.nn`,
the runtime audit needs :mod:`repro.experiments`) here would create import
cycles. Those are loaded lazily via ``__getattr__``.
"""

from __future__ import annotations

from .contracts import (
    ContractViolation,
    aggregate_contract,
    array_contract,
    client_batched,
    contracts_enabled,
    shape_oracle_report,
    shape_recording_enabled,
    verify_aggregate,
)
from .lint import ALL_RULES, RULE_DESCRIPTIONS, Finding, lint_paths, lint_source

__all__ = [
    "ContractViolation",
    "aggregate_contract",
    "array_contract",
    "client_batched",
    "contracts_enabled",
    "shape_oracle_report",
    "shape_recording_enabled",
    "verify_aggregate",
    "Finding",
    "ALL_RULES",
    "RULE_DESCRIPTIONS",
    "lint_paths",
    "lint_source",
    # lazily loaded:
    "run_gradcheck",
    "enumerate_checkables",
    "GradcheckResult",
    "GRADCHECK_SPECS",
    "run_contracts_audit",
    "ContractAuditResult",
    "main",
]

_LAZY = {
    "run_gradcheck": "gradcheck",
    "enumerate_checkables": "gradcheck",
    "GradcheckResult": "gradcheck",
    "GRADCHECK_SPECS": "gradcheck",
    "run_contracts_audit": "runtime",
    "ContractAuditResult": "runtime",
    "main": "cli",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), name)
