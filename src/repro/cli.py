"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the registered strategies and attack scenarios.
``run``
    Run one (strategy, scenario) federation and print/persist its history.
``matrix``
    Run a strategy × scenario matrix, persisting each cell.
``table4`` / ``table5`` / ``fig4`` / ``fig5``
    Regenerate the paper's tables/figures — from persisted results where
    available (``--results DIR``), running the federations otherwise.
``analyze``
    Run the correctness tooling (AST lint + gradcheck + runtime contract
    audit); arguments are forwarded to ``python -m repro.analysis``.

Examples
--------
::

    python -m repro run --strategy fedguard --scenario sign_flipping_50
    python -m repro matrix --out results/ --rounds 10
    python -m repro table4 --results results/
    python -m repro table5
    python -m repro fig5 --rounds 10
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .config import (
    BACKEND_KINDS,
    CHANNEL_KINDS,
    ENGINE_KINDS,
    PARTITION_SCHEMES,
    SERVER_MODES,
    FederationConfig,
)
from .experiments import (
    SCENARIO_FACTORIES,
    STRATEGY_FACTORIES,
    ascii_series,
    fig4_series,
    fig5_series,
    paper_scenario_names,
    paper_strategy_names,
    run_cell,
    run_matrix,
    series_to_csv,
    table4,
    table5,
    table5_analytic,
)
from .experiments.storage import load_matrix, save_history, save_manifest, save_matrix
from .fl.modes import STALENESS_WEIGHTS

__all__ = ["main", "build_parser"]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=["scaled", "tiny"], default="scaled",
                        help="base configuration: 'scaled' (default, minutes "
                             "per run) or 'tiny' (seconds, for quick trials)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="federated rounds (default: config's)")
    parser.add_argument("--clients", type=int, default=None,
                        help="number of clients N")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--server-lr", type=float, default=None)
    parser.add_argument("--channel", choices=CHANNEL_KINDS, default=None,
                        help="transport channel (default: in_memory — "
                             "lossless, the paper's testbed)")
    parser.add_argument("--drop-prob", type=float, default=None,
                        help="lossy channel: per-message drop probability")
    parser.add_argument("--latency-base", type=float, default=None,
                        help="latency channel: fixed per-message seconds")
    parser.add_argument("--bandwidth", type=float, default=None,
                        help="latency channel: link bytes/second (0 = infinite)")
    parser.add_argument("--backend", choices=BACKEND_KINDS, default=None,
                        help="client execution backend (default: sequential; "
                             "'process' = worker-resident pool)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process backend: worker count (default: cpu count)")
    parser.add_argument("--engine", choices=ENGINE_KINDS, default=None,
                        help="local-training engine (default: loop; 'batched' "
                             "stacks all sampled clients into one leading-axis "
                             "pass — bit-identical histories, fewer Python "
                             "dispatches)")
    parser.add_argument("--partition", choices=PARTITION_SCHEMES, default=None,
                        help="data partition scheme (default: dirichlet; "
                             "'virtual' derives each client's sample draw "
                             "lazily per index — the only scheme that scales "
                             "past the sample pool)")
    parser.add_argument("--virtual-samples", type=int, default=None,
                        help="virtual partition: samples drawn per client "
                             "(0 = pool size / N)")
    parser.add_argument("--retries", type=int, default=None,
                        help="re-send attempts after a failed broadcast/submit "
                             "(default: 0 — a drop is final)")
    parser.add_argument("--backoff", type=float, default=None,
                        help="simulated seconds of backoff before retry k: "
                             "backoff * 2^(k-1)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="straggler deadline on the simulated round-trip "
                             "link time; late submits count as drops (0 = off)")
    parser.add_argument("--min-quorum", type=int, default=None,
                        help="skip the round (holding the global model) when "
                             "fewer updates arrive (0 = aggregate whatever came)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="checkpoint the full federation every k rounds "
                             "(0 = off; requires --checkpoint)")
    parser.add_argument("--server-mode", choices=SERVER_MODES, default=None,
                        help="round mode (default: sync barrier rounds; "
                             "'async' = FedBuff-style buffered aggregation — "
                             "each round flushes the first --buffer-size "
                             "arrivals, staleness-discounted)")
    parser.add_argument("--buffer-size", type=int, default=None,
                        help="async: arrivals aggregated per flush "
                             "(0 = clients_per_round; implies --server-mode async)")
    parser.add_argument("--max-staleness", type=int, default=None,
                        help="async: drop updates trained against a model more "
                             "than this many flushes old (0 = keep all; "
                             "implies --server-mode async)")
    parser.add_argument("--staleness-weight", default=None,
                        choices=sorted(STALENESS_WEIGHTS),
                        help="async: staleness discount schedule "
                             "(default: rsqrt = 1/sqrt(1+s); "
                             "implies --server-mode async)")


def _clients(n: int) -> dict:
    """``--clients N``: N clients, half of them per round, 240 samples each."""
    return {"n_clients": n, "clients_per_round": max(n // 2, 2),
            "train_samples": n * 240}


# Each config flag's argparse dest: the field its value sets (or a function
# returning the fields), and the setting it implies. An explicit flag beats
# an implied setting; of two implied settings the earlier flag's wins.
_CONFIG_FLAGS = {
    "rounds": ("rounds", {}),
    "clients": (_clients, {}),
    "server_lr": ("server_lr", {}),
    "channel": ("channel", {}),
    "drop_prob": ("channel_drop_prob", {"channel": "lossy"}),
    "latency_base": ("channel_latency_base_s", {"channel": "latency"}),
    "bandwidth": ("channel_bytes_per_s", {"channel": "latency"}),
    "backend": ("backend", {}),
    "workers": ("backend_workers", {"backend": "process"}),
    "engine": ("engine", {}),
    "partition": ("partition_scheme", {}),
    "virtual_samples": ("virtual_samples_per_client", {"partition_scheme": "virtual"}),
    "retries": ("retries", {}),
    "backoff": ("retry_backoff_s", {}),
    "deadline": ("deadline_s", {}),
    "min_quorum": ("min_quorum", {}),
    "checkpoint_every": ("checkpoint_every", {}),
    "server_mode": ("server_mode", {}),
    "buffer_size": ("buffer_size", {"server_mode": "async"}),
    "max_staleness": ("max_staleness", {"server_mode": "async"}),
    "staleness_weight": ("staleness_weight", {"server_mode": "async"}),
}


def _config_from_args(args) -> FederationConfig:
    overrides: dict = {"seed": args.seed}
    implied: dict = {}
    for dest, (field, implies) in _CONFIG_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        overrides.update(field(value) if callable(field) else {field: value})
        for name, setting in implies.items():
            implied.setdefault(name, setting)
    base = (
        FederationConfig.tiny
        if getattr(args, "profile", "scaled") == "tiny"
        else FederationConfig.paper_scaled
    )
    return base(**{**implied, **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FedGuard reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list strategies and scenarios")

    run_p = sub.add_parser("run", help="run one federation")
    run_p.add_argument("--strategy", required=True, choices=sorted(STRATEGY_FACTORIES))
    run_p.add_argument("--scenario", required=True, choices=sorted(SCENARIO_FACTORIES))
    run_p.add_argument("--save", type=pathlib.Path, default=None,
                       help="write the history JSON here")
    run_p.add_argument("--checkpoint", type=pathlib.Path, default=None,
                       help="federation checkpoint file, written every "
                            "--checkpoint-every rounds")
    run_p.add_argument("--resume", type=pathlib.Path, default=None,
                       help="resume from a federation checkpoint file "
                            "(strategy/scenario/config come from the "
                            "checkpoint)")
    run_p.add_argument("--verbose", action="store_true")
    _add_config_args(run_p)

    matrix_p = sub.add_parser("matrix", help="run a strategy x scenario matrix")
    matrix_p.add_argument("--strategies", nargs="*", default=None,
                          help="default: the paper's five")
    matrix_p.add_argument("--scenarios", nargs="*", default=None,
                          help="default: the paper's five")
    matrix_p.add_argument("--out", type=pathlib.Path, required=True)
    _add_config_args(matrix_p)

    t4_p = sub.add_parser("table4", help="reproduce Table IV")
    t4_p.add_argument("--results", type=pathlib.Path, default=None,
                      help="directory of persisted histories (else: run)")
    _add_config_args(t4_p)

    t5_p = sub.add_parser("table5", help="reproduce Table V (analytic + measured)")
    t5_p.add_argument("--results", type=pathlib.Path, default=None)
    _add_config_args(t5_p)

    f4_p = sub.add_parser("fig4", help="reproduce Fig. 4 curves")
    f4_p.add_argument("--results", type=pathlib.Path, default=None)
    f4_p.add_argument("--csv-dir", type=pathlib.Path, default=None)
    _add_config_args(f4_p)

    f5_p = sub.add_parser("fig5", help="reproduce Fig. 5 (server lr ablation)")
    f5_p.add_argument("--csv", type=pathlib.Path, default=None)
    _add_config_args(f5_p)

    from .analysis.cli import build_parser as build_analysis_parser

    sub.add_parser(
        "analyze",
        help="run the correctness tooling (AST lint + gradcheck + contracts)",
        parents=[build_analysis_parser()],
        add_help=False,
    )

    return parser


def _matrix_results(args):
    if getattr(args, "results", None):
        results = load_matrix(args.results)
        if not results:
            raise SystemExit(f"no persisted histories found in {args.results}")
        return results
    config = _config_from_args(args)
    return run_matrix(config, paper_strategy_names(), paper_scenario_names(),
                      verbose=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "analyze":
        from .analysis.cli import run as run_analysis

        return run_analysis(args)

    if args.command == "list":
        print("strategies:")
        for name in sorted(STRATEGY_FACTORIES):
            marker = "*" if name in paper_strategy_names() else " "
            print(f"  {marker} {name}")
        print("scenarios:")
        for name in sorted(SCENARIO_FACTORIES):
            marker = "*" if name in paper_scenario_names() else " "
            print(f"  {marker} {name}")
        print("(* = in the paper's evaluation tables)")
        return 0

    if args.command == "run":
        config = _config_from_args(args)
        if args.checkpoint is not None and config.checkpoint_every == 0:
            raise SystemExit("--checkpoint requires --checkpoint-every K (K > 0)")
        history = run_cell(
            config, args.strategy, args.scenario, verbose=args.verbose,
            checkpoint_path=args.checkpoint, resume_from=args.resume,
        )
        mean, std = history.tail_stats()
        detection = history.detection_summary()
        print(f"accuracies: {[round(a, 3) for a in history.accuracies]}")
        print(f"tail accuracy: {mean:.2%} ± {std:.2%}")
        print(f"detection: tpr={detection['tpr']:.2f} fpr={detection['fpr']:.2f}")
        if args.save:
            save_history(history, args.save)
            print(f"history written to {args.save}")
        return 0

    if args.command == "matrix":
        config = _config_from_args(args)
        strategies = args.strategies or paper_strategy_names()
        scenarios = args.scenarios or paper_scenario_names()
        results = run_matrix(config, strategies, scenarios, verbose=True)
        written = save_matrix(results, args.out)
        save_manifest(config, args.out)
        print(f"wrote {len(written)} histories (+ manifest.json) to {args.out}")
        return 0

    if args.command == "table4":
        _, md = table4(_matrix_results(args))
        print(md)
        return 0

    if args.command == "table5":
        _, analytic_md = table5_analytic()
        print("Analytic (paper scale, N=100/m=50, Table II/III models):\n")
        print(analytic_md)
        if getattr(args, "results", None):
            try:
                _, measured_md = table5(load_matrix(args.results))
                print("\nMeasured (simulation scale):\n")
                print(measured_md)
            except KeyError as exc:
                print(f"\n(measured table unavailable: {exc})")
        return 0

    if args.command == "fig4":
        panels = fig4_series(_matrix_results(args))
        for scenario, series in sorted(panels.items()):
            print("\n" + ascii_series(series, title=f"Fig. 4: {scenario}"))
            if args.csv_dir:
                args.csv_dir.mkdir(parents=True, exist_ok=True)
                (args.csv_dir / f"fig4_{scenario}.csv").write_text(series_to_csv(series))
        return 0

    if args.command == "fig5":
        config = _config_from_args(args)
        series = fig5_series(config)
        print(ascii_series(series, title="Fig. 5: FedGuard server learning rate"))
        if args.csv:
            args.csv.parent.mkdir(parents=True, exist_ok=True)
            args.csv.write_text(series_to_csv(series))
        return 0

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
