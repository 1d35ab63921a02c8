"""Command-line front end: network / neuron / dump-circuit / render."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    check_run_options,
    conditional_sweep,
    dump_circuit_text,
    neuron_sweep,
    parse_weight,
    parse_weights_option,
    render_pattern,
    results_to_csv,
    results_to_json,
    run_network_experiment,
    run_neuron_experiment,
    summarize_network_results,
)
from .network import DEFAULT_THRESHOLD


def _parse_noise(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--noise takes 'p01,p10'")
    return float(parts[0]), float(parts[1])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval", default="exact", choices=("exact", "sampled"), dest="evaluation")
    parser.add_argument("--shots", type=int, default=8192)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=_parse_noise, default=None, metavar="P01,P10")
    parser.add_argument("--mitigate", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qffnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("network", help="classify every 2x2 input pattern")
    p_net.add_argument("--mode", default="both", choices=("hybrid", "coherent", "both"))
    _add_common(p_net)
    p_net.add_argument("--weights", default=None, help="W1,W2[,W3]; label or colon-separated entries")
    p_net.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_net.add_argument("--out", default=None, help="results file path")
    p_net.add_argument("--format", default="json", choices=("json", "csv"))

    p_neu = sub.add_parser("neuron", help="single-node activation")
    p_neu.add_argument("--input", default="0", help="input label or entries")
    p_neu.add_argument("--weight", default="12", help="weight label or entries")
    _add_common(p_neu)
    p_neu.add_argument("--sweep", action="store_true", help="iterate all input labels")
    p_neu.add_argument("--conditional", action="store_true", help="iterate fed-forward bit patterns")

    p_dump = sub.add_parser("dump-circuit", help="plain-text gate listing")
    p_dump.add_argument("--mode", default="hybrid", choices=("hybrid", "coherent"))
    p_dump.add_argument("--input", type=int, default=0, help="input label")
    p_dump.add_argument("--weights", default=None)
    p_dump.add_argument("--out", default=None)

    p_render = sub.add_parser("render", help="ASCII 2x2 pixel image of a label")
    p_render.add_argument("label", type=int)

    return parser


def _cmd_network(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        mode=args.mode,
        evaluation=args.evaluation,
        shots=args.shots,
        seed=args.seed,
        noise=args.noise,
        mitigate=args.mitigate,
        weights=parse_weights_option(args.weights),
        threshold=args.threshold,
        format=args.format,
    )
    doc, exit_code = run_network_experiment(config)
    if args.out:
        text = results_to_json(doc) if args.format == "json" else results_to_csv(doc)
        Path(args.out).write_text(text)
    print(summarize_network_results(doc))
    return exit_code


def _cmd_neuron(args: argparse.Namespace) -> int:
    check_run_options(args.evaluation, args.shots, args.seed, args.noise, args.mitigate)
    if args.sweep and args.conditional:
        raise ValueError("--sweep and --conditional exclude each other")
    if (args.sweep or args.conditional) and args.evaluation == "sampled":
        raise ValueError("--sweep and --conditional are exact: they take no --eval sampled, --noise or --mitigate")
    weight_m = None if ":" in args.weight else (2 if args.conditional else 4)
    weight = parse_weight(args.weight, m=weight_m)
    if args.conditional:
        for row in conditional_sweep(weight):
            print(f"[{row['bits']}]  p={row['p']:.6f}")
        return 0
    if args.sweep:
        for row in neuron_sweep(weight):
            print(f"{row['label']:>3}  {row['pattern']}  p={row['p']:.6f}")
        return 0
    input_vec = parse_weight(args.input, m=weight.m)
    report = run_neuron_experiment(
        input_vec,
        weight,
        evaluation=args.evaluation,
        shots=args.shots,
        seed=args.seed,
        noise=args.noise,
        apply_mitigation=args.mitigate,
    )
    print(json.dumps(report, indent=2))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    config = ExperimentConfig(mode=args.mode, weights=parse_weights_option(args.weights))
    text = dump_circuit_text(config, args.input)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when the network verdicts
    miss the target set, 2 on a usage error, on input rejected with
    ``ValueError`` or on an ``--out`` file that cannot be written (``OSError``);
    the last two are reported as one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "network":
            return _cmd_network(args)
        if args.command == "neuron":
            return _cmd_neuron(args)
        if args.command == "dump-circuit":
            return _cmd_dump(args)
        print(render_pattern(args.label))
        return 0
    except (ValueError, OSError) as exc:  # ValueError includes UnsupportedTopology
        print(f"qffnn: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
