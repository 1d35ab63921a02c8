"""Command-line front end: network / neuron / dump-circuit / render."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .circuit_text import format_circuit
from .experiments import (
    DEFAULT_SHOTS,
    ExperimentConfig,
    check_run_options,
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
from .network import DEFAULT_THRESHOLD, line_recognition_network, mode_circuit
from .neuron import BinaryVector


def _parse_noise(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--noise takes 'p01,p10'")
    return float(parts[0]), float(parts[1])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval", default="exact", choices=("exact", "sampled"), dest="evaluation")
    parser.add_argument("--shots", type=int, default=None, help=f"default {DEFAULT_SHOTS}")
    parser.add_argument("--seed", type=int, default=None, help="default 0")
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
    p_net.add_argument("--format", default=None, choices=("json", "csv"), help="needs --out; default json")

    p_neu = sub.add_parser("neuron", help="single-node activation")
    p_neu.add_argument("--input", default=None, help="input label or entries, default 0")
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


def _shots_and_seed(args: argparse.Namespace) -> tuple[int, int]:
    """``--shots`` and ``--seed``, or their defaults when left out (``None``);
    exact evaluation draws no shots, so it refuses either option."""
    for name in ("shots", "seed"):
        if args.evaluation == "exact" and getattr(args, name) is not None:
            raise ValueError(f"--{name} needs sampled evaluation")
    return (DEFAULT_SHOTS if args.shots is None else args.shots, 0 if args.seed is None else args.seed)


def _cmd_network(args: argparse.Namespace) -> int:
    if args.format is not None and not args.out:
        raise ValueError("--format needs --out")
    shots, seed = _shots_and_seed(args)
    config = ExperimentConfig(
        mode=args.mode,
        evaluation=args.evaluation,
        shots=shots,
        seed=seed,
        noise=args.noise,
        mitigate=args.mitigate,
        weights=parse_weights_option(args.weights),
        threshold=args.threshold,
        format=args.format or "json",
    )
    doc, exit_code = run_network_experiment(config)
    if args.out:
        text = results_to_json(doc) if config.format == "json" else results_to_csv(doc)
        Path(args.out).write_text(text)
    print(summarize_network_results(doc))
    return exit_code


def _cmd_neuron(args: argparse.Namespace) -> int:
    shots, seed = _shots_and_seed(args)
    check_run_options(args.evaluation, shots, seed, args.noise, args.mitigate)
    if args.sweep and args.conditional:
        raise ValueError("--sweep and --conditional exclude each other")
    if (args.sweep or args.conditional) and (args.evaluation == "sampled" or args.input is not None):
        raise ValueError("--sweep and --conditional run every input exactly: they take no --input, --eval sampled, --noise or --mitigate")
    weight = parse_weight(args.weight, m=2 if args.conditional else 4)
    if args.sweep or args.conditional:
        # fed-forward bit k is entry k of the input: bit 0 rightmost, as in counts keys
        for row in neuron_sweep(weight):
            head = f"[{row['label']:0{weight.m}b}]" if args.conditional else f"{row['label']:>3}  {row['pattern']}"
            print(f"{head}  p={row['p']:.6f}")
        return 0
    input_vec = parse_weight("0" if args.input is None else args.input, m=weight.m)
    report = run_neuron_experiment(
        input_vec,
        weight,
        evaluation=args.evaluation,
        shots=shots,
        seed=seed,
        noise=args.noise,
        apply_mitigation=args.mitigate,
    )
    print(json.dumps(report, indent=2))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    net = line_recognition_network(*parse_weights_option(args.weights))
    text = format_circuit(mode_circuit(net, BinaryVector.from_label(args.input, 4), args.mode))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when the network verdicts
    miss the target set, 2 on a usage error, on input rejected with
    ``ValueError`` or on an ``--out`` file that cannot be written (``OSError``);
    the last two are reported as one line on stderr.  Stdout closed early, as
    by ``| head``, exits 141 (128 + SIGPIPE) without a message."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "render":
            print(render_pattern(args.label))
            code = 0
        else:
            code = {"network": _cmd_network, "neuron": _cmd_neuron, "dump-circuit": _cmd_dump}[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the recipe of Python's signal docs: point stdout at devnull, so the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # ValueError includes UnsupportedTopology
        print(f"qffnn: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
