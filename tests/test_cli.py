"""Command-line interface: subcommands, exit codes, output files, determinism."""

import hashlib
import json

import pytest

from qffnn.cli import main
from qffnn.circuit_text import parse_circuit
from qffnn.experiments import CSV_HEADER, TARGET_LABELS
from qffnn.simulator import run_circuit_exact


def test_target_labels_are_the_four_lines():
    assert TARGET_LABELS == frozenset({3, 5, 10, 12})


def test_render_horizontal_line(capsys):
    assert main(["render", "12"]) == 0
    assert capsys.readouterr().out == "##\n..\n"


def test_render_blank_and_vertical(capsys):
    # all entries of label 15 are -1 (white), so the image is empty;
    # label 0 is the all-black image
    main(["render", "15"])
    assert capsys.readouterr().out == "..\n..\n"
    main(["render", "0"])
    assert capsys.readouterr().out == "##\n##\n"
    main(["render", "5"])
    assert capsys.readouterr().out == ".#\n.#\n"


def test_render_rejects_out_of_range_label(capsys):
    assert main(["render", "16"]) == 2
    assert capsys.readouterr().err.startswith("qffnn: error: ")


def test_neuron_matched_input(capsys):
    assert main(["neuron", "--input", "12", "--weight", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["p"] - 1.0) < 1e-12


def test_neuron_sweep_values(capsys):
    main(["neuron", "--weight", "12", "--sweep"])
    lines = capsys.readouterr().out.strip().splitlines()
    values = {}
    for line in lines:
        parts = line.split()
        values[int(parts[0])] = float(parts[-1].split("=")[1])
    assert values[12] == 1.0 and values[3] == 1.0
    quarter = [n for n, p in values.items() if p == 0.25]
    assert sorted(quarter) == [1, 2, 4, 7, 8, 11, 13, 14]
    assert sorted(n for n, p in values.items() if p == 0.0) == [0, 5, 6, 9, 10, 15]


def test_neuron_conditional_sweep(capsys):
    main(["neuron", "--weight", "2", "--conditional"])
    out = capsys.readouterr().out
    assert "[00]  p=0.000000" in out
    assert "[01]  p=1.000000" in out
    assert "[10]  p=1.000000" in out
    assert "[11]  p=0.000000" in out


def test_neuron_sampled_reports_counts(capsys):
    assert main(["neuron", "--input", "12", "--weight", "12", "--eval", "sampled", "--shots", "500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"1": 500}
    assert report["shots"] == 500


def test_network_exact_writes_results_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = main(["network", "--mode", "both", "--eval", "exact", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "rows", "summary"}
    assert len(doc["rows"]) == 16
    for row in doc["rows"]:
        assert set(row) >= {"label", "pattern", "p1", "p2", "p_out", "verdict", "target"}
        assert row["verdict"] == (row["label"] in TARGET_LABELS)
        assert abs(row["p_out"]["hybrid"] - row["p_out"]["coherent"]) < 1e-12
    assert doc["summary"]["accuracy"] == 1.0
    assert abs(doc["summary"]["margin"] - 0.625) < 1e-12


def test_network_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["network", "--eval", "sampled", "--shots", "2048", "--seed", "5"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_network_csv_has_fixed_header(tmp_path):
    out = tmp_path / "results.csv"
    main(["network", "--eval", "exact", "--out", str(out), "--format", "csv"])
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 17


def test_network_bad_weights_exit_nonzero(capsys):
    # equal hidden weights cap the output law at 0.5, so no target passes
    assert main(["network", "--eval", "exact", "--weights", "12,12"]) == 1


def test_network_sampled_noise_mitigated_verdicts(tmp_path):
    out = tmp_path / "noisy.json"
    code = main(
        [
            "network",
            "--mode",
            "hybrid",
            "--eval",
            "sampled",
            "--shots",
            "8192",
            "--seed",
            "3",
            "--noise",
            "0.05,0.03",
            "--mitigate",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["noise"] == [0.05, 0.03]
    for row in doc["rows"]:
        assert "counts" in row


def test_dump_circuit_round_trip(tmp_path, capsys):
    main(["dump-circuit", "--mode", "hybrid", "--input", "13"])
    text = capsys.readouterr().out
    assert "Z 6 if c1=1" in text and "Z 6 if c2=1" in text
    parsed = parse_circuit(text)
    dist = run_circuit_exact(parsed)
    p_out = sum(p for key, p in dist.items() if key[-1] == "1")
    assert abs(p_out - 0.375) < 1e-12


def test_dump_circuit_to_file(tmp_path):
    out = tmp_path / "circuit.txt"
    main(["dump-circuit", "--mode", "coherent", "--input", "0", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert sum(1 for line in lines if line.startswith("MCX")) == 2


# sha256 of the dump-circuit listings of the default network, hybrid labels
# 0-15 then coherent labels 0-15, concatenated; the listings are integer-only
# text, so the digest does not depend on the platform
DUMP_CIRCUIT_SHA256 = "61501c75837a73287dd6776d533ab6630ed06e4810cefb9342ab7b4ddee49592"


def test_dump_circuit_listings_keep_their_bytes(capsys):
    digest = hashlib.sha256()
    for mode in ("hybrid", "coherent"):
        for n in range(16):
            assert main(["dump-circuit", "--mode", mode, "--input", str(n)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DUMP_CIRCUIT_SHA256


# sha256 of the results files written with --out (seed 0) and of one sampled
# neuron report on stdout; byte-identical output for a seed is a contract, so
# a change of these digests is a change of the program's results
RESULTS_SHA256 = {
    ("network", "--eval", "exact"): "552540d485836563492b05a3a4a6cedac9b61eef879fb79cee8b5bbb444df09f",
    ("network", "--eval", "exact", "--format", "csv"): "0e6a7842606c564c8587a66b9838a1a4e1c2c85c8a36abe95c802b7bd8ea18ab",
    ("network", "--mode", "hybrid", "--eval", "exact"): "39f82dddde34fed8a59c4d26381a16f8c9052420d9ef9e0e48eecc7b7bc8821c",
    ("network", "--mode", "coherent", "--eval", "exact"): "15b204e968733cf57a342c8c310b1456bc49cb67db8aaf010a6f884487c6d10d",
    ("network", "--weights", "3,5", "--eval", "exact"): "5e72756bdd54f2cc5ff91feff7d244ca5e7622012902d8576998979f8d3f5b00",
    ("network", "--eval", "sampled"): "fe1b684183f570354fb7082951753275b817a4889155de6f6a6f8d8000d008a7",
    ("network", "--eval", "sampled", "--noise", "0.05,0.03", "--mitigate"): (
        "898737ae1d0aa5682dec0d2cb17691a517490ab8d5174578a52202573e2ea368"
    ),
}
NEURON_REPORT_SHA256 = "f0e32744a5d0a7f064404eb32c8f112d9880f87833a66ee5e7a2c82f5e3a7a6a"


@pytest.mark.parametrize("argv", list(RESULTS_SHA256), ids=" ".join)
def test_results_files_keep_their_bytes(argv, tmp_path):
    out = tmp_path / "results"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESULTS_SHA256[argv]


def test_sampled_neuron_report_keeps_its_bytes(capsys):
    assert main(["neuron", "--input", "13", "--weight", "12", "--eval", "sampled", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == NEURON_REPORT_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["network", "--eval", "sampled", "--shots", "0"],
        ["neuron", "--eval", "sampled", "--shots", "0"],
        ["network", "--weights", "99,1"],
        ["dump-circuit", "--input", "99"],
        ["network", "--threshold", "nan"],
        ["network", "--threshold", "-3"],
        # readout options the run would ignore
        ["network", "--eval", "exact", "--noise", "0.05,0.03", "--mitigate"],
        ["network", "--eval", "sampled", "--mitigate"],
        ["neuron", "--input", "13", "--weight", "12", "--noise", "0.05,0.03", "--mitigate"],
        ["neuron", "--input", "13", "--weight", "12", "--eval", "sampled", "--mitigate"],
        # options the exact sweeps would ignore, and the two sweeps together
        ["neuron", "--weight", "12", "--sweep", "--eval", "sampled", "--noise", "0.05,0.03", "--mitigate"],
        ["neuron", "--weight", "12", "--sweep", "--eval", "sampled"],
        ["neuron", "--weight", "12", "--sweep", "--noise", "0.05,0.03"],
        ["neuron", "--weight", "12", "--sweep", "--mitigate"],
        ["neuron", "--weight", "1", "--conditional", "--eval", "sampled", "--shots", "0"],
        ["neuron", "--weight", "1", "--conditional", "--noise", "0.05,0.03"],
        ["neuron", "--weight", "1", "--conditional", "--mitigate"],
        ["neuron", "--weight", "12", "--sweep", "--conditional"],
        # past the int64 range of the multinomial draw
        ["network", "--eval", "sampled", "--shots", "100000000000000000000"],
        ["neuron", "--eval", "sampled", "--shots", "100000000000000000000"],
    ],
)
def test_invalid_input_is_one_line_error_with_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qffnn: error: ")
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["network", "dump-circuit"])
def test_unwritable_out_path_is_one_line_error_with_exit_2(command, tmp_path, capsys):
    assert main([command, "--out", str(tmp_path / "missing" / "out.txt")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qffnn: error: ")
    assert "Traceback" not in captured.err + captured.out
