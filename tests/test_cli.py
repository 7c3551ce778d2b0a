"""Command-line interface: outputs, exit codes, CSV determinism."""

from pathlib import Path

import pytest

from fairchk import SymbolicManager, UsageError
from fairchk.cli import main
from fairchk.runner import run_command
from fairchk.thresholds import parse_threshold

from conftest import F2_TEXT, F3_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleModel:
    def test_streett_graph_basic(self, tmp_path, capsys):
        model = tmp_path / "f2.txt"
        model.write_text(F2_TEXT)
        pairs = tmp_path / "p.txt"
        pairs.write_text("pairs 1\nL 1 1\nU 1 3\n")
        code, out, _ = run_cli(
            capsys, "streett-graph", "--model", str(model),
            "--pairs", str(pairs), "--algorithm", "basic",
        )
        assert code == 0
        assert "winning-set: 0 1 2 3" in out

    def test_mec_with_oracle(self, tmp_path, capsys):
        model = tmp_path / "f3.txt"
        model.write_text(F3_TEXT)
        code, out, _ = run_cli(
            capsys, "mec", "--model", str(model),
            "--algorithm", "improved", "--check-oracle",
        )
        assert code == 0
        assert "mecs: [{2}]" in out
        assert "oracle-match: true" in out

    def test_scc_command(self, tmp_path, capsys):
        model = tmp_path / "f2.txt"
        model.write_text(F2_TEXT)
        code, out, _ = run_cli(capsys, "scc", "--model", str(model))
        assert code == 0
        assert "sccs: [{0,1},{2,3}]" in out

    def test_obdd_backend(self, tmp_path, capsys):
        model = tmp_path / "f3.txt"
        model.write_text(F3_TEXT)
        code, out, _ = run_cli(
            capsys, "mec", "--model", str(model), "--backend", "obdd",
            "--check-oracle",
        )
        assert code == 0
        assert "oracle-match: true" in out

    def test_debug_invariants_flag(self, tmp_path, capsys):
        model = tmp_path / "f3.txt"
        model.write_text(F3_TEXT)
        code, _, _ = run_cli(
            capsys, "mec", "--model", str(model), "--debug-invariants",
        )
        assert code == 0


@pytest.mark.parametrize("text, value", [
    ("auto", "auto"), ("practical", "practical"), ("1", 1), ("64", 64),
])
def test_threshold_text(text, value):
    assert parse_threshold(text) == value


@pytest.mark.parametrize("text", ["zero", "0", "-3", "2.5", "Auto", ""])
def test_bad_threshold_text(text):
    with pytest.raises(UsageError):
        parse_threshold(text)


@pytest.mark.parametrize("algorithm", ["both", "Basic"])
def test_run_command_names_unknown_algorithm(f2, algorithm):
    # Python callers have no argparse in front to check the value.
    with pytest.raises(UsageError, match=repr(algorithm)):
        run_command("scc", f2, algorithm=algorithm)


@pytest.mark.parametrize("command", ["streett-graph", "streett-mdp"])
def test_run_command_rejects_missing_pairs_before_building(f2, command, monkeypatch):
    # The manager checks and indexes every edge: too late to find out then.
    def no_manager(*args, **kwargs):
        raise AssertionError("manager built for a run that cannot start")

    monkeypatch.setattr(SymbolicManager, "from_model", no_manager)
    with pytest.raises(UsageError, match=f"{command} needs a pairs file"):
        run_command(command, f2, None)


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        model = tmp_path / "bad.txt"
        model.write_text("graph 2\ne 0 1\n")
        code, _, err = run_cli(capsys, "scc", "--model", str(model))
        assert code == 1
        assert "no outgoing edge" in err

    def test_io_error(self, capsys):
        code, _, err = run_cli(capsys, "scc", "--model", "/no/such/file")
        assert code == 3

    def test_unwritable_csv_fails_before_any_instance(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "streett-graph", "--family", "random", "--sizes", "3",
            "--compare", "--csv", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert out == ""
        assert "i/o error" in err

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "scc")
        assert code == 1

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mec", "--model", "x", "--threshold", "zero")
        assert code == 1

    def test_compare_has_one_spelling(self, capsys):
        code, _, err = run_cli(
            capsys, "mec", "--family", "random", "--algorithm", "both",
        )
        assert code == 1
        assert "invalid choice" in err

    def test_bad_sizes(self, capsys):
        for sizes in ("64,abc", "64,0", "-8"):
            code, _, err = run_cli(
                capsys, "streett-graph", "--family", "random", "--sizes", sizes,
            )
            assert code == 1, sizes
            assert err.startswith("error:"), sizes

    @pytest.mark.parametrize(
        "argv",
        [
            ("streett-graph", "--family", "chain-of-cycles", "--cycle-size", "0"),
            ("streett-graph", "--family", "chain-of-cycles", "--sizes", "8",
             "--cycle-size", "100000000"),
            ("streett-mdp", "--family", "mdp-random", "--sizes", "16",
             "--random-fraction", "2"),
            ("streett-graph", "--family", "random", "--edge-factor", "nan"),
            ("streett-graph", "--family", "random", "--k", "-1"),
        ],
        ids=["cycle-size", "cycle-size-above-n", "random-fraction", "edge-factor",
             "k"],
    )
    def test_bad_sweep_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_non_utf8_input(self, tmp_path, capsys):
        good = tmp_path / "f2.txt"
        good.write_text(F2_TEXT)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        for files in ((bad, good), (good, bad)):
            code, out, err = run_cli(
                capsys, "streett-graph", "--model", str(files[0]),
                "--pairs", str(files[1]),
            )
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "not UTF-8" in err

    def test_missing_pairs(self, tmp_path, capsys):
        for command, text in (("streett-graph", F2_TEXT), ("streett-mdp", F3_TEXT)):
            model = tmp_path / "model.txt"
            model.write_text(text)
            code, out, err = run_cli(capsys, command, "--model", str(model))
            assert code == 1
            assert out == ""
            assert f"error: {command} needs a pairs file" in err


# (model text, pairs text or None, the message after "error: ").  The pairs
# cases parse F2 (4 vertices) as the model.
PARSE_ERRORS = {
    "empty-model": ("# nothing\n", None, "empty model file"),
    "vertex-count": ("graph four\n", None, "line 1: bad vertex count 'four'"),
    "edge-arity": ("graph 2\ne 0\n", None,
                   "line 2: edge line needs exactly two vertices"),
    "edge-endpoints": ("graph 2\ne 0 x\n", None,
                       "line 2: edge endpoints must be integers"),
    "random-vertices": ("mdp 2\ne 0 1\nrandom one\n", None,
                        "line 3: random vertices must be integers"),
    "model-directive": ("graph 2\nv 0\n", None, "line 2: unknown directive 'v'"),
    "empty-pairs": (F2_TEXT, "\n# nothing\n", "empty pairs file"),
    "pairs-header": (F2_TEXT, "pair 1\n", "line 1: expected 'pairs <k>'"),
    "pair-count": (F2_TEXT, "pairs one\n", "line 1: bad pair count 'one'"),
    "negative-count": (F2_TEXT, "pairs -1\n", "line 1: pair count must be non-negative"),
    "pairs-directive": (F2_TEXT, "pairs 1\nR 1 0\n", "line 2: unknown directive 'R'"),
    "missing-index": (F2_TEXT, "pairs 1\nL\n", "line 2: missing pair index"),
    "index": (F2_TEXT, "pairs 1\nL a 0\n", "line 2: indices must be integers"),
    "pair-vertex": (F2_TEXT, "pairs 1\nU 1 0\nL 1 a\n",
                    "line 3: pair vertices must be integers"),
}


@pytest.mark.parametrize("model_text, pairs_text, message",
                         list(PARSE_ERRORS.values()), ids=list(PARSE_ERRORS))
def test_parse_error_exits_with_its_message(tmp_path, capsys, model_text,
                                            pairs_text, message):
    model = tmp_path / "model.txt"
    model.write_text(model_text)
    argv = ["streett-graph", "--model", str(model)]
    if pairs_text is not None:
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(pairs_text)
        argv += ["--pairs", str(pairs)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


class TestSweeps:
    def test_compare_csv_shape(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "streett-graph", "--compare",
            "--family", "chain-of-cycles", "--sizes", "16,32", "--seeds", "3",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:8] == [
            "instance", "n", "m", "k",
            "basic_steps", "improved_steps", "basic_time", "improved_time",
        ]
        assert len(lines) == 1 + 2 * 3

    def test_csv_bit_stable_for_fixed_seed(self, tmp_path, capsys):
        contents = []
        for name in ("a.csv", "b.csv"):
            csv_path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "mec", "--family", "mdp-random", "--sizes", "12",
                "--seeds", "4", "--random-fraction", "0.5",
                "--csv", str(csv_path), "--check-oracle",
            )
            assert code == 0
            text = csv_path.read_text()
            # timing columns vary between runs; mask them out
            rows = [line.split(",") for line in text.strip().splitlines()]
            keep = [c for c in range(len(rows[0])) if "time" not in rows[0][c]]
            contents.append([[row[c] for c in keep] for row in rows])
        assert contents[0] == contents[1]

    def test_sweep_oracle_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "streett-mdp", "--compare", "--check-oracle",
            "--family", "mdp-random", "--sizes", "8,10", "--seeds", "5",
            "--k", "2", "--random-fraction", "0.5",
        )
        assert code == 0

    def test_three_sizes_ten_seeds_gives_thirty_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "streett-graph", "--compare",
            "--family", "chain-of-cycles", "--sizes", "64,128,256",
            "--seeds", "10", "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 30
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_oracle_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        import fairchk.cli as cli_module

        monkeypatch.setattr(cli_module, "oracle_matches", lambda *a: False)
        model = tmp_path / "f3.txt"
        model.write_text(F3_TEXT)
        code, _, err = run_cli(
            capsys, "mec", "--model", str(model), "--check-oracle",
        )
        assert code == 2
        assert "oracle mismatch" in err
