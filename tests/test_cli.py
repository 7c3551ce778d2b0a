"""Command-line interface: outputs, exit codes, CSV determinism."""

from pathlib import Path

import pytest

from fairchk.cli import main

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

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "scc")
        assert code == 1

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mec", "--model", "x", "--threshold", "zero")
        assert code == 1

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
