"""Command-line interface: verdicts, files, manifests, exit codes."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supercat import (EXACT_POLICY, NotNormalized, SchmidtVector, binary_entropy, entropy,
                      epsilon_family, kron, majorizes, make_schmidt)
from supercat.cli import build_parser, main
from supercat.examples import EXAMPLE_PAIRS

A1 = "0.4,0.4,0.1,0.1"
B1 = "0.5,0.25,0.25,0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConvertCheck:
    def test_blocked_pair(self, capsys):
        code, out, err = run(capsys, "convert-check", "--a", A1, "--b", B1)
        assert code == 0
        payload = json.loads(out)
        assert payload["convertible"] is False
        assert payload["violated_at"] == [2]
        assert "k=2" in err

    def test_identical_vectors(self, capsys):
        code, out, _ = run(capsys, "convert-check", "--a", B1, "--b", B1)
        assert code == 0
        assert json.loads(out)["convertible"] is True

    def test_separable_target_unreachable(self, capsys):
        code, out, _ = run(capsys, "convert-check", "--a", "1,0", "--b", "0.5,0.5")
        assert code == 0
        assert json.loads(out)["convertible"] is False

    def test_malformed_vector(self, capsys):
        code, _, err = run(capsys, "convert-check", "--a", "0.4,oops", "--b", B1)
        assert code == 1
        assert "error" in err

    def test_not_normalized(self, capsys):
        code, _, _ = run(capsys, "convert-check", "--a", "0.4,0.4", "--b", B1)
        assert code == 1

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("a", ["1e500,1", "-1e500,1", "1e5000,1"])
    def test_coefficient_beyond_float_range_gives_short_message(self, capsys, exact, a):
        # the message printed the coefficient's 500 digits, and past 4300
        # digits the program crashed with a ValueError
        flags = ["--exact"] if exact else []
        code, out, err = run(capsys, "convert-check", f"--a={a}", "--b", "0.5,0.5", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err) < 120, err

    @pytest.mark.parametrize("exact, want", [
        (False, "error: coefficient 1e+500 is beyond the float range\n"),
        (True, "error: coefficients sum to 1e+500, not 1\n")], ids=["float", "exact"])
    def test_coefficient_beyond_float_range_message(self, capsys, exact, want):
        flags = ["--exact"] if exact else []
        assert run(capsys, "convert-check", "--a", "1e500,1", "--b", "0.5,0.5",
                   *flags) == (1, "", want)


class TestCatalystRange:
    def test_first_pair(self, capsys):
        code, out, _ = run(capsys, "catalyst-range", "--a", A1, "--b", B1)
        assert code == 0
        payload = json.loads(out)
        assert payload["nonempty"] is True
        assert payload["x_min"] == pytest.approx(0.6, abs=1e-9)
        assert payload["x_max"] == pytest.approx(0.625, abs=1e-9)

    def test_fourth_pair_exact_with_verify(self, capsys):
        code, out, _ = run(capsys, "catalyst-range", "--a", "0.88,0.08,0.02,0.02",
                           "--b", "0.9,0.05,0.05,0", "--exact", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_agrees"] is True
        assert payload["x_max"] == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["float", "exact"])
    def test_verify_agrees_on_an_empty_set(self, capsys, flags):
        # both sides find no two-level catalyst, which is agreement: this
        # exited 2 with "no two-level catalyst found at this resolution"
        code, out, err = run(capsys, "catalyst-range", "--a", "0.6,0.4,0,0",
                             "--b", "0.7,0.25,0.05,0", "--verify", *flags)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["nonempty"] is False
        assert payload["oracle"] is None and payload["oracle_agrees"] is True

    @pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["float", "exact"])
    def test_verify_exits_2_on_a_set_the_grid_cannot_see(self, capsys, flags):
        # the closed form gives [57/101, 74/131], which holds no grid point
        # k/1000, so the grid finds no member of a nonempty set
        argv = ["catalyst-range", "--a", "0.345,0.31,0.2,0.145",
                "--b", "0.37,0.27,0.235,0.125", *flags]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["nonempty"] is True
        assert run(capsys, *argv, "--verify") == (
            2, "", "error: no two-level catalyst found at this resolution\n")

    def test_verify_exits_2_on_a_single_point_set(self, capsys):
        # exactly, the set is the single point {2/3}, between two grid points
        argv = ["catalyst-range", "--exact", "--a", "1/2,19/50,3/50,3/50",
                "--b", "18/25,3/25,3/25,1/25"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["nonempty"] is True
        assert payload["x_min"] == payload["x_max"] == 2 / 3
        assert run(capsys, *argv, "--verify") == (
            2, "", "error: no two-level catalyst found at this resolution\n")

    def test_rational_input(self, capsys):
        code, out, _ = run(capsys, "catalyst-range", "--a", "2/5,2/5,1/10,1/10",
                           "--b", "1/2,1/4,1/4,0", "--exact")
        assert code == 0
        assert json.loads(out)["x_min"] == pytest.approx(0.6, abs=1e-12)

    def test_convertible_pair_exits_2(self, capsys):
        code, _, err = run(capsys, "catalyst-range", "--a", "0.25,0.25,0.25,0.25",
                           "--b", B1)
        assert code == 2
        assert "error" in err


class TestGainSweep:
    def test_single_catalyst_mode(self, capsys):
        code, out, _ = run(capsys, "gain-sweep", "--a", A1, "--b", B1,
                           "--c", "0.625,0.375", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["gain"] == pytest.approx(0.0744231663778, abs=1e-9)
        assert payload["oracle_agrees"] is True
        assert payload["gain"] <= payload["bound"] + 1e-12

    def test_uncertified_bound_clamped_and_labelled(self, capsys):
        # returned-rank cap 4, so the bound rests on a search lower bound
        code, out, _ = run(capsys, "gain-sweep", "--a", A1, "--b", B1, "--c", "0.5,0.3,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_certified"] is False
        assert payload["gain"] <= payload["bound"] <= 1.0

    def test_certified_rank2_bound_keeps_its_value(self, capsys):
        code, out, _ = run(capsys, "gain-sweep", "--a", "0.65,0.19,0.11,0.05",
                           "--b", "0.68,0.15,0.13,0.04", "--c", "0.75,0.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_certified"] is True
        assert payload["bound"] == pytest.approx(2.547363408710921, abs=1e-9)

    def test_loan_without_search_member_exits_0(self, capsys):
        # no candidate of the rank-3 search is a catalyst: this exited 2 with
        # "no catalyst of rank <= 3 found within the search budget"
        code, out, _ = run(capsys, "gain-sweep",
                           "--a", "0.519773417811575,0.39161841841918565,0.07540497933614343,"
                           "0.013203184433095871",
                           "--b", "0.6018524912999029,0.30884880361589706,0.08577879216933693,"
                           "0.003519912914863088",
                           "--c", "0.5591722900586402,0.289844528287162,0.15098318165419777")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_certified"] is False
        assert payload["bound"] == payload["gain"] == pytest.approx(0.0416, abs=1e-4)

    def test_uncertified_bound_not_below_gain(self, capsys):
        # the rank-3 search's E_3 sat below the returned state's entropy: the
        # bound printed was 0.3024240418117655
        code, out, _ = run(capsys, "gain-sweep",
                           "--a", "0.4669699987776219,0.3343634347666882,0.10693694042086266,"
                           "0.09172962603482726",
                           "--b", "0.537913083080334,0.25597932853074523,0.16474492266772145,"
                           "0.04136266572119929",
                           "--c", "0.4704873520451981,0.30423159273343714,0.22528105522136477")
        assert code == 0
        payload = json.loads(out)
        assert payload["gain"] == 0.3124271268520502
        assert payload["bound"] == payload["gain"] and payload["bound_certified"] is False

    def test_single_point_set_above_rank4_certified(self, capsys):
        # the only two-level catalyst is (4/7, 3/7), between the steps of the
        # grid scan that used to stand in for the set above rank 4
        code, out, _ = run(capsys, "gain-sweep", "--exact",
                           "--a", "107/200,9/50,13/100,21/200,1/20",
                           "--b", "111/200,29/200,27/200,27/200,3/100", "--c", "4/7,3/7")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_certified"] is True
        assert payload["gain"] == payload["bound"] == 0.0

    def test_two_piece_set_bound_from_exact_x_min(self, capsys):
        # the set is [8/13, 5/8] and [19/29, 51/67]; the grid scan gave
        # x_min = 0.6153846158981323, uncertified
        a, b, c = ("0.43,0.27,0.185,0.07,0.045", "0.51,0.215,0.145,0.115,0.015", "0.625,0.375")
        code, out, _ = run(capsys, "gain-sweep", "--a", a, "--b", b, "--c", c)
        assert code == 0
        payload = json.loads(out)
        drop = entropy(make_schmidt(a.split(","))) - entropy(make_schmidt(b.split(",")))
        want = (binary_entropy(8 / 13) - binary_entropy(0.625)) / drop
        assert payload["bound_certified"] is True
        assert payload["bound"] == pytest.approx(want, abs=1e-14)

    def test_sweep_files(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "gain-sweep", "--a", A1, "--b", B1,
                           "--points", "21", "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["tilde_gmax"] == pytest.approx(0.0744231663778, abs=1e-8)
        assert summary["bound_violations"] == 0

        text = out_csv.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "x,entropy_c_bits,gmax,bound"
        assert len(lines) == 22
        for line in lines[1:]:
            x, ent, gmax, bound = map(float, line.split(","))
            assert gmax <= bound + 1e-12

        assert (tmp_path / "sweep.summary.json").exists()
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["command"] == "gain-sweep"
        assert str(out_csv) in manifest["outputs"]
        assert manifest["policy"]["mode"] == "float"

    def test_full_sweep_verify_agrees_with_oracle(self, capsys, tmp_path):
        out_csv = tmp_path / "v.csv"
        code, out, _ = run(capsys, "gain-sweep", "--a", A1, "--b", B1,
                           "--points", "11", "--verify", "--out", str(out_csv))
        assert code == 0
        assert json.loads(out)["oracle_mismatches"] == []

    @pytest.mark.parametrize("name", sorted(EXAMPLE_PAIRS))
    def test_exact_sweep_verify_agrees_with_oracle(self, capsys, tmp_path, name):
        # the oracle checks each point's exact loan, not one rebuilt from its float x
        a, b = EXAMPLE_PAIRS[name]
        code, out, _ = run(capsys, "gain-sweep", "--a", ",".join(a), "--b", ",".join(b),
                           "--exact", "--verify", "--points", "25",
                           "--out", str(tmp_path / "v.csv"))
        assert code == 0
        assert json.loads(out)["oracle_mismatches"] == []

    @pytest.mark.parametrize("a,b,c", [
        (A1, B1, "0.5,0.3,0.2"),  # returned-rank cap 4
        ("0.5,0.35,0.05,0.05,0.05", "0.6,0.2,0.2", "0.646,0.354"),  # cap 3
    ], ids=["cap4", "cap3"])
    def test_loan_verify_without_oracle_at_cap_3(self, capsys, a, b, c):
        code, out, err = run(capsys, "gain-sweep", "--a", a, "--b", b, "--c", c, "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_agrees"] is None
        assert payload["oracle_gain"] is None
        assert "no oracle applies" in err

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
    @pytest.mark.parametrize("c", ["1", "0.6,0.4"], ids=["separable", "two-level"])
    def test_loan_on_pair_needing_no_catalyst_exits_2(self, capsys, mode, c):
        # a reaches b unaided; the exact separable loan died with an IndexError
        code, out, err = run(capsys, "gain-sweep", *mode, "--a", "0.5,0.3,0.2",
                             "--b", "0.6,0.3,0.1", "--c", c)
        assert (code, out) == (2, "")
        assert err == "error: the transformation already succeeds without a catalyst\n"

    def test_exact_rank3_loan_search(self, capsys):
        # the exact simplex grid, hill-climb and random samples of the rank >= 3 searches
        argv = ["gain-sweep", "--a", A1, "--b", B1, "--c", "1/2,3/10,1/5"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        float_gain = json.loads(out)["gain"]
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == 0
        payload = json.loads(out)
        d = [Fraction(x) for x in payload["returned_state"]]
        assert sum(d) == 1 and d == sorted(d, reverse=True)
        d = SchmidtVector(d)
        a, b = make_schmidt(A1.split(","), EXACT_POLICY), make_schmidt(B1.split(","), EXACT_POLICY)
        c = SchmidtVector((Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
        assert majorizes(kron(b, d), kron(a, c), EXACT_POLICY)
        assert majorizes(c, d, EXACT_POLICY)
        assert payload["gain"] == pytest.approx(float_gain, abs=1e-9)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        run(capsys, "gain-sweep", "--a", A1, "--b", B1, "--points", "15",
            "--out", str(out_csv))
        first = out_csv.read_bytes()
        run(capsys, "gain-sweep", "--a", A1, "--b", B1, "--points", "15",
            "--out", str(out_csv))
        assert out_csv.read_bytes() == first

    def test_fourth_pair_shape(self, capsys, tmp_path):
        out_csv = tmp_path / "b.csv"
        code, out, _ = run(capsys, "gain-sweep", "--a", "0.88,0.08,0.02,0.02",
                           "--b", "0.9,0.05,0.05,0", "--points", "41",
                           "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["gmax_at_x_min"] == 0.0
        assert summary["gmax_at_x_max"] == 0.0
        assert summary["interior_optimum"] is True
        assert summary["tilde_gmax"] > 0.02


class TestEpsilonFamily:
    def test_gain_progression(self, capsys):
        code, out, _ = run(capsys, "epsilon-family", "--eps", "1e-2,1e-3,1e-4")
        assert code == 0
        reports = json.loads(out)["reports"]
        gains = [r["gain"] for r in reports]
        assert all(r["ok"] for r in reports)
        assert gains[0] < gains[1] < gains[2]
        assert gains[2] > 0.99

    def test_invalid_epsilon_exits_2(self, capsys):
        code, _, err = run(capsys, "epsilon-family", "--eps", "0.3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_exits_1(self, capsys, eps):
        code, _, err = run(capsys, "epsilon-family", "--eps", eps)
        assert code == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_non_finite_epsilon_message_names_the_epsilon(self, capsys, exact):
        flags = ["--exact"] if exact else []
        code, _, err = run(capsys, "epsilon-family", "--eps", "nan", *flags)
        assert code == 1
        assert err.strip() == "error: non-finite epsilon nan"

    def test_non_finite_epsilon_raises_not_normalized(self):
        with pytest.raises(NotNormalized, match="epsilon"):
            epsilon_family(math.nan)

    def test_malformed_epsilon_exits_1(self, capsys):
        code, _, err = run(capsys, "epsilon-family", "--eps", "abc")
        assert (code, err) == (1, "error: cannot parse epsilon list 'abc': could not convert "
                                  "string to float: 'abc'\n")

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_rational_epsilon_reads_as_its_decimal(self, capsys, exact):
        # "1/100" is read like a vector entry, as the number 0.01 is
        flags = ["--exact"] if exact else []
        code, out, err = run(capsys, "epsilon-family", "--eps", "1/100,1/10000", *flags)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "epsilon-family", "--eps", "0.01,0.0001", *flags)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_epsilon_beyond_float_range_is_non_finite(self, capsys, exact):
        flags = ["--exact"] if exact else []
        code, _, err = run(capsys, "epsilon-family", "--eps", "1e500", *flags)
        assert (code, err) == (1, "error: non-finite epsilon inf\n")

    def test_exact_epsilon_with_levels_below_float_range(self, capsys):
        # eps**2 = 1e-400 is a level of b; its entropy term raised a bare
        # ValueError where its float underflowed to 0
        code, out, _ = run(capsys, "epsilon-family", "--exact", "--eps", "1e-200")
        assert code == 0
        assert json.loads(out)["reports"][0]["ok"] is True

    def test_zero_denominator_epsilon_exits_1(self, capsys):
        code, _, err = run(capsys, "epsilon-family", "--eps", "1/0")
        assert code == 1
        assert "cannot parse epsilon list" in err


class TestExamples:
    def test_end_to_end(self, capsys, tmp_path):
        code, out, err = run(capsys, "examples", "--out-dir", str(tmp_path),
                             "--points", "21")
        assert code == 0
        for name in "1234":
            assert (tmp_path / f"example{name}.csv").exists()
            assert (tmp_path / f"example{name}.summary.json").exists()
            assert (tmp_path / f"example{name}.manifest.json").exists()
        combined = json.loads((tmp_path / "examples.summary.json").read_text())
        assert combined["3"]["interior_optimum"] is True
        assert combined["1"]["interior_optimum"] is False
        for name in "1234":
            assert combined[name]["bound_violations"] == 0
        assert "example 3" in err


class TestParserBuiltOnce:
    """main() shares one parser per process; a failed parse, then calls of
    two subcommands, in one process, each give the bytes of the same call
    made alone in a fresh interpreter."""

    CALLS = [["gain-sweep", "--a", A1],
             ["convert-check", "--a", A1, "--b", B1, "--out", "check.json"],
             ["gain-sweep", "--a", A1, "--b", B1, "--c", "0.6,0.4", "--out", "loan.json"]]

    @staticmethod
    def _files(path: Path) -> dict:
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_calls_alone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this
        src = str(Path(__file__).resolve().parent.parent / "src")
        code_alone = ("import sys; sys.path.insert(0, sys.argv[1]); from supercat.cli import main; "
                      "sys.exit(main(sys.argv[2:]))")
        codes = []
        for i, argv in enumerate(self.CALLS):
            together, alone = tmp_path / f"together{i}", tmp_path / f"alone{i}"
            together.mkdir()
            alone.mkdir()
            monkeypatch.chdir(together)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-I", "-c", code_alone, src, *argv],
                                  cwd=alone, capture_output=True, text=True, timeout=120)
            assert (code, out.out, out.err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert self._files(together) == self._files(alone), argv
            codes.append(code)
        assert codes == [2, 0, 0]
        assert (tmp_path / "together1/check.json").exists()
        assert (tmp_path / "together2/loan.json").exists()
