import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cqexp import ChannelAnalysis, analysis, cli, holevo_capacity
from cqexp.channel_io import load_channel
from cqexp.cli import main
from conftest import draw_letters, random_channel
from oracles import classical_sphere_packing_exponent

CHANNELS_DIR = Path(__file__).resolve().parent.parent / "channels"
BSC = str(CHANNELS_DIR / "bsc01.json")
NOISELESS = str(CHANNELS_DIR / "noiseless_bit.json")
PURE_PAIR = str(CHANNELS_DIR / "pure_pair.json")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def identical_spec(tmp_path):
    path = tmp_path / "identical.json"
    path.write_text(json.dumps({
        "cqspec": 1,
        "stochastic_matrix": [[0.5, 0.5], [0.5, 0.5]],
    }), encoding="utf-8")
    return str(path)


def _letters_file(tmp_path, name: str, letters) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({
        "cqspec": 1,
        "dim": len(letters[0]),
        "outputs": [[[[z.real, z.imag] for z in row] for row in rho] for rho in np.asarray(letters, dtype=complex)],
    }), encoding="utf-8")
    return str(path)


def rows_of(output: str):
    lines = [ln for ln in output.strip().splitlines() if "," in ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestCapacity:
    def test_noiseless_bit(self, runner):
        res = runner.invoke(main, ["capacity", NOISELESS])
        assert res.exit_code == 0
        assert "capacity: 1.000000" in res.output

    def test_identical_outputs(self, runner, identical_spec):
        res = runner.invoke(main, ["capacity", identical_spec])
        assert res.exit_code == 0
        assert "capacity: 0.000000" in res.output

    def test_bsc_value(self, runner):
        res = runner.invoke(main, ["capacity", BSC])
        assert res.exit_code == 0
        assert "capacity: 0.531004" in res.output

    def test_parse_failure_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        res = runner.invoke(main, ["capacity", str(bad)])
        assert res.exit_code == 2

    def test_json_mode(self, runner):
        res = runner.invoke(main, ["capacity", NOISELESS, "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output.strip().splitlines()[-1])
        assert doc["capacity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["prior"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_nats_conversion(self, runner):
        res = runner.invoke(main, ["capacity", NOISELESS, "--nats"])
        assert res.exit_code == 0
        assert f"capacity: {np.log(2):.6f}" in res.output


class TestRenyi:
    def test_orthogonal_uniform_prior(self, runner):
        res = runner.invoke(main, ["renyi", NOISELESS, "--alpha", "0.5", "--prior", "0.5,0.5"])
        assert res.exit_code == 0
        assert "renyi_mi: 1.000000" in res.output

    def test_alpha_one_is_holevo(self, runner):
        res = runner.invoke(main, ["renyi", BSC, "--alpha", "1.0"])
        assert res.exit_code == 0
        assert "renyi_mi: 0.531004" in res.output

    def test_optimized_prior_reported(self, runner):
        res = runner.invoke(main, ["renyi", NOISELESS, "--alpha", "0.5"])
        assert res.exit_code == 0
        assert "renyi_mi: 1.000000" in res.output
        assert "prior:" in res.output

    @pytest.mark.parametrize("draw", [34, 38])
    def test_eight_letter_qubit_draws_exit_0(self, runner, tmp_path, draw):
        path = _letters_file(tmp_path, f"draw{draw}.json", draw_letters(draw)[1])
        for args in (["--alpha", "0.3"], ["--alpha", "0.7"], ["--alpha", "1.0"]):
            assert runner.invoke(main, ["renyi", path, *args]).exit_code == 0
        assert runner.invoke(main, ["capacity", path]).exit_code == 0

    def test_letter_with_eigenvalue_inside_load_tolerance(self, runner, tmp_path):
        # diag(1 + 5e-9, -5e-9) passes the 1e-8 load check; its negative
        # eigenvalue is cut to 0 once, in the channel's spectra, so every
        # command runs and renyi matches the letter with that eigenvalue at 0.
        def spec(low):
            letters = [[[1.0 + 5e-9, 0.0], [0.0, low]], [[0.5, 0.5], [0.5, 0.5]]]
            path = tmp_path / f"letters{low}.json"
            path.write_text(json.dumps({
                "cqspec": 1,
                "dim": 2,
                "outputs": [[[[x, 0.0] for x in row] for row in rho] for rho in letters],
            }), encoding="utf-8")
            return str(path)

        near, clipped = spec(-5e-9), spec(0.0)
        for args in (
            ["capacity"],
            ["renyi", "--alpha", "0.3"],
            ["exponent", "--rmin", "0.05", "--rmax", "0.5", "--steps", "3"],
            ["simulate", "--rate", "0.3", "--n-list", "2,4", "--trials", "2", "--seed", "1"],
            ["besttype", "--alpha", "0.5", "--nmax", "3"],
        ):
            res = runner.invoke(main, [args[0], near, *args[1:]])
            assert res.exit_code == 0, (args, res.output)

        def renyi(path):
            res = runner.invoke(main, ["renyi", path, "--alpha", "0.3", "--json"])
            return json.loads(res.output.strip().splitlines()[-1])["renyi_mi"]

        assert renyi(near) == pytest.approx(renyi(clipped), abs=1e-7)

    def test_wrong_prior_length_exit_2(self, runner):
        res = runner.invoke(main, ["renyi", BSC, "--alpha", "0.5", "--prior", "0.2,0.3,0.5"])
        assert res.exit_code == 2

    def test_alpha_out_of_range_exit_2(self, runner):
        for alpha in ("0", "1.2", "-0.3"):
            res = runner.invoke(main, ["renyi", BSC, "--alpha", alpha])
            assert res.exit_code == 2


class TestExponent:
    def test_single_step_emits_header_and_row(self, runner):
        res = runner.invoke(main, ["exponent", BSC, "--rmin", "0.3", "--rmax", "0.4", "--steps", "1"])
        assert res.exit_code == 0
        header, rows = rows_of(res.output)
        assert header == ["r", "lower", "upper", "equal", "alpha_lower", "alpha_upper", "r_c", "capacity"]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(0.3)

    def test_equal_flags_and_monotone_lower(self, runner):
        res = runner.invoke(main, [
            "exponent", BSC, "--rmin", "0.05", "--rmax", "0.5", "--steps", "6",
        ])
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        lowers = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-8 for a, b in zip(lowers, lowers[1:]))
        for r in rows:
            rate, rc = float(r[0]), float(r[6])
            assert r[3] == ("1" if rate >= rc - 1e-9 else "0")
            if r[3] == "1":
                assert float(r[1]) == pytest.approx(float(r[2]), abs=1e-7)

    def test_rows_above_capacity_flagged(self, runner):
        res = runner.invoke(main, [
            "exponent", BSC, "--rmin", "0.4", "--rmax", "0.8", "--steps", "3",
        ])
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        cap = float(rows[0][7])
        for r in rows:
            if float(r[0]) >= cap:
                assert r[3] == "above_capacity"
                assert float(r[1]) == 0.0 and float(r[2]) == 0.0

    def test_invalid_range_exit_2(self, runner):
        res = runner.invoke(main, ["exponent", BSC, "--rmin", "0.4", "--rmax", "0.2", "--steps", "3"])
        assert res.exit_code == 2

    def test_json_rows(self, runner):
        res = runner.invoke(main, [
            "exponent", BSC, "--rmin", "0.3", "--rmax", "0.4", "--steps", "2", "--json",
        ])
        assert res.exit_code == 0
        docs = [json.loads(ln) for ln in res.output.strip().splitlines() if ln.startswith("{")]
        assert len(docs) == 2
        assert docs[0]["equal"] == "1"

    def test_near_deterministic_channel_matches_oracle(self, runner, tmp_path):
        # Crossover 1e-13, below the relative support cutoff: the
        # sphere-packing bound still sees it.
        p = 1e-13
        w = [[1.0 - p, p], [p, 1.0 - p]]
        path = tmp_path / "bsc_tiny.json"
        path.write_text(json.dumps({"cqspec": 1, "stochastic_matrix": w}), encoding="utf-8")
        res = runner.invoke(main, ["exponent", str(path), "--rmin", "0.3", "--rmax", "0.6", "--steps", "2"])
        assert res.exit_code == 0
        _, rows = rows_of(res.stdout)
        for row in rows:
            oracle = classical_sphere_packing_exponent(np.array(w), float(row[0]))
            assert float(row[2]) == pytest.approx(oracle, rel=1e-8)
        assert "saturated" not in res.output


class TestSimulate:
    def test_single_message_rows(self, runner):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "1", "--trials", "3", "--seed", "1",
        ])
        assert res.exit_code == 0
        header, rows = rows_of(res.output)
        assert header == ["n", "M", "best_pe", "mean_pe", "implied_exponent", "lower_bound", "upper_bound"]
        assert rows[0][1] == "1"
        assert float(rows[0][2]) == 0.0

    def test_noiseless_bit_perfect(self, runner):
        res = runner.invoke(main, [
            "simulate", NOISELESS, "--rate", "0.5", "--n-list", "2,4", "--trials", "5", "--seed", "3",
        ])
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        for r in rows:
            assert float(r[2]) == 0.0
            assert r[4] == "inf"

    @pytest.mark.parametrize("trials,seed", [(8, 21), (10, 13)], ids=["seed21", "seed13"])
    def test_byte_identical_reruns(self, runner, trials, seed):
        args = ["simulate", BSC, "--rate", "0.3", "--n-list", "2,4", "--trials", str(trials), "--seed", str(seed)]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    @pytest.mark.parametrize("n_list", ["2,4", "1"])
    def test_negative_seed_exit_2(self, runner, n_list):
        # n = 1 at R = 0.3 draws no codebook; the seed is rejected all the same.
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", n_list, "--trials", "2", "--seed", "-1",
        ])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: expected non-negative integer")

    def test_seed_past_32_bits(self, runner):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "2,4", "--trials", "3", "--seed", str(2 ** 32),
        ])
        assert res.exit_code == 0
        low = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "2,4", "--trials", "3", "--seed", "0",
        ])
        assert len(rows_of(res.output)[1]) == 2
        assert res.output != low.output  # 2^32 is the words [0, 1], not a wrapped 0

    def test_resource_cap_exit_4(self, runner):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "20", "--trials", "2", "--seed", "1",
        ])
        assert res.exit_code == 4

    @pytest.mark.parametrize("channel", [BSC, PURE_PAIR])
    def test_codebook_size_past_float_range_exit_4(self, runner, channel):
        # n R = 1200: M = 2^1200 does not fit in a float, and exceeds every cap.
        res = runner.invoke(main, [
            "simulate", channel, "--rate", "0.3", "--n-list", "4000", "--trials", "1", "--seed", "1",
        ])
        assert res.exit_code == 4
        assert res.stderr.startswith("error: ")

    def test_gram_path_passes_the_state_cap(self, runner):
        # Pure letters: n = 12 means M = 12 codewords in a 4096-dimensional
        # space; --max-dim caps M on the Gram path.
        args = ["simulate", PURE_PAIR, "--rate", "0.3", "--n-list", "12", "--trials", "2", "--seed", "1"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        assert rows[0][:2] == ["12", "12"]
        assert runner.invoke(main, args + ["--max-dim", "8"]).exit_code == 4

    def test_nearly_commuting_letters_exit_0(self, runner, tmp_path):
        # I/2 + 5e-6 sigma_z and I/2 + 5e-6 sigma_x: the commutator is 5e-11,
        # but no basis makes both diagonal, so the dense path runs.
        from cqexp import ChannelAnalysis, ConstantComposition, IID, estimate_exponent, generate_codebook
        from cqexp import load_channel, nearest_type
        from cqexp.coding import _pgm_error_dense
        from cqexp.config import DEFAULT_CONFIG

        eps = 5e-6
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"cqspec": 1, "dim": 2, "outputs": [
            [[[0.5 + eps, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5 - eps, 0.0]]],
            [[[0.5, 0.0], [eps, 0.0]], [[eps, 0.0], [0.5, 0.0]]],
        ]}), encoding="utf-8")
        args = ["simulate", str(path), "--rate", "0.3", "--n-list", "2,4", "--trials", "2", "--seed", "1"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        channel = load_channel(path)
        assert not channel.is_classical()
        rows = estimate_exponent(channel, 0.3, [2, 4], 2, 1)
        records = [rec for row in rows for rec in row.trials]
        session = ChannelAnalysis(channel)
        prior = session.mutual_info(session.lower_bound(0.3).alpha).prior
        for rec in records:
            mode_idx = ("iid", "cc").index(rec.mode)
            mode = IID(prior=prior) if mode_idx == 0 else ConstantComposition(nearest_type(prior, rec.n))
            book = generate_codebook(2, rec.n, 2, mode, seed=[1, rec.n, rec.trial, mode_idx])
            assert rec.ml_pe is None
            assert rec.pe == _pgm_error_dense(channel, book, DEFAULT_CONFIG)
        _, printed = rows_of(res.output)
        assert [float(r[2]) for r in printed] == [float(f"{row.best_pe:.9g}") for row in rows]

    @pytest.mark.parametrize("n, power", [("4000", "about 10^1204"), ("20000", "about 10^6020")])
    def test_huge_state_dimension_exit_4(self, runner, n, power):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", n, "--trials", "1", "--seed", "1",
        ])
        assert res.exit_code == 4
        assert res.stderr == f"error: dimension {power} exceeds simulation cap 256\n"


class TestNonFiniteInputs:
    """Codebook sizes past the ceiling exit 4; NaN and infinite rates or
    priors exit 2, with no traceback and no NaN row."""

    @pytest.mark.parametrize("channel", [BSC, PURE_PAIR])
    def test_rate_600_exit_4(self, runner, channel):
        res = runner.invoke(main, [
            "simulate", channel, "--rate", "600", "--n-list", "2", "--trials", "1", "--seed", "1",
        ])
        assert res.exit_code == 4
        assert res.stderr == "error: codebook size 2^1200 exceeds ceiling 4096\n"

    def test_rate_past_float_range_exit_4(self, runner):
        # n R = 1e300: 2^(nR) is never formed, as a float or as an integer.
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "1e300", "--n-list", "1", "--trials", "1", "--seed", "1",
        ])
        assert res.exit_code == 4
        assert res.stderr == "error: codebook size 2^1e+300 exceeds ceiling 4096\n"

    @pytest.mark.parametrize("args", [
        ["simulate", BSC, "--rate", "nan", "--n-list", "2", "--trials", "1", "--seed", "1"],
        ["simulate", BSC, "--rate", "inf", "--n-list", "2", "--trials", "1", "--seed", "1"],
        ["simulate", BSC, "--rate", "0", "--n-list", "2", "--trials", "1", "--seed", "1"],
        ["exponent", BSC, "--rmin", "0.05", "--rmax", "inf", "--steps", "3"],
        ["exponent", BSC, "--rmin", "nan", "--rmax", "0.3", "--steps", "3"],
        ["renyi", BSC, "--alpha", "0.5", "--prior", "nan,0.5"],
        ["renyi", BSC, "--alpha", "1", "--prior", "nan,0.5"],
    ])
    def test_exit_2(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")


class TestMaxDim:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["simulate", BSC, "--rate", "0.3", "--n-list", "2", "--trials", "1", "--seed", "1"],
        ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "2"],
    ])
    def test_below_one_exit_2(self, runner, command, value):
        res = runner.invoke(main, command + ["--max-dim", value])
        assert res.exit_code == 2
        assert "max_sim_dim must be >= 1" in res.output


class TestBestType:
    def test_first_row_is_vertex_value(self, runner):
        res = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "2"])
        assert res.exit_code == 0
        header, rows = rows_of(res.output)
        assert header == ["n", "best_type", "value_per_use", "I_alpha_target"]
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)

    def test_column_monotone_and_below_target(self, runner):
        res = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "5"])
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        values = [float(r[2]) for r in rows]
        target = float(rows[0][3])
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))
        assert all(v <= target + 1e-8 for v in values)

    @pytest.mark.parametrize("channel, max_dim, message", [
        (PURE_PAIR, "256", "eigenvalue count 50001 exceeds cap 256"),
        (BSC, "256", "eigenvalue count 100001 exceeds cap 256"),
        (PURE_PAIR, "1000000000", "83338333450001 table entries at one blocklength exceed ceiling 16777216"),
        (BSC, "1000000000", "20000400002 table entries at one blocklength exceed ceiling 16777216"),
    ])
    def test_huge_nmax_exit_4_before_any_type_is_built(self, runner, monkeypatch, channel, max_dim, message):
        monkeypatch.setattr(analysis, "type_counts", None)  # a type stack would exit 1
        res = runner.invoke(main, ["besttype", channel, "--alpha", "0.5", "--nmax", "100000", "--max-dim", max_dim])
        assert res.exit_code == 4
        assert res.stderr == f"error: {message}\n"

    def test_alpha_one_rejected(self, runner):
        res = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "1", "--nmax", "3"])
        assert res.exit_code == 2

    def test_unconverged_target_exit_3(self, runner, monkeypatch):
        solve = cli.renyi_mi_channel

        def unconverged(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli, "renyi_mi_channel", unconverged)
        res = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "2"])
        assert res.exit_code == 3

    def test_nats_scales_values(self, runner):
        bits = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "2"])
        nats = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "2", "--nats"])
        _, rows_b = rows_of(bits.output)
        _, rows_n = rows_of(nats.output)
        assert float(rows_n[1][2]) == pytest.approx(float(rows_b[1][2]) * np.log(2), abs=1e-9)


class TestFormatting:
    def test_nine_significant_digits(self, runner):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "2", "--trials", "2", "--seed", "5",
        ])
        _, rows = rows_of(res.output)
        best_pe = rows[0][2]
        mantissa = best_pe.replace("-", "").replace(".", "").lstrip("0").rstrip("0")
        assert len(mantissa) <= 9

    def test_zero_optimum_prints_without_sign(self, runner, tmp_path):
        # Equal pure letters: the solvers return exactly -0.0 for chi and I_alpha.
        path = tmp_path / "equal.json"
        path.write_text(json.dumps({"cqspec": 1, "stochastic_matrix": [[1, 0], [1, 0]]}), encoding="utf-8")
        for args, zero in (
            (["capacity"], "capacity: 0.000000"),
            (["capacity", "--json"], '"capacity":0.0,'),
            (["capacity", "--nats"], "capacity: 0.000000"),
            (["renyi", "--alpha", "0.5"], "renyi_mi: 0.000000"),
            (["renyi", "--alpha", "0.5", "--prior", "0.5,0.5"], "renyi_mi: 0.000000"),
            (["renyi", "--alpha", "0.5", "--json"], '"renyi_mi":0.0,'),
        ):
            res = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert res.exit_code == 0, res.output
            assert zero in res.output and "-0.0" not in res.output, (args, res.output)

    def test_one_letter_channel_prints_zero_information(self, runner, tmp_path):
        # The only prior is a vertex, where I_alpha and C are exactly 0; at
        # alpha = 1/2 rounding took I_alpha to -3.2e-16, printed as -0.000000,
        # and at alpha = 0.9 to 1.44e-15, printed in full by --json.
        path = tmp_path / "useless.json"
        path.write_text(json.dumps({"cqspec": 1, "dim": 2, "outputs": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}))
        for args, zero in (
            (["renyi", "--alpha", "0.5"], "renyi_mi: 0.000000\n"),
            (["renyi", "--alpha", "0.5", "--json"], '"renyi_mi":0.0,'),
            (["renyi", "--alpha", "0.1", "--json"], '"renyi_mi":0.0,'),
            (["renyi", "--alpha", "0.9", "--json"], '"renyi_mi":0.0,'),
            (["capacity"], "capacity: 0.000000\n"),
            (["capacity", "--json"], '"capacity":0.0,'),
        ):
            res = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert res.exit_code == 0, res.output
            assert zero in res.stdout, (args, res.stdout)
        res = runner.invoke(main, ["besttype", str(path), "--alpha", "0.5", "--nmax", "3"])
        assert res.exit_code == 0
        assert [row[3] for row in rows_of(res.stdout)[1]] == ["0", "0", "0"]
        # r_c = E0'(1), whose alpha = 1/2 slope rounded to -1.1e-16 here.
        res = runner.invoke(main, ["exponent", str(path), "--rmin", "0.1", "--rmax", "0.2", "--steps", "2"])
        assert res.exit_code == 0
        header, rows = rows_of(res.stdout)
        assert [row[header.index("r_c")] for row in rows] == ["0", "0"]

    def test_json_lines_are_strict_json(self, runner):
        # RFC 8259 has no Infinity or NaN: a non-finite cell prints as the
        # CSV token. Every M = 1 row has an infinite implied exponent.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        for args in (
            ["simulate", NOISELESS, "--rate", "0.5", "--n-list", "2,4", "--trials", "2", "--seed", "1"],
            ["exponent", BSC, "--rmin", "0.05", "--rmax", "0.5", "--steps", "3"],
            ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "3"],
            ["capacity", BSC],
            ["renyi", BSC, "--alpha", "0.5"],
        ):
            res = runner.invoke(main, [*args, "--json"])
            assert res.exit_code == 0, res.output
            lines = res.stdout.strip().splitlines()
            docs = [json.loads(line, parse_constant=reject) for line in lines]
            if args[0] == "simulate":
                assert [doc["implied_exponent"] for doc in docs] == ["inf", "inf"]


class TestRerunsAndSaturation:
    def test_exponent_reruns_identical(self, runner):
        args = ["exponent", BSC, "--rmin", "0.1", "--rmax", "0.4", "--steps", "3"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_sphere_packing_saturation_warning(self, runner):
        # Orthogonal pure outputs: the upper-bound objective grows linearly in
        # s, so the search pins at the alpha floor and the row reports the
        # truncated value with a stderr diagnostic.
        res = runner.invoke(main, [
            "exponent", NOISELESS, "--rmin", "0.5", "--rmax", "0.6", "--steps", "1",
        ])
        assert res.exit_code == 0
        _, rows = rows_of(res.output)
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-6)   # (1-a)/a (1-r) at a=1/2
        assert float(rows[0][2]) == pytest.approx(49.5, abs=1e-4)  # pinned at alpha = 0.01
        err = res.stderr if hasattr(res, "stderr") else ""
        assert "saturated" in (err or res.output)

    @pytest.mark.parametrize("nats", [False, True])
    def test_saturation_warning_names_the_rate_cells(self, runner, nats):
        # pure_pair's sphere-packing search saturates at its low rates; the
        # warning names them in the units of the r column.
        args = ["exponent", PURE_PAIR, "--rmin", "0.05", "--rmax", "0.5", "--steps", "10"]
        res = runner.invoke(main, args + ["--nats"] * nats)
        assert res.exit_code == 0
        _, rows = rows_of(res.stdout)
        curve = ChannelAnalysis(load_channel(PURE_PAIR)).curve(np.linspace(0.05, 0.5, 10))
        saturated = [cells[0] for cells, row in zip(rows, curve.rows) if row.upper_saturated]
        assert saturated
        warned = res.stderr.strip().rsplit(" ", 1)[1].split(",")
        assert [float(x) for x in warned] == [float(f"{float(cell):.6g}") for cell in saturated]


# Stdout of the README/benchmark commands. Every row is the one the dense
# d^n path printed, except the n = 1 besttype row: there the dense path's
# rounding noise (9.6e-16 for the one-sequence class of |+>) broke the tie
# between two classes that are exactly 0, and now the first enumerated
# type wins.
GOLDEN_SIMULATE_PURE_PAIR = """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.0669872981,0.280475817,1.94998431,0.115037499,0.115043006
4,2,0.0158770817,0.0960704638,1.49422761,0.115037499,0.115043006
6,3,0.0285954792,0.12165144,0.854678185,0.115037499,0.115043006
8,5,0.0425961574,0.101100927,0.569141612,0.115037499,0.115043006
"""

# The README's simulate command on bsc01, on the diagonal path.
GOLDEN_SIMULATE_BSC01 = """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.109756098,0.281834146,1.5938135,0.0520626224,0.0520626224
4,2,0.0316121646,0.148132427,1.24584409,0.0520626224,0.0520626224
6,3,0.0562454593,0.149639416,0.692019926,0.0520626224,0.0520626224
8,5,0.0682262675,0.151155684,0.484191112,0.0520626224,0.0520626224
"""

GOLDEN_BESTTYPE_PURE_PAIR = """\
n,best_type,value_per_use,I_alpha_target
1,1|0,0,0.415037499
2,1|1,0.339035953,0.415037499
3,1|1,0.339035953,0.415037499
4,2|2,0.385142095,0.415037499
5,2|2,0.385142095,0.415037499
6,3|3,0.397548359,0.415037499
7,3|3,0.397548359,0.415037499
8,4|4,0.402705152,0.415037499
"""

# The commuting type-class path, on bsc01.
GOLDEN_BESTTYPE_BSC01 = """\
n,best_type,value_per_use,I_alpha_target
1,1|0,0,0.321928095
2,1|1,0.278196674,0.321928095
3,1|1,0.278196674,0.321928095
4,2|2,0.305854676,0.321928095
5,2|2,0.305854676,0.321928095
6,3|3,0.312477187,0.321928095
7,3|3,0.312477187,0.321928095
8,4|4,0.315223489,0.321928095
"""


ALL_COMMANDS = [
    ["capacity"],
    ["renyi", "--alpha", "0.5"],
    ["exponent", "--rmin", "0.1", "--rmax", "0.5", "--steps", "3"],
    ["simulate", "--rate", "0.3", "--n-list", "1,2", "--trials", "2", "--seed", "1"],
    ["besttype", "--alpha", "0.5", "--nmax", "2"],
]


class TestAlphabetCeiling:
    @pytest.mark.parametrize("args", ALL_COMMANDS, ids=[args[0] for args in ALL_COMMANDS])
    def test_257_letters_exit_4_before_any_surrogate_is_built(self, runner, monkeypatch, tmp_path, args):
        # The |X| x |X| Hessian of the prior solve is held to 2^16 entries.
        path = _letters_file(tmp_path, "wide.json", [np.ones((1, 1))] * 257)
        for name in ("_renyi_surrogate", "_holevo_surrogate"):
            monkeypatch.setattr(analysis, name, None)  # building one would exit 1
        res = runner.invoke(main, [args[0], path, *args[1:]])
        assert res.exit_code == 4
        assert res.stderr == "error: 66049 Hessian entries of alphabet 257 exceed ceiling 65536\n"

    def test_16_letters_exit_0(self, runner, tmp_path):
        # N (x) N of a four-letter qubit channel: 16 letters of dimension 4.
        base = random_channel(4, 2, np.random.default_rng([6060, 0]))
        path = _letters_file(tmp_path, "product.json", base.tensor(base).outputs)
        for args in ALL_COMMANDS:
            res = runner.invoke(main, [args[0], path, *args[1:]])
            assert res.exit_code == 0, (args, res.output)
        res = runner.invoke(main, ["capacity", path, "--json"])
        capacity = json.loads(res.stdout)["capacity"]
        assert capacity == pytest.approx(2.0 * holevo_capacity(base).value, rel=0, abs=1e-9)


class TestGoldenOutputs:
    def test_simulate_pure_pair(self, runner):
        res = runner.invoke(main, [
            "simulate", PURE_PAIR, "--rate", "0.3", "--n-list", "2,4,6,8", "--trials", "50", "--seed", "1",
        ])
        assert res.exit_code == 0
        assert res.stdout == GOLDEN_SIMULATE_PURE_PAIR

    def test_simulate_bsc01(self, runner):
        res = runner.invoke(main, [
            "simulate", BSC, "--rate", "0.3", "--n-list", "2,4,6,8", "--trials", "200", "--seed", "1",
        ])
        assert res.exit_code == 0
        assert res.stdout == GOLDEN_SIMULATE_BSC01

    def test_besttype_pure_pair(self, runner):
        res = runner.invoke(main, ["besttype", PURE_PAIR, "--alpha", "0.5", "--nmax", "8"])
        assert res.exit_code == 0
        assert res.stdout == GOLDEN_BESTTYPE_PURE_PAIR

    def test_besttype_bsc01(self, runner):
        res = runner.invoke(main, ["besttype", BSC, "--alpha", "0.5", "--nmax", "8"])
        assert res.exit_code == 0
        assert res.stdout == GOLDEN_BESTTYPE_BSC01


# Stdout of the two golden simulate commands at seeds whose stream keys
# [seed, n, trial, mode] hash as rows of 4, 5 and 6 SeedSequence words.
GOLDEN_SIMULATE_SEEDS = {
    ("pure_pair", 0): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.0669872981,0.238406572,1.94998431,0.115037499,0.115043006
4,2,0.0158770817,0.111820406,1.49422761,0.115037499,0.115043006
6,3,0.0285954792,0.102832717,0.854678185,0.115037499,0.115043006
8,5,0.037001576,0.102358961,0.594533684,0.115037499,0.115043006
""",
    ("bsc01", 0): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.109756098,0.265678049,1.5938135,0.0520626224,0.0520626224
4,2,0.0316121646,0.14310315,1.24584409,0.0520626224,0.0520626224
6,3,0.0562454593,0.145097666,0.692019926,0.0520626224,0.0520626224
8,5,0.0725068263,0.152907631,0.47321742,0.0520626224,0.0520626224
""",
    ("pure_pair", 4294967296): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.0669872981,0.264387334,1.94998431,0.115037499,0.115043006
4,2,0.0158770817,0.110345631,1.49422761,0.115037499,0.115043006
6,3,0.0285954792,0.115868167,0.854678185,0.115037499,0.115043006
8,5,0.0432019006,0.114879869,0.566595176,0.115037499,0.115043006
""",
    ("bsc01", 4294967296): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.109756098,0.289287805,1.5938135,0.0520626224,0.0520626224
4,2,0.0316121646,0.150348397,1.24584409,0.0520626224,0.0520626224
6,3,0.0562454593,0.147316053,0.692019926,0.0520626224,0.0520626224
8,5,0.072355491,0.154608116,0.47359421,0.0520626224,0.0520626224
""",
    ("pure_pair", 18446744073709551619): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.0669872981,0.229389156,1.94998431,0.115037499,0.115043006
4,2,0.0158770817,0.0829447622,1.49422761,0.115037499,0.115043006
6,3,0.0285954792,0.0961933876,0.854678185,0.115037499,0.115043006
8,5,0.0353779427,0.0977557275,0.602625755,0.115037499,0.115043006
""",
    ("bsc01", 18446744073709551619): """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.109756098,0.272839024,1.5938135,0.0520626224,0.0520626224
4,2,0.0316121646,0.132714042,1.24584409,0.0520626224,0.0520626224
6,3,0.0562454593,0.141775691,0.692019926,0.0520626224,0.0520626224
8,5,0.0713552027,0.14698494,0.476104696,0.0520626224,0.0520626224
""",
}


@pytest.mark.parametrize("name, seed", list(GOLDEN_SIMULATE_SEEDS))
def test_golden_simulate_seeds(runner, name, seed):
    channel, trials = {"pure_pair": (PURE_PAIR, "50"), "bsc01": (BSC, "200")}[name]
    res = runner.invoke(main, [
        "simulate", channel, "--rate", "0.3", "--n-list", "2,4,6,8", "--trials", trials, "--seed", str(seed),
    ])
    assert res.exit_code == 0
    assert res.stdout == GOLDEN_SIMULATE_SEEDS[name, seed]


def test_import_loads_no_numpy_random():
    # numpy.random adds its own import time to every CLI start; cqexp loads
    # it when it first draws a codebook, as the second line shows.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})\n"
        "import cqexp.cli\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
        "cqexp.coding.generate_codebook(2, 3, 2, cqexp.coding.IID(prior=[0.5, 0.5]), seed=0)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True"]
