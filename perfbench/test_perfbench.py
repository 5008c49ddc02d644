"""Tests of the benchmark itself: output checks, trace arithmetic, inputs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BSC = str(ROOT / "channels" / "bsc01.json")
PURE_PAIR = str(ROOT / "channels" / "pure_pair.json")

# CLI stdout of the README commands at commit 0593e05.
EXPONENT_BSC = """\
r,lower,upper,equal,alpha_lower,alpha_upper,r_c,capacity
0.05,0.271928095,0.372110374,0,0.5,0.243926175,0.188721876,0.531004406
0.1,0.221928095,0.25376072,0,0.5,0.35140977,0.188721876,0.531004406
0.15,0.171928095,0.177032018,0,0.5,0.438819915,0.188721876,0.531004406
0.2,0.122307085,0.122307085,1,0.517143717,0.517143712,0.188721876,0.531004406
0.25,0.0819575373,0.0819575373,1,0.590745421,0.590745415,0.188721876,0.531004406
0.3,0.0520626224,0.0520626224,1,0.662007871,0.662007869,0.188721876,0.531004406
0.35,0.0302933174,0.0302933174,1,0.732518405,0.732518405,0.188721876,0.531004406
0.4,0.0151367548,0.0151367548,1,0.80351526,0.803515266,0.188721876,0.531004406
0.45,0.00554978071,0.00554978071,1,0.876106208,0.876106186,0.188721876,0.531004406
0.5,0.000783171784,0.000783171784,1,0.951407764,0.951407754,0.188721876,0.531004406
"""
EXPONENT_ARGS = ("--rmin", "0.05", "--rmax", "0.5", "--steps", "10")

SIMULATE_PURE = """\
n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound
2,2,0.0669872981,0.280475817,1.94998431,0.115037499,0.115043006
4,2,0.0158770817,0.0960704638,1.49422761,0.115037499,0.115043006
6,3,0.0285954792,0.12165144,0.854678185,0.115037499,0.115043006
8,5,0.0425961574,0.101100927,0.569141612,0.115037499,0.115043006
"""
SIMULATE_ARGS = ("--rate", "0.3", "--n-list", "2,4,6,8", "--trials", "50", "--seed", "1")

BESTTYPE_PURE = """\
n,best_type,value_per_use,I_alpha_target
1,0|1,9.61027951e-16,0.415037499
2,1|1,0.339035953,0.415037499
3,1|1,0.339035953,0.415037499
4,2|2,0.385142095,0.415037499
5,2|2,0.385142095,0.415037499
6,3|3,0.397548359,0.415037499
7,3|3,0.397548359,0.415037499
8,4|4,0.402705152,0.415037499
"""
BESTTYPE_ARGS = ("--alpha", "0.5", "--nmax", "8")


def _replace_field(csv: str, row: int, column: str, value: str) -> str:
    lines = csv.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


# ---------------------------------------------------------------------------
# References.


def test_bsc_reference_matches_textbook_values():
    ref = checks.bsc_reference(0.1)
    h = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert ref.capacity == pytest.approx(1 - h, abs=1e-15)
    assert ref.de0(0.0) == pytest.approx(1 - h, abs=1e-12)
    # E0'(1) against a central difference of the closed form.
    eps = 1e-5
    assert ref.critical_rate == pytest.approx((ref.e0(1 + eps) - ref.e0(1 - eps)) / (2 * eps), abs=1e-8)
    # Above r_c both bounds are E0(s*) - s* r with the same s* < 1.
    r = 0.3
    assert ref.lower(r) == pytest.approx(ref.upper(r), abs=1e-12)
    assert ref.lower(0.1) < ref.upper(0.1)


def test_pure_pair_reference_matches_gram_spectrum():
    doc, outputs = checks.load_outputs(PURE_PAIR)
    ref = checks.reference_for(doc, outputs)
    lam = np.linalg.eigvalsh(outputs.mean(axis=0))
    holevo = -(lam * np.log2(lam)).sum()
    assert ref.capacity == pytest.approx(holevo, abs=1e-12)
    # alpha = 1/2 at the uniform prior: I = -log2 tr[rho_bar^2] for pure letters.
    assert ref.renyi_mi(0.5) == pytest.approx(-math.log2((lam ** 2).sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# Checks accept seed-commit output and reject perturbed output.


def test_exponent_check_accepts_real_output_and_rejects_perturbations(checker):
    assert checker.check("exponent", BSC, EXPONENT_ARGS, EXPONENT_BSC) == []
    perturbed = [
        _replace_field(EXPONENT_BSC, 0, "capacity", "0.532004406"),  # capacity off by 1e-3
        _replace_field(EXPONENT_BSC, 1, "lower", "0.26"),  # lower > upper
        _replace_field(EXPONENT_BSC, 2, "equal", "1"),  # equal below r_c
        _replace_field(EXPONENT_BSC, 5, "equal", "0"),  # not equal above r_c
        _replace_field(EXPONENT_BSC, 4, "r_c", "0.188731876"),  # r_c off by 1e-5
        _replace_field(EXPONENT_BSC, 6, "upper", "0.0302943174"),  # bound off by 1e-6
    ]
    for stdout in perturbed:
        assert checker.check("exponent", BSC, EXPONENT_ARGS, stdout), stdout


def test_simulate_check(checker):
    assert checker.check("simulate", PURE_PAIR, SIMULATE_ARGS, SIMULATE_PURE) == []
    for stdout in (
        _replace_field(SIMULATE_PURE, 3, "M", "6"),  # M != round(2^(n r))
        _replace_field(SIMULATE_PURE, 0, "best_pe", "0.3"),  # best_pe > mean_pe
        _replace_field(SIMULATE_PURE, 1, "lower_bound", "0.116037499"),
        SIMULATE_PURE.rsplit("\n", 2)[0] + "\n",  # a missing row
    ):
        assert checker.check("simulate", PURE_PAIR, SIMULATE_ARGS, stdout), stdout


def test_besttype_check(checker):
    assert checker.check("besttype", PURE_PAIR, BESTTYPE_ARGS, BESTTYPE_PURE) == []
    for stdout in (
        _replace_field(BESTTYPE_PURE, 4, "value_per_use", "0.38"),  # decreasing
        _replace_field(BESTTYPE_PURE, 7, "value_per_use", "0.416"),  # above I_alpha
        _replace_field(BESTTYPE_PURE, 7, "best_type", "5|3"),  # wrong type value
        _replace_field(BESTTYPE_PURE, 5, "value_per_use", "0.397549359"),  # off by 1e-6
    ):
        assert checker.check("besttype", PURE_PAIR, BESTTYPE_ARGS, stdout), stdout


def test_capacity_check_on_bsc(checker):
    good = "capacity: 0.531004\nprior: 0.5,0.5\n"
    assert checker.check("capacity", BSC, (), good) == []
    assert checker.check("capacity", BSC, (), "capacity: 0.532004\nprior: 0.5,0.5\n")
    # A prior that is not optimal.
    assert checker.check("capacity", BSC, (), "capacity: 0.531004\nprior: 0.6,0.4\n")
    assert checker.check("capacity", BSC, (), "capacity: 0.531004\n")


def test_prior_certificates_on_cli_output(checker, tmp_path):
    """Real renyi/capacity output on a generated channel passes; a moved prior fails."""
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(workloads.prior_channel_docs(3)[0]))
    for command, args, key in (("renyi", ("--alpha", "0.3"), "renyi_mi"), ("capacity", (), "capacity")):
        op = workloads.Op(command, str(path), args, command)
        res = run.run_op(op)
        assert res.code == 0, res.stderr
        assert checker.check(command, str(path), args, res.stdout) == []
        value, prior = checks._value_and_prior(res.stdout, key)
        moved = prior + np.array([0.02, -0.02, 0.0])
        stdout = f"{key}: {value:.6f}\nprior: " + ",".join(f"{p:.9g}" for p in moved) + "\n"
        assert any("gap" in p for p in checker.check(command, str(path), args, stdout))


# ---------------------------------------------------------------------------
# Trace arithmetic.


def _synthetic_spans():
    # 0 cli [0, 100] -> 1 analysis [10, 40], 2 analysis [50, 90] -> 3 eigh [60, 70]
    names = ["cqexp.cli.exponent", "cqexp.analysis.renyi_mi_channel", "numpy.linalg.eigh"]
    return tracing.Spans(
        names=names,
        name=np.array([0, 1, 1, 2]),
        start=np.array([0, 10, 50, 60]) * 10**9,
        end=np.array([100, 40, 90, 70]) * 10**9,
        parent=np.array([-1, 0, 0, 2]),
        op=np.zeros(4, dtype=int),
    )


def test_self_time_arithmetic():
    spans = _synthetic_spans()
    assert spans.self_seconds().tolist() == [30.0, 30.0, 30.0, 10.0]
    assert spans.layer_self_seconds() == {"cli": 30.0, "analysis": 60.0, "linalg": 10.0}
    assert spans.under(spans.member(["cqexp.analysis.renyi_mi_channel"])).tolist() == [
        False, False, False, True]


def test_outermost_counts_nested_solves_once():
    # holevo_capacity nested in renyi_mi_channel (alpha = 1) is one solve.
    names = ["cqexp.analysis.renyi_mi_channel", "cqexp.analysis.holevo_capacity"]
    spans = tracing.Spans(names, np.array([0, 1, 1]), np.array([0, 1, 5]),
                          np.array([4, 3, 6]), np.array([-1, 0, -1]), np.zeros(3, dtype=int))
    assert spans.outermost(tracing.SOLVES).tolist() == [True, False, True]


def test_select_reindexes_parents():
    spans = _synthetic_spans()
    sub = spans.select(np.array([True, False, True, True]))
    assert sub.parent.tolist() == [-1, 0, 1]
    assert sub.self_seconds().tolist() == [60.0, 30.0, 10.0]


def test_traced_stdout_is_byte_identical_and_instrument_undoes(tmp_path):
    import cqexp.analysis
    import cqexp.simplex_opt

    original = (cqexp.analysis.renyi_mi_channel, np.linalg.eigh,
                cqexp.analysis.ChannelAnalysis.lower_bound)
    op = workloads.Op("exponent", BSC, ("--rmin", "0.1", "--rmax", "0.3", "--steps", "2"), "x")
    plain = run.run_pass([op])[0]
    tracer = tracing.Tracer()
    traced = run.run_pass([op], tracer)[0]
    assert plain.code == traced.code == 0
    assert plain.stdout == traced.stdout
    assert (cqexp.analysis.renyi_mi_channel, np.linalg.eigh,
            cqexp.analysis.ChannelAnalysis.lower_bound) == original
    spans = tracer.arrays()
    metrics = tracing.pass_metrics(spans, [dict(tracer.counts[0])])
    assert metrics["analysis.inner_solves"] > 0
    assert metrics["simplex_opt.calls"] == metrics["analysis.inner_solves"]
    assert metrics["linalg.eigh_calls"] > 0
    # Layer self times add up to the op's duration.
    total = sum(spans.layer_self_seconds().values())
    assert total == pytest.approx(spans.seconds[0], rel=1e-9)


# ---------------------------------------------------------------------------
# Inputs, and the metrics BENCHMARK.json lists.


def test_same_seed_same_priors_channels():
    assert workloads.prior_channel_docs(5) == workloads.prior_channel_docs(5)
    assert workloads.prior_channel_docs(5) != workloads.prior_channel_docs(6)


def test_priors_channels_are_rotations_of_the_base_draw():
    for doc, base in zip(workloads.prior_channel_docs(11), workloads.natural_letters(workloads.BASE_DRAW)):
        letters = checks.parse_channel(doc)
        assert letters.shape == base.shape
        for rho, sigma in zip(letters, base):
            np.testing.assert_allclose(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(sigma), atol=1e-12)
            assert np.linalg.matrix_rank(rho, tol=1e-10) == math.ceil(rho.shape[0] / 2)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# A program defect the workloads do not exercise, kept visible.


@pytest.mark.xfail(strict=True, reason=(
    "cqexp defect: on independent draws 34 and 38 the (8, 2) channel's "
    "multistart EG solve stops at eg_max_iters unconverged, and the CLI exits 3"))
def test_independent_draw_34_converges():
    from cqexp import CQChannel
    from cqexp.analysis import renyi_mi_channel

    letters = workloads.natural_letters(34)[workloads.PRIOR_SHAPES.index((8, 2))]
    assert renyi_mi_channel(CQChannel.from_states(list(letters)), 0.3).converged
