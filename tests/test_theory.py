"""Tier-1 checks of the theory suite at `zoqlab verify --quick` sample sizes."""

import ast
import csv
import dataclasses
import hashlib
import importlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zoqlab.zo
from zoqlab import cli, theory
from zoqlab.numerics import normals_at
from zoqlab.zo import direction_stream_id

from oracles import whole_chunk_oracle

QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES = 20_000, 100_000
QUICK_TRIALS = 1000


def test_unbiasedness_rows_pass_at_twenty_seeds_and_catch_a_biased_estimator(monkeypatch):
    # the rows `verify --quick` computes at seeds 0-19; at seeds 6 and 14 the
    # worst component sits 3.04 and 3.33 standard errors out, under Z
    rows = [
        row
        for seed in range(20)
        for row in theory.unbiasedness_rows(seed, QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES)
    ]
    assert all(row.passed for row in rows), [row.line() for row in rows if not row.passed]

    oracle = theory.oracle_grad_smoothed

    def biased(obj, w, samples, seed=0, form="antithetic"):
        est = oracle(obj, w, samples, seed=seed, form=form)
        return dataclasses.replace(est, grad=1.1 * est.grad) if form == "antithetic" else est

    monkeypatch.setattr(theory, "oracle_grad_smoothed", biased)
    rows = theory.unbiasedness_rows(0, QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES)
    # with the quantizer on the gradient is too small for a 10% bias to show
    unquantized = [row for row in rows if "step=0.0" in row.config]
    assert len(unquantized) == 2
    assert not any(row.passed for row in unquantized), [row.line() for row in unquantized]


def test_quantized_mse_row_measures_probes_that_cross_a_threshold():
    # as run_verification builds it: coordinate 0 one eps below a threshold
    obj = theory.SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1)
    w = [theory.place_at_distance(0.1, 1.0, 1e-3), 0.21]
    row = theory.check_mse_bound(obj, w, 1, QUICK_TRIALS, QUICK_ORACLE_SAMPLES, seed=77)
    assert row.passed and row.measured > 0


def test_theory_binds_every_name_the_benchmark_tracer_patches():
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["THEORY_FUNCTIONS"]
    ]
    assert len(names) > 0
    for name in (*names, "normals_at", "zo_gradient_scale", "run_verification"):
        assert callable(getattr(theory, name, None)), name


def test_grad_decay_monotone_row_measures_its_far_side():
    # at 1e6 samples, the `verify --quick` size, seed 0: the far side is not 0
    row = theory.grad_decay_monotone_row(0, 1_000_000)
    assert row.passed and row.measured > 0


def test_zoqlab_modules_bind_every_name_the_benchmark_tracer_patches():
    """Each (owner, name) the tracer patches exists on its owner.

    Owners are the zoqlab modules the tracer imports and the classes it
    imports from them. Tracer._patch reads a module's name with getattr and
    a class's from the class's own __dict__, so a binding that a refactor
    drops, or moves to a base class, would crash the traced benchmark run.
    """
    tracer = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
    owners = {}  # an owner's source text in the tracer -> the object
    for node in tracer.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zoqlab."):
                    owners[alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("zoqlab."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"zoqlab.calibration", "zoqlab.diagnostics", "zoqlab.model", "zoqlab.zo"} <= set(owners)
    patched = [
        (ast.unparse(node.elts[0]), node.elts[1].value)
        for node in ast.walk(tracer)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 4
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
        and ast.unparse(node.elts[0]) in owners
    ]
    assert {owner for owner, _ in patched} == set(owners)
    for owner, attr in patched:
        obj = owners[owner]
        bound = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        assert callable(bound), f"{owner}.{attr}"


def test_estimator_driven_rows_keep_their_bytes():
    """repr(measured) of three estimator-driven rows of `verify --quick --seed 0`.

    The rows are built as run_verification builds them. The formula gap was
    recorded before the view cached a whole step's chunks and normals_at
    re-keyed Philox in place; a faster estimator path must keep these bytes.
    The two MSE rows were re-recorded when their oracle moved to the quick
    size, QUICK_ORACLE_SAMPLES.
    """
    obj0 = theory.SmoothedObjective("quadratic", dim=8, epsilon=1e-2, quant_step=0.1, lipschitz=4.0)
    gap = theory.zo_formula_gap(obj0, theory._W8, estimates=256, seed=0)
    obj4 = theory.SmoothedObjective("linear", dim=4, epsilon=1e-2)
    w4 = np.linspace(0.05, 0.35, 4)
    mse4 = theory.check_mse_bound(obj4, w4, 16, QUICK_TRIALS, QUICK_ORACLE_SAMPLES, seed=4 * 31 + 16)
    obj_q = theory.SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1)
    w_q = [theory.place_at_distance(0.1, 1.0, 1e-3), 0.21]
    mse_q = theory.check_mse_bound(obj_q, w_q, 1, QUICK_TRIALS, QUICK_ORACLE_SAMPLES, seed=77)
    got = [(row.config, repr(row.measured)) for row in (gap, mse4, mse_q)]
    assert got == [
        ("d=8 quadratic step=0.1", "0.0"),
        ("d=4 q=16 step=0", "0.28774629039453803"),
        ("d=2 q=1 step=0.1 eps=0.001", "2098.63156899008"),
    ]


def test_a_view_that_draws_the_wrong_stream_fails_the_formula_row(monkeypatch):
    """The row draws u from the estimate's stream id itself, so a view perturbing along stream id ^ 1 shows a gap."""
    monkeypatch.setattr(zoqlab.zo, "normals_at", lambda seed, sid, lo, n: normals_at(seed, sid ^ 1, lo, n))
    obj0 = theory.SmoothedObjective("quadratic", dim=8, epsilon=1e-2, quant_step=0.1, lipschitz=4.0)
    row = theory.zo_formula_gap(obj0, theory._W8, estimates=256, seed=0)
    assert not row.passed and row.measured > 1.0, row.line()


def test_tail_identity_rows_keep_their_bytes():
    """repr(measured) of the five gaussian_tail_identities rows of `verify`.

    Re-recorded when the quadrature oracle moved from scipy.integrate.quad to
    tail_quadrature's fixed Gauss-Legendre rule; the 1e-10 limit is unchanged.
    """
    got = {t: repr(theory.gaussian_tail_identities(t).measured) for t in (0.0, 0.5, 1.0, 2.0, 5.0)}
    assert got == {
        0.0: "1.1102230246251565e-16",
        0.5: "1.1102230246251565e-16",
        1.0: "0.0",
        2.0: "0.0",
        5.0: "2.0328790734103208e-20",
    }


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_closed_form_off_by_1e_9_fails_the_tail_row(monkeypatch, t, k):
    closed_forms = theory.tail_closed_forms

    def off(t):
        values = list(closed_forms(t))
        values[k] += 1e-9
        return tuple(values)

    monkeypatch.setattr(theory, "tail_closed_forms", off)
    row = theory.gaussian_tail_identities(t)
    assert not row.passed and row.measured > 9e-10, row.line()


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_the_tail_rule_agrees_with_one_of_twice_the_nodes(t):
    got, finer = theory.tail_quadrature(t), theory.tail_quadrature(t, nodes=64)
    assert max(abs(a - b) for a, b in zip(got, finer)) <= 1e-15


NO_SCIPY_INTEGRATE = """
import sys
import numpy, scipy.special

def polynomial():
    return sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))

# scipy.special may load numpy.polynomial itself; zoqlab must add none of it
loaded_by_scipy = polynomial()
import zoqlab, zoqlab.cli, zoqlab.theory
assert polynomial() == loaded_by_scipy, polynomial()
for t in (0.0, 0.5, 1.0, 2.0, 5.0):
    assert zoqlab.theory.gaussian_tail_identities(t).passed
zoqlab.theory.mills_bound_gap(numpy.linspace(1e-3, 10.0, 2000))
print("scipy.integrate" in sys.modules)
"""


def test_no_command_loads_scipy_integrate():
    # a fresh interpreter, because other modules' tests may load scipy.integrate
    # into this one; it would cost a process ~25 MiB of peak RSS
    env = dict(os.environ)
    src = str(Path(zoqlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_INTEGRATE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_oracle_rows_keep_their_bytes(quick_report):
    """repr(measured) of the Monte-Carlo oracle's rows of `verify --quick --seed 0`.

    Recorded with whole-chunk oracle sums, before the oracle reduced chunks
    in blocks; a block size must not change them.
    """
    got = [
        (row.config.split(" alpha=")[0], repr(row.measured))
        for row in quick_report.rows
        if row.name in ("zo_unbiasedness", "oracle_self_consistency")
    ]
    assert got == [
        ("kind=linear d=8 step=0.0 eps=0.01", "1.3373647923662335"),
        ("kind=linear d=8 step=0.1 eps=0.01", "2.6391432805612927"),
        ("kind=quadratic d=8 step=0.0 eps=0.01", "1.743300968495485"),
        ("kind=quadratic d=8 step=0.1 eps=0.01", "1.8837961437374824"),
        ("d=4 linear step=0.1", "1.0248969565651276"),
    ]


def _objectives(dim):
    return (
        theory.SmoothedObjective("linear", dim=dim, epsilon=1e-2, quant_step=0.1, lipschitz=2.0),
        theory.SmoothedObjective("quadratic", dim=dim, epsilon=1e-2),
    )


@pytest.mark.parametrize("chunk", [theory._CHUNK, 100])
@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("form", ["score", "antithetic"])
def test_blocked_oracle_keeps_the_bytes_of_one_block_per_chunk(monkeypatch, chunk, rows, dim, form):
    # 1,003 samples: no multiple of 3, 7 or 100, so the last block and chunk are partial
    monkeypatch.setattr(theory, "_CHUNK", chunk)
    monkeypatch.setattr(theory, "_BLOCK_FLOATS", rows * dim)
    w = np.linspace(-0.3, 0.4, dim)
    for obj in _objectives(dim):
        blocked = theory.oracle_grad_smoothed(obj, w, 1003, seed=9, form=form)
        grad, se = whole_chunk_oracle(obj, w, 1003, 9, form, chunk)
        assert blocked.grad.tobytes() == grad.tobytes()
        assert blocked.se.tobytes() == se.tobytes()


# the largest relative gap these cases show is 5.5e-16 (quadratic, antithetic, 3 ulps)
_ONE_D_GAP = 5e-14


@pytest.mark.parametrize("chunk", [theory._CHUNK, 100])
@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("form", ["score", "antithetic"])
def test_the_blocked_1d_oracle_stays_within_a_few_ulps_of_one_block_per_chunk(monkeypatch, chunk, rows, form):
    # numpy sums an (m, 1) column pairwise, so splitting a chunk moves the last bits
    monkeypatch.setattr(theory, "_CHUNK", chunk)
    monkeypatch.setattr(theory, "_BLOCK_FLOATS", rows)
    w = np.linspace(-0.3, 0.4, 1)
    for obj in _objectives(1):
        blocked = theory.oracle_grad_smoothed(obj, w, 1003, seed=9, form=form)
        grad, se = whole_chunk_oracle(obj, w, 1003, 9, form, chunk)
        assert np.all(np.abs(blocked.grad - grad) <= _ONE_D_GAP * np.abs(grad)), (blocked.grad, grad)
        assert np.all(np.abs(blocked.se - se) <= _ONE_D_GAP * np.abs(se)), (blocked.se, se)


@pytest.mark.parametrize("dim", [2, 5])
def test_the_oracle_keeps_its_bytes_across_full_chunks(dim):
    # the default block and chunk sizes, over two full chunks and a partial third
    samples = 2 * theory._CHUNK + 4099
    w = np.linspace(-0.3, 0.4, dim)
    for obj in _objectives(dim):
        got = theory.oracle_grad_smoothed(obj, w, samples, seed=4, form="antithetic")
        grad, se = whole_chunk_oracle(obj, w, samples, 4, "antithetic", theory._CHUNK)
        assert (got.grad.tobytes(), got.se.tobytes()) == (grad.tobytes(), se.tobytes())


@pytest.mark.parametrize("dim, samples", [(8, 100_000), (1, 1_000_000)])
def test_an_oracle_call_holds_a_bounded_block(dim, samples):
    # whole chunks peaked at 25.9 MiB for d=8 (100k samples at once) and 5.0 MiB for d=1
    obj = theory.SmoothedObjective("quadratic", dim=dim, epsilon=1e-2, quant_step=0.1)
    tracemalloc.start()
    try:
        theory.oracle_grad_smoothed(obj, np.linspace(-0.61, 0.77, dim), samples, seed=3, form="antithetic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_mse_bound_draws_each_direction_once(monkeypatch):
    """Each of the q streams of every trial is drawn once, at (0, d), all q in one call per trial."""
    calls = []

    def counting(*args):
        calls.append(args)
        return normals_at(*args)

    monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
    obj = theory.SmoothedObjective("linear", dim=1, epsilon=1e-2)
    q = 16
    theory.check_mse_bound(obj, [0.2], q, QUICK_TRIALS, 1000, seed=3)
    draws = [
        (seed, sid, position, n)
        for seed, ids, position, n in calls
        for sid in ([ids] if isinstance(ids, int) else ids)
    ]
    want = {(3, direction_stream_id(j, i), 0, 1) for j in range(QUICK_TRIALS) for i in range(q)}
    assert len(draws) == len(want) and set(draws) == want
    assert len(calls) == QUICK_TRIALS


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("quant_step", [0.0, 0.1])
def test_loss_of_a_point_is_its_batch_loss(kind, quant_step):
    obj = theory.SmoothedObjective(kind, dim=5, epsilon=1e-2, quant_step=quant_step, lipschitz=3.7)
    points = np.random.default_rng(4).normal(scale=0.3, size=(200, 5))
    batch = obj.loss_batch(points)
    for point, want in zip(points, batch):
        got = obj.loss(point)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def quick_report():
    """`zoqlab verify --quick` at its default seed, run once for the module."""
    return theory.run_verification(quick=True, seed=0)


def test_every_row_of_verify_quick_passes(quick_report):
    assert quick_report.rows and quick_report.passed, [r.line() for r in quick_report.rows if not r.passed]


def test_the_family_size_counts_every_standard_error_comparison_of_the_suite(quick_report):
    """One comparison per component of a zo_unbiasedness or oracle_self_consistency row, one per other alpha row."""
    per_component = ("zo_unbiasedness", "oracle_self_consistency")
    count = 0
    for row in quick_report.rows:
        if row.name in per_component:
            count += int(re.search(r"\bd=(\d+)", row.config).group(1))
        elif "alpha=" in row.config:
            count += 1
    assert count == theory.FAMILY_SIZE == 4 * 8 + 4 + 3 + 1 + 2


def test_verify_quick_keeps_the_bytes_of_its_csv(quick_report):
    """sha256 of verification.csv of `verify --quick --seed 0`, as cli's csv writer writes it.

    Recorded before a step's directions were drawn in one call; a faster
    estimator or oracle path must keep every row's bytes.
    """
    text = io.StringIO()
    csv.writer(text).writerows(quick_report.csv_rows())
    digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
    assert digest == "b863373e7bbd00df00e41340776b1aac934e455b4b0edcbba5ca8baeeedd15ea"


def test_verify_writes_its_report_and_exits_0_when_every_row_passes(quick_report, tmp_path, monkeypatch, capsys):
    calls = []

    def run_verification(quick, seed):
        calls.append((quick, seed))
        return quick_report

    monkeypatch.setattr(theory, "run_verification", run_verification)
    capsys.readouterr()
    assert cli.main(["verify", "--quick", "--metrics-dir", str(tmp_path)]) == cli.EXIT_OK
    assert calls == [(True, 0)]
    text = quick_report.text()
    assert text.endswith("ALL CHECKS PASSED")
    assert capsys.readouterr().out == text + "\n"
    assert (tmp_path / "verification.txt").read_text() == text + "\n"
    with open(tmp_path / "verification.csv", newline="") as f:
        assert list(csv.reader(f)) == [list(row) for row in quick_report.csv_rows()]
