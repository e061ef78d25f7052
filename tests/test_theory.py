"""Tier-1 checks of the theory suite at `zoqlab verify --quick` sample sizes."""

import ast
import dataclasses
import importlib
from pathlib import Path

from zoqlab import theory

QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES = 20_000, 100_000


def test_unbiasedness_rows_pass_at_twenty_seeds_and_catch_a_biased_estimator():
    # the rows `verify --quick` computes at seeds 0-19; at seeds 6 and 14 the
    # worst component sits 3.04 and 3.33 standard errors out, under Z
    rows = [
        row
        for seed in range(20)
        for row in theory.unbiasedness_rows(seed, QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES)
    ]
    assert all(row.passed for row in rows), [row.line() for row in rows if not row.passed]

    def biased(obj, w, samples, seed):
        est = theory.oracle_grad_smoothed(obj, w, samples, seed=seed, form="antithetic")
        return dataclasses.replace(est, grad=1.1 * est.grad)

    rows = theory.unbiasedness_rows(0, QUICK_ESTIMATES, QUICK_ORACLE_SAMPLES, estimator=biased)
    # with the quantizer on the gradient is too small for a 10% bias to show
    unquantized = [row for row in rows if "step=0.0" in row.config]
    assert len(unquantized) == 2
    assert not any(row.passed for row in unquantized), [row.line() for row in unquantized]


def test_quantized_mse_row_measures_probes_that_cross_a_threshold():
    # as run_verification builds it: coordinate 0 one eps below a threshold
    obj = theory.SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1)
    w = [theory.place_at_distance(0.1, 1.0, 1e-3), 0.21]
    row = theory.check_mse_bound(obj, w, 1, trials=1000, seed=77)
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


def test_model_and_zo_bind_every_name_the_benchmark_tracer_patches():
    """Each (owner, name) the tracer patches in zoqlab.model or zoqlab.zo exists there.

    Owners are the modules themselves or classes the tracer imports from
    them; a binding that a refactor drops would silently lose its span.
    """
    tracer = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
    modules = {name: importlib.import_module(name) for name in ("zoqlab.model", "zoqlab.zo")}
    owners = dict(modules)  # an owner's source text in the tracer -> the object
    for node in tracer.body:
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(modules[node.module], alias.name)
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
        assert callable(getattr(owners[owner], attr, None)), f"{owner}.{attr}"
