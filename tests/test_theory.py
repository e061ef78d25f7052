"""Tier-1 checks of the theory suite at `zoqlab verify --quick` sample sizes."""

import ast
import dataclasses
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
