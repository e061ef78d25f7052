import csv
import io
import json
import re
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from zoqlab import cli, diagnostics, theory
from zoqlab.calibration import calibrate_model, capture_activations, rtn_quantize
from zoqlab.errors import NumericError
from zoqlab.model import (
    ModelConfig,
    QuantPlan,
    build_model,
    dequantized_weight,
    holds_codes,
    set_lightweight,
)
from zoqlab.numerics import read_tensor, write_tensor
from zoqlab.zo import ZoConfig, zo_step

TINY_INI = """\
[model]
d_model = 16
n_layers = 1
n_heads = 2
context = 32

[train]
steps = 2
eval_interval = 0
lr_weights = 1e-5
lr_schedule = constant

[calib]
samples = 1
epochs = 0
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def train(config, run_dir, *extra):
    dirs = ["--checkpoint-dir", str(run_dir / "ckpt"), "--metrics-dir", str(run_dir / "metrics")]
    return cli.main(["train", "--config", config, *dirs, *extra])


def test_resumed_train_equals_uninterrupted_run(tiny_config, tmp_path):
    assert train(tiny_config, tmp_path / "straight", "--steps", "4") == cli.EXIT_OK
    assert train(tiny_config, tmp_path / "first", "--steps", "2") == cli.EXIT_OK
    first = str(tmp_path / "first" / "ckpt" / "final.ckpt")
    resume = ["--steps", "4", "--resume", first]
    assert train(tiny_config, tmp_path / "resumed", *resume) == cli.EXIT_OK

    with open(tmp_path / "resumed" / "metrics" / "train.csv") as f:
        assert [row["step"] for row in csv.DictReader(f)] == ["2", "3"]
    _, straight, _ = cli.load_checkpoint(str(tmp_path / "straight" / "ckpt" / "final.ckpt"))
    _, resumed, step = cli.load_checkpoint(str(tmp_path / "resumed" / "ckpt" / "final.ckpt"))
    assert step == 4
    for (name, _, *a), (_, _, *b) in zip(straight.tensors(), resumed.tensors()):
        assert getattr(*a).tobytes() == getattr(*b).tobytes(), name


def test_resume_to_a_new_horizon_under_linear_decay_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "decay.ini"
    config.write_text(TINY_INI.replace("lr_schedule = constant", "lr_schedule = linear_decay"))
    assert train(str(config), tmp_path / "first", "--steps", "2") == cli.EXIT_OK
    first = str(tmp_path / "first" / "ckpt" / "final.ckpt")
    capsys.readouterr()
    resume = ["--steps", "4", "--resume", first]
    assert train(str(config), tmp_path / "resumed", *resume) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "lr_schedule = constant" in err and "Traceback" not in err
    assert not (tmp_path / "resumed" / "ckpt").exists()


def test_lr_weights_defaults_to_the_zo_config_default(tmp_path):
    assert ZoConfig().lr_weights == 1e-5
    assert cli.RunConfig.from_dict({}).zo.lr_weights == ZoConfig().lr_weights
    config = tmp_path / "no_lr.ini"
    config.write_text(TINY_INI.replace("lr_weights = 1e-5\n", ""))
    assert "lr_weights" not in config.read_text()
    assert cli.load_config_file(str(config)).zo.lr_weights == ZoConfig().lr_weights


def test_run_config_round_trips_through_the_manifest_dict():
    assert cli.RunConfig.from_dict({}) == cli.RunConfig()
    assert cli.RunConfig(seed=5).zo.seed == 5
    c = cli.RunConfig(
        model=ModelConfig(vocab_size=120, d_model=24, n_layers=3, n_heads=3, context=16),
        w_bits=3,
        a_bits=8,
        group_size=8,
        scheme="symmetric",
        zo=ZoConfig(
            epsilon=2e-3,
            directions=2,
            steps=7,
            lr_weights=1e-6,
            lr_smoothing=1e-7,
            lr_clipping=2e-6,
            lr_quant_affine=3e-6,
            lr_schedule="constant",
            batch_size=3,
            train_quant_affine=False,
        ),
        eval_interval=5,
        calib_epochs=1,
        calib_samples=2,
        corpus="some.txt",
        seed=9,
    )
    manifest_config = json.loads(json.dumps(c.to_dict()))
    assert cli.RunConfig.from_dict(manifest_config) == c
    assert "checkpoint_dir" not in manifest_config["paths"]
    assert "metrics_dir" not in manifest_config["paths"]


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("lr_weights = 1e-5", "lr_weight = 1e-3", ["[train]", "lr_weight"]),
        ("[calib]", "[calibration]", ["[calibration]"]),
        ("steps = 2", "steps = two", ["[train]", "steps", "two"]),
        ("steps = 2", "steps = 2\ntrain_quant_affine = maybe", ["[train]", "train_quant_affine"]),
        ("[calib]", "[train]", ["train", "already exists"]),
    ],
    ids=["unknown key", "unknown section", "bad int", "bad bool", "duplicate section"],
)
def test_unknown_or_unparsable_config_entries_are_usage_errors(tmp_path, capsys, old, new, named):
    config = tmp_path / "bad.ini"
    config.write_text(TINY_INI.replace(old, new))
    with pytest.raises(cli.UsageError):
        cli.load_config_file(str(config))
    capsys.readouterr()
    assert train(str(config), tmp_path / "run") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert all(word in err for word in named), err


@pytest.mark.parametrize(
    "quant, flags, message",
    [
        ("w_bits = 40", [], "w_bits must be in [2, 16], got 40"),
        ("a_bits = 40", [], "a_bits must be in [2, 16], got 40"),
        ("w_bits = 1", [], "w_bits must be in [2, 16], got 1"),
        ("group_size = 0", [], "group size must be >= 1, got 0"),
        ("", ["--quant", "W40A4"], "w_bits must be in [2, 16], got 40"),
        ("", ["--quant", "W4A40"], "a_bits must be in [2, 16], got 40"),
    ],
    ids=["file w_bits", "file a_bits", "file w_bits low", "file group size", "flag w_bits", "flag a_bits"],
)
def test_bit_widths_are_range_checked_from_a_config_file_and_from_the_flag(tmp_path, capsys, quant, flags, message):
    config = tmp_path / "bits.ini"
    config.write_text(TINY_INI + f"\n[quant]\n{quant}\n")
    assert train(str(config), tmp_path / "run", *flags) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert message in err, err


@pytest.mark.parametrize(
    "command, old, new, code, message",
    [
        ("train", "steps = 2", "steps = 2\nbatch_size = 0", cli.EXIT_DATA, "batch_size must be >= 1, got 0"),
        ("train", "steps = 2", "steps = 2\nbatch_size = -2", cli.EXIT_DATA, "batch_size must be >= 1, got -2"),
        ("train", "steps = 2", "steps = -1", cli.EXIT_DATA, "steps must be >= 0, got -1"),
        ("calibrate", "samples = 1", "samples = -3", cli.EXIT_USAGE, "calibration samples must be >= 1, got -3"),
        ("calibrate", "epochs = 0", "epochs = -2", cli.EXIT_USAGE, "calibration epochs must be >= 0, got -2"),
        ("calibrate", "eval_interval = 0", "eval_interval = -5", cli.EXIT_USAGE, "eval interval must be >= 0, got -5"),
    ],
    ids=["batch size 0", "batch size -2", "steps -1", "calibration samples -3", "calibration epochs -2",
         "eval interval -5"],
)
def test_out_of_range_run_sizes_exit_with_their_code(tmp_path, capsys, command, old, new, code, message):
    config = tmp_path / "sizes.ini"
    config.write_text(TINY_INI.replace(old, new))
    dirs = ["--checkpoint-dir", str(tmp_path / "ckpt"), "--metrics-dir", str(tmp_path / "metrics")]
    capsys.readouterr()
    assert cli.main([command, "--config", str(config), *dirs]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize(
    "old, new, flags, code, message",
    [
        ("epochs = 0", "epochs = 0\n\n[run]\nseed = -1", [], cli.EXIT_USAGE, "seed must be in [0, 2^63), got -1"),
        ("epochs = 0", f"epochs = 0\n\n[run]\nseed = {2**63}", [], cli.EXIT_USAGE, f"got {2**63}"),
        ("", "", ["--seed", "-1"], cli.EXIT_USAGE, "seed must be in [0, 2^63), got -1"),
        ("n_heads = 2", "n_heads = 0", [], cli.EXIT_DATA, "n_heads must be >= 1, got 0"),
        ("context = 32", "context = 0", [], cli.EXIT_DATA, "context must be >= 1, got 0"),
        ("steps = 2", "steps = 2\nepsilon = nan", [], cli.EXIT_DATA, "epsilon must be positive and finite, got nan"),
        ("steps = 2", "steps = 2\nepsilon = inf", [], cli.EXIT_DATA, "epsilon must be positive and finite, got inf"),
    ],
    ids=["seed -1", "seed 2^63", "flag seed -1", "n_heads 0", "context 0", "epsilon nan", "epsilon inf"],
)
def test_config_values_that_crashed_exit_with_their_code(tmp_path, capsys, old, new, flags, code, message):
    config = tmp_path / "values.ini"
    config.write_text(TINY_INI.replace(old, new))
    capsys.readouterr()
    assert train(str(config), tmp_path / "run", *flags) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_verify_refuses_a_seed_outside_the_key_range(tmp_path, capsys, seed):
    capsys.readouterr()
    assert cli.main(["verify", "--quick", "--seed", str(seed), "--metrics-dir", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"seed must be in [0, 2^63), got {seed}" in err and "Traceback" not in err, err
    assert not (tmp_path / "verification.csv").exists()


def test_train_holds_only_the_probe_captures_through_the_zo_loop(tmp_path, monkeypatch):
    """At the first zo_step, fresh and resumed, block1.mlp_down's capture is gone; the probe's are not."""
    config = tmp_path / "two_blocks.ini"
    config.write_text(TINY_INI.replace("n_layers = 1", "n_layers = 2"))
    refs = []

    def capturing(model, sample):
        calib = capture_activations(model, sample)
        refs.append({key: weakref.ref(calib.captures[key]) for key in ("block0.attn_q", "block1.mlp_down")})
        return calib

    first_steps = []

    def stepping(model, batch, cfg, step):
        if len(first_steps) < len(refs):
            first_steps.append(step)
            assert refs[-1]["block1.mlp_down"]() is None
            assert refs[-1]["block0.attn_q"]() is not None
        return zo_step(model, batch, cfg, step)

    monkeypatch.setattr(cli, "capture_activations", capturing)
    monkeypatch.setattr(cli, "zo_step", stepping)
    assert train(str(config), tmp_path / "first") == cli.EXIT_OK
    resume = ["--steps", "4", "--resume", str(tmp_path / "first" / "ckpt" / "final.ckpt")]
    assert train(str(config), tmp_path / "resumed", *resume) == cli.EXIT_OK
    assert first_steps == [0, 2]


def test_config_file_keys_reach_their_fields(tmp_path):
    config = tmp_path / "full.ini"
    extra = "[quant]\nnotation = W2A16g8\nw_bits = 3\n\n[run]\nseed = 7\n"
    config.write_text(TINY_INI.replace("steps = 2", "steps = 2\ntrain_quant_affine = no") + extra)
    cfg = cli.load_config_file(str(config))
    assert cfg.model == ModelConfig(d_model=16, n_layers=1, n_heads=2, context=32)
    assert (cfg.w_bits, cfg.a_bits, cfg.group_size) == (3, 16, 8)
    assert (cfg.zo.steps, cfg.eval_interval, cfg.zo.lr_schedule) == (2, 0, "constant")
    assert cfg.zo.train_quant_affine is False
    assert (cfg.calib_samples, cfg.calib_epochs) == (1, 0)
    assert cfg.seed == cfg.zo.seed == 7


def test_checkpoint_bytes_do_not_depend_on_the_output_dirs(tiny_config, tmp_path):
    assert train(tiny_config, tmp_path / "a") == cli.EXIT_OK
    assert train(tiny_config, tmp_path / "elsewhere" / "b") == cli.EXIT_OK
    a = (tmp_path / "a" / "ckpt" / "final.ckpt").read_bytes()
    assert a == (tmp_path / "elsewhere" / "b" / "ckpt" / "final.ckpt").read_bytes()


@pytest.mark.parametrize("command, written", [("eval", "eval_diagnostics.csv")])
def test_checkpoint_commands_create_a_new_metrics_dir(tiny_config, tmp_path, command, written):
    assert train(tiny_config, tmp_path / "run") == cli.EXIT_OK
    ckpt = str(tmp_path / "run" / "ckpt" / "final.ckpt")
    fresh = tmp_path / "not" / "yet" / "there"
    assert cli.main([command, ckpt, "--metrics-dir", str(fresh)]) == cli.EXIT_OK
    assert (fresh / written).is_file()


def test_eval_prints_measured_memory_next_to_the_model(trained_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "final.ckpt"
    ckpt.write_bytes(trained_checkpoint)
    capsys.readouterr()
    assert cli.main(["eval", str(ckpt), "--metrics-dir", str(tmp_path / "m")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    # eval's own line first, then memory_report's entries
    assert re.match(r"eval ppl \S+\n  parameters: \d+ bytes\n", out), out
    modelled = int(re.search(r"^  transient_forward: (\d+) bytes$", out, re.M).group(1))
    forward = re.search(r"^  forward: (\d+) bytes \(modelled transient_forward (\d+)\)$", out, re.M)
    step = re.search(r"^  zo_step: (\d+) bytes", out, re.M)
    assert forward and step, out
    assert int(forward.group(2)) == modelled
    # the model is a lower bound, and a zo_step runs that forward on the same batch
    assert modelled <= int(forward.group(1)) <= int(step.group(1))


def test_eval_prints_the_peak_rss_after_the_tracemalloc_peaks(trained_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "final.ckpt"
    ckpt.write_bytes(trained_checkpoint)
    capsys.readouterr()
    assert cli.main(["eval", str(ckpt), "--metrics-dir", str(tmp_path / "m")]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rss = re.fullmatch(r"peak RSS: (\d+) bytes \(whole process, with the interpreter and imports .*\)", lines[-1])
    forward = re.fullmatch(r"  forward: (\d+) bytes .*", lines[-3])
    assert rss and forward and lines[-2].startswith("  zo_step: "), lines[-3:]
    # the process holds at least what one forward allocated
    assert int(rss.group(1)) >= int(forward.group(1))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_checkpoint_with_a_bad_smoothing_scale_is_refused(tiny_config, tmp_path, bad):
    assert train(tiny_config, tmp_path / "run") == cli.EXIT_OK
    ckpt = str(tmp_path / "run" / "ckpt" / "final.ckpt")
    cfg, model, step = cli.load_checkpoint(ckpt)
    model.blocks[0].linears["attn_q"].att.smoothing.scale[3] = bad
    cli.save_checkpoint(ckpt, cfg, model, step)

    with pytest.raises(cli.DataError, match="block0.attn_q smoothing scale"):
        cli.load_checkpoint(ckpt)
    assert cli.main(["eval", ckpt]) == cli.EXIT_DATA


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    config = run / "tiny.ini"
    config.write_text(TINY_INI)
    assert train(str(config), run) == cli.EXIT_OK
    return (run / "ckpt" / "final.ckpt").read_bytes()


def manifest_span(raw):
    (mlen,) = struct.unpack("<Q", raw[16:24])
    return 24, 24 + mlen


def assert_eval_refuses(path, capsys):
    capsys.readouterr()
    assert cli.main(["eval", str(path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["header", "length", "manifest", "tensor header", "rank", "data", "last byte"])
def test_truncated_checkpoint_is_a_data_error(trained_checkpoint, tmp_path, capsys, where):
    raw = trained_checkpoint
    _, end = manifest_span(raw)
    cut = {
        "header": 10,
        "length": 20,
        "manifest": end - 7,
        "tensor header": end + 5,
        "rank": end + 19,
        "data": end + 60,
        "last byte": len(raw) - 1,
    }[where]
    path = tmp_path / "cut.ckpt"
    path.write_bytes(raw[:cut])
    with pytest.raises(cli.DataError):
        cli.load_checkpoint(str(path))
    assert_eval_refuses(path, capsys)


def edit_manifest(raw, edit):
    start, end = manifest_span(raw)
    manifest = json.loads(raw[start:end])
    edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    return raw[:16] + struct.pack("<Q", len(blob)) + blob + raw[end:]


def swap(names, a, b):
    i, j = names.index(a), names.index(b)
    names[i], names[j] = b, a


CONFIG_OF_THE_WRONG_TYPE = {
    "config a list": lambda m: m.update(config=[]),
    "config a string": lambda m: m.update(config="x"),
    "config a number": lambda m: m.update(config=5),
    "n_heads 2.0": lambda m: m["config"]["model"].update(n_heads=2.0),
    "n_heads true": lambda m: m["config"]["model"].update(n_heads=True),
    "batch_size 2.5": lambda m: m["config"]["train"].update(batch_size=2.5),
}


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["tensors"].remove("embed"),
        lambda m: m["config"]["model"].update(width=3),
        lambda m: m.update(tensors=7),
        lambda m: [m["tensors"].remove(f"block0.attn_k.smoothing.{part}") for part in ("scale", "shift")],
        lambda m: m["config"]["quant"].update(group_size=5),
        lambda m: m["tensors"].__setitem__(0, 7),
        lambda m: m["config"]["quant"].update(a_bits=16),
        lambda m: swap(m["tensors"], "block0.ln1_gain", "block0.ln1_bias"),
        *CONFIG_OF_THE_WRONG_TYPE.values(),
    ],
    ids=[
        "missing tensor",
        "unknown config field",
        "tensors not a list",
        "quantized layer without its smoothing",
        "group size does not divide d_model",
        "tensor name not a string",
        "smoothing the weight-only config does not build",
        "tensor list in another order",
        *CONFIG_OF_THE_WRONG_TYPE,
    ],
)
def test_checkpoint_with_a_bad_manifest_is_a_data_error(trained_checkpoint, tmp_path, capsys, edit):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(edit_manifest(trained_checkpoint, edit))
    with pytest.raises(cli.DataError, match="malformed checkpoint"):
        cli.load_checkpoint(str(path))
    assert_eval_refuses(path, capsys)


def test_checkpoint_whose_manifest_is_not_json_is_a_data_error(trained_checkpoint, tmp_path, capsys):
    start, end = manifest_span(trained_checkpoint)
    raw = trained_checkpoint
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw[:start] + b"\xff" * (end - start) + raw[end:])
    with pytest.raises(cli.DataError, match="malformed checkpoint"):
        cli.load_checkpoint(str(path))
    assert_eval_refuses(path, capsys)


def refusal(raw, tiny_config, tmp_path, capsys, command):
    """What `command` prints for the checkpoint bytes raw: it exits 2, writes nothing."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    capsys.readouterr()
    if command == "eval":
        code = cli.main(["eval", str(path), "--metrics-dir", str(tmp_path / "metrics")])
    else:
        code = train(tiny_config, tmp_path, "--steps", "4", "--resume", str(path))
    assert code == cli.EXIT_DATA
    assert not (tmp_path / "metrics").exists() and not (tmp_path / "ckpt").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("step", ["x", -1, 1.5, None, True, 2**30])
@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_checkpoint_step_that_is_not_an_int_in_range_is_malformed(
    trained_checkpoint, tiny_config, tmp_path, capsys, command, step
):
    raw = edit_manifest(trained_checkpoint, lambda m: m.update(step=step))
    err = refusal(raw, tiny_config, tmp_path, capsys, command)
    assert f"malformed checkpoint (step {step!r} " in err


@pytest.mark.parametrize("lightweight", ["no", 1, 0, None])
@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_checkpoint_lightweight_flag_that_is_not_a_bool_is_malformed(
    trained_checkpoint, tiny_config, tmp_path, capsys, command, lightweight
):
    raw = edit_manifest(trained_checkpoint, lambda m: m.update(lightweight=lightweight))
    err = refusal(raw, tiny_config, tmp_path, capsys, command)
    assert f"malformed checkpoint (lightweight {lightweight!r} " in err


@pytest.mark.parametrize("case", CONFIG_OF_THE_WRONG_TYPE)
@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_checkpoint_config_of_the_wrong_type_is_malformed(
    trained_checkpoint, tiny_config, tmp_path, capsys, command, case
):
    raw = edit_manifest(trained_checkpoint, CONFIG_OF_THE_WRONG_TYPE[case])
    assert "malformed checkpoint (TypeError: config " in refusal(raw, tiny_config, tmp_path, capsys, command)


def without_tensors(raw, dropped):
    """raw with the tensors named in dropped taken out of the manifest's list and of the file."""
    start, end = manifest_span(raw)
    body, out = io.BytesIO(raw[end:]), io.BytesIO()
    for listed in json.loads(raw[start:end])["tensors"]:
        tensor = read_tensor(body)
        if listed not in dropped:
            write_tensor(out, tensor)
    kept = edit_manifest(raw[:end], lambda m: m.update(tensors=[n for n in m["tensors"] if n not in dropped]))
    return kept + out.getvalue()


BARE_QUERY = [f"block0.attn_q.{part}" for part in
              ("smoothing.scale", "smoothing.shift", "state.step", "state.zero_point", "state.clip_lo", "state.clip_hi")]


@pytest.mark.parametrize("lightweight", [False, True], ids=["full", "lightweight"])
@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_quantized_layer_cut_to_a_bare_one_is_malformed(
    trained_checkpoint, tiny_config, tmp_path, capsys, command, lightweight
):
    """A W4A4 file whose attn_q lost its smoothing and state, in the list and in the file.

    No writer makes it: a full model keeps every attachment, and a
    lightweight one also drops attn_v's and freezes the other linears.
    """
    raw = edit_manifest(without_tensors(trained_checkpoint, BARE_QUERY), lambda m: m.update(lightweight=lightweight))
    assert "the tensor list does not match the config" in refusal(raw, tiny_config, tmp_path, capsys, command)


def test_a_load_holds_the_model_and_one_tensor_in_flight(tmp_path):
    """tracemalloc peak of one load of a seed-built d_model 256, 2-layer W4A4 checkpoint.

    The model holds 12.5 MiB of floats; the largest tensor, an mlp weight,
    is 2 MiB. Reading every tensor before assigning any held the model
    twice (29.6 MiB).
    """
    cfg = cli.RunConfig(model=ModelConfig(d_model=256, n_layers=2, n_heads=4, context=128))
    path = str(tmp_path / "d256.ckpt")
    cli.save_checkpoint(path, cfg, build_model(cfg.model, cfg.quant_plan(), cfg.seed), 0)
    tracemalloc.start()
    try:
        cli.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("claim", ["manifest length 2^45", "shape (2^20, 2^20)", "shape (2^62, 4)"])
@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_size_field_beyond_the_file_is_a_truncated_file(
    trained_checkpoint, tiny_config, tmp_path, capsys, command, claim
):
    """The reader checks a claimed size against the bytes left before it reads or allocates them."""
    raw = trained_checkpoint
    _, end = manifest_span(raw)
    dims = end + 24  # the first tensor (embed, rank 2): 16-byte header, u64 rank, then its dims
    crafted = {
        "manifest length 2^45": raw[:16] + struct.pack("<Q", 2**45) + raw[24:],
        "shape (2^20, 2^20)": raw[:dims] + struct.pack("<QQ", 2**20, 2**20) + raw[dims + 16 :],
        "shape (2^62, 4)": raw[:dims] + struct.pack("<QQ", 2**62, 4) + raw[dims + 16 :],
    }[claim]
    assert "error: truncated file: wanted " in refusal(crafted, tiny_config, tmp_path, capsys, command)


def test_resume_of_a_full_checkpoint_with_lightweight_is_a_usage_error(
    trained_checkpoint, tiny_config, tmp_path, capsys
):
    path = tmp_path / "full.ckpt"
    path.write_bytes(trained_checkpoint)
    capsys.readouterr()
    assert train(tiny_config, tmp_path / "refused", "--steps", "4", "--resume", str(path), "--lightweight") == (
        cli.EXIT_USAGE
    )
    captured = capsys.readouterr()
    assert "--resume --lightweight needs a lightweight checkpoint" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "refused").exists()
    # a lightweight checkpoint resumes with or without the flag
    assert train(tiny_config, tmp_path / "light", "--lightweight") == cli.EXIT_OK
    light = str(tmp_path / "light" / "ckpt" / "final.ckpt")
    assert train(tiny_config, tmp_path / "resumed", "--steps", "4", "--resume", light, "--lightweight") == cli.EXIT_OK


@pytest.mark.parametrize(
    "flag, other, saved, message",
    [
        ("--seed", "7", "0", "the checkpoint's [run] seed 0, not 7 from --seed"),
        ("--quant", "W2A16g16", "W4A4", "the checkpoint's [quant] w_bits 4, not 2 from --quant"),
    ],
    ids=["seed", "quant"],
)
def test_resume_with_a_seed_or_quant_the_checkpoint_does_not_hold_is_a_usage_error(
    trained_checkpoint, tiny_config, tmp_path, capsys, flag, other, saved, message
):
    path = tmp_path / "full.ckpt"
    path.write_bytes(trained_checkpoint)
    capsys.readouterr()
    assert train(tiny_config, tmp_path / "refused", "--steps", "3", flag, other, "--resume", str(path)) == (
        cli.EXIT_USAGE
    )
    captured = capsys.readouterr()
    assert message in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "refused").exists()
    # the checkpoint's own value resumes
    assert train(tiny_config, tmp_path / "resumed", "--steps", "3", flag, saved, "--resume", str(path)) == cli.EXIT_OK


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("lr_weights = 1e-5", "lr_weights = 2e-5", "[train] lr_weights 1e-05, not 2e-05"),
        ("eval_interval = 0", "eval_interval = 1", "[train] eval_interval 0, not 1"),
    ],
    ids=["lr_weights", "eval_interval"],
)
def test_resume_with_a_config_file_value_the_checkpoint_does_not_hold_is_a_usage_error(
    trained_checkpoint, tmp_path, capsys, old, new, named
):
    path = tmp_path / "full.ckpt"
    path.write_bytes(trained_checkpoint)
    config = tmp_path / "other.ini"
    config.write_text(TINY_INI.replace(old, new))
    capsys.readouterr()
    assert train(str(config), tmp_path / "refused", "--steps", "3", "--resume", str(path)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert named in captured.err and str(config) in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "refused").exists()
    # a file that leaves the key out resumes, and [train] steps and [paths] still apply
    config.write_text(f"[train]\nsteps = 3\n[paths]\ncorpus = {cli.default_corpus_path()}\n")
    assert train(str(config), tmp_path / "resumed", "--resume", str(path)) == cli.EXIT_OK
    assert cli.load_checkpoint(str(tmp_path / "resumed" / "ckpt" / "final.ckpt"))[2] == 3


def tensor_bytes(path):
    """The bytes of every model.tensors() entry of the checkpoint at path, by name."""
    _, model, _ = cli.load_checkpoint(str(path))
    return {name: getattr(owner, attr).tobytes() for name, _, owner, attr in model.tensors()}


def test_a_resume_without_corpus_trains_on_the_checkpoints_corpus(tiny_config, tmp_path):
    corpus = tmp_path / "mine.txt"
    corpus.write_text("".join(f"line {i} of a corpus of my own, {i * i % 97} squared mod 97.\n" for i in range(300)))
    mine = ["--corpus", str(corpus)]
    assert train(tiny_config, tmp_path / "straight", "--steps", "4", *mine) == cli.EXIT_OK
    assert train(tiny_config, tmp_path / "first", "--steps", "2", *mine) == cli.EXIT_OK
    first = str(tmp_path / "first" / "ckpt" / "final.ckpt")
    assert train(tiny_config, tmp_path / "resumed", "--steps", "4", "--resume", first) == cli.EXIT_OK
    resumed = tmp_path / "resumed" / "ckpt" / "final.ckpt"
    cfg, _, step = cli.load_checkpoint(str(resumed))
    assert (cfg.corpus, step) == (str(corpus), 4)
    assert tensor_bytes(resumed) == tensor_bytes(tmp_path / "straight" / "ckpt" / "final.ckpt")


@pytest.mark.parametrize("schedule", ["constant", "linear_decay"])
def test_a_resume_without_steps_trains_to_the_checkpoints_horizon(tmp_path, schedule):
    """A calibrated checkpoint (step 0 of 4) resumed with no --steps, and no --config, is the 4-step run."""
    config = tmp_path / "run.ini"
    config.write_text(TINY_INI.replace("steps = 2", "steps = 4").replace("= constant", f"= {schedule}"))
    assert run("calibrate", str(config), tmp_path / "calibrate") == cli.EXIT_OK
    assert run("train", str(config), tmp_path / "straight") == cli.EXIT_OK
    start = str(tmp_path / "calibrate" / "ckpt" / "calibrated.ckpt")
    assert run("train", None, tmp_path / "resumed", "--resume", start) == cli.EXIT_OK
    with open(tmp_path / "resumed" / "metrics" / "train.csv") as f:
        assert [row["step"] for row in csv.DictReader(f)] == ["0", "1", "2", "3"]
    final = (tmp_path / "straight" / "ckpt" / "final.ckpt").read_bytes()
    assert (tmp_path / "resumed" / "ckpt" / "final.ckpt").read_bytes() == final


# a value of each config file key other than the one the checkpoint below holds
OTHER_VALUES = {
    ("model", "vocab_size"): "120",
    ("model", "d_model"): "24",
    ("model", "n_layers"): "2",
    ("model", "n_heads"): "4",
    ("model", "context"): "16",
    ("quant", "w_bits"): "3",
    ("quant", "a_bits"): "4",
    ("quant", "group_size"): "4",
    ("quant", "scheme"): "symmetric",
    ("quant", "notation"): "W4A4g8",
    ("train", "eval_interval"): "1",
    ("train", "batch_size"): "2",
    ("train", "epsilon"): "2e-3",
    ("train", "directions"): "2",
    ("train", "lr_weights"): "2e-5",
    ("train", "lr_smoothing"): "0",
    ("train", "lr_clipping"): "2e-5",
    ("train", "lr_quant_affine"): "2e-5",
    ("train", "lr_schedule"): "constant",
    ("train", "train_quant_affine"): "false",
    ("calib", "epochs"): "1",
    ("calib", "samples"): "2",
    ("run", "seed"): "7",
}
COMPARED_KEYS = [
    (section, key) for section, keys in cli._SCHEMA.items() for key in keys
    if section != "paths" and (section, key) != ("train", "steps")
] + [("quant", "notation")]


@pytest.fixture(scope="module")
def decaying_checkpoint(tmp_path_factory):
    """A calibrated W4A8g8 checkpoint, step 0 of a 2-step linear_decay horizon."""
    run_dir = tmp_path_factory.mktemp("decaying")
    config = run_dir / "decay.ini"
    config.write_text(TINY_INI.replace("= constant", "= linear_decay") + "\n[quant]\nnotation = W4A8g8\n")
    assert run("calibrate", str(config), run_dir) == cli.EXIT_OK
    return str(run_dir / "ckpt" / "calibrated.ckpt")


@pytest.mark.parametrize("section, key", COMPARED_KEYS, ids=[key for _, key in COMPARED_KEYS])
def test_a_resume_refuses_each_config_file_value_but_the_checkpoints(
    decaying_checkpoint, tmp_path, capsys, section, key
):
    saved = cli.load_checkpoint(decaying_checkpoint)[0].to_dict()
    held = "W4A8g8" if key == "notation" else saved[key] if section == "run" else saved[section][key]
    assert str(held).lower() != OTHER_VALUES[section, key].lower()
    config = tmp_path / "other.ini"
    config.write_text(f"[{section}]\n{key} = {OTHER_VALUES[section, key]}\n")
    capsys.readouterr()
    assert run("train", str(config), tmp_path / "refused", "--resume", decaying_checkpoint) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    named = "[quant] a_bits" if key == "notation" else f"[{section}] {key}"
    assert f"the checkpoint's {named} " in captured.err and str(config) in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "refused").exists()
    # the checkpoint's own value resumes, to the checkpoint's horizon
    config.write_text(f"[{section}]\n{key} = {str(held).lower() if type(held) is bool else held}\n")
    assert run("train", str(config), tmp_path / "resumed", "--resume", decaying_checkpoint) == cli.EXIT_OK
    assert cli.load_checkpoint(str(tmp_path / "resumed" / "ckpt" / "final.ckpt"))[2] == 2


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--quant", "W4X4"], cli.EXIT_USAGE, "bad quantization notation 'W4X4'"),
        (["--config", "no/such.ini"], cli.EXIT_DATA, "cannot read config file no/such.ini"),
    ],
    ids=["bad notation", "missing config file"],
)
def test_a_bad_quant_notation_or_config_path_exits_with_its_code(tiny_config, tmp_path, capsys, flags, code, message):
    capsys.readouterr()
    assert train(tiny_config, tmp_path / "run", *flags) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "empty corpus file"),
        (b"abc\xff" * 40, "is not UTF-8 at byte offset 3"),
        (b"a" * 31, "corpus too small: 31 bytes yields no chunk of 32"),
        (b"a" * 32, "too small for a train/eval split"),
        ("caf\u00e9 ".encode() * 40, "corpus token 195 exceeds model vocab 128"),
    ],
    ids=["empty", "not UTF-8", "shorter than a context", "one context", "byte beyond the vocab"],
)
def test_a_corpus_train_cannot_split_or_read_exits_2(tiny_config, tmp_path, capsys, data, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(data)
    capsys.readouterr()
    assert train(tiny_config, tmp_path / "run", "--corpus", str(corpus)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_a_checkpoint_write_that_fails_part_way_keeps_the_earlier_file(tiny_config, tmp_path, monkeypatch, capsys):
    assert train(tiny_config, tmp_path) == cli.EXIT_OK
    saved = (tmp_path / "ckpt" / "final.ckpt").read_bytes()
    written = []

    def failing(f, arr):
        if len(written) == 3:
            raise OSError("No space left on device")
        written.append(arr)
        write_tensor(f, arr)

    monkeypatch.setattr(cli, "write_tensor", failing)
    capsys.readouterr()
    assert train(tiny_config, tmp_path, "--steps", "3") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err, err
    assert len(written) == 3
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["final.ckpt"]
    assert (tmp_path / "ckpt" / "final.ckpt").read_bytes() == saved


def test_resume_to_fewer_steps_than_the_checkpoint_is_a_usage_error(trained_checkpoint, tiny_config, tmp_path, capsys):
    path = tmp_path / "step2.ckpt"
    path.write_bytes(trained_checkpoint)
    assert cli.load_checkpoint(str(path))[2] == 2
    capsys.readouterr()
    assert train(tiny_config, tmp_path, "--steps", "1", "--resume", str(path)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "before the checkpoint's step 2" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "metrics").exists() and not (tmp_path / "ckpt").exists()


def test_checkpoint_with_output_paths_in_its_manifest_still_loads(
    trained_checkpoint, tmp_path, monkeypatch
):
    def add_paths(m):
        stored = {"checkpoint_dir": "stored_ckpt", "metrics_dir": "stored_metrics"}
        m["config"]["paths"].update(stored)

    path = tmp_path / "old.ckpt"
    path.write_bytes(edit_manifest(trained_checkpoint, add_paths))
    cfg, _, _ = cli.load_checkpoint(str(path))
    default = cli.RunConfig()
    assert (cfg.checkpoint_dir, cfg.metrics_dir) == (default.checkpoint_dir, default.metrics_dir)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", str(path)]) == cli.EXIT_OK
    assert (tmp_path / default.metrics_dir / "eval_diagnostics.csv").is_file()
    assert not (tmp_path / "stored_metrics").exists()


def test_numeric_failure_exits_3(tiny_config, tmp_path, monkeypatch, capsys):
    def diverging(*args, **kwargs):
        raise NumericError("non-finite loss at +eps, step 0 direction 0")

    monkeypatch.setattr(cli, "zo_step", diverging)
    capsys.readouterr()
    assert train(tiny_config, tmp_path / "run") == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "Traceback" not in err


def test_a_numeric_failure_leaves_the_rows_written_before_it(tiny_config, tmp_path, monkeypatch, capsys):
    metrics = tmp_path / "run" / "metrics"
    on_disk = {}
    zo_step = cli.zo_step

    def failing_at_step_2(model, batch, cfg, step):
        if step < 2:
            return zo_step(model, batch, cfg, step)
        # what a crash here would leave: the files as they stand, not yet closed
        for name in ("train.csv", "diagnostics.csv"):
            on_disk[name] = list(csv.reader(io.StringIO((metrics / name).read_text())))
        raise NumericError("non-finite loss at +eps, step 2 direction 0")

    monkeypatch.setattr(cli, "zo_step", failing_at_step_2)
    assert train(tiny_config, tmp_path / "run", "--steps", "4") == cli.EXIT_NUMERIC
    for name, rows in on_disk.items():
        with open(metrics / name, newline="") as f:
            assert list(csv.reader(f)) == rows, name
    train_rows = on_disk["train.csv"]
    assert train_rows[0] == list(cli.TRAIN_HEADER)
    assert [row[0] for row in train_rows[1:]] == ["0", "1"]
    diag_rows = on_disk["diagnostics.csv"]
    assert diag_rows[0] == list(diagnostics.DIAG_HEADER)
    assert len(diag_rows) > 1 and {row[0] for row in diag_rows[1:]} == {"0"}
    assert "Traceback" not in capsys.readouterr().err


def test_the_last_diagnostics_row_holds_the_last_training_loss(tiny_config, tmp_path):
    """6 steps at eval_interval 4: the closing step-6 snapshot records step 5's loss."""
    config = tmp_path / "six.ini"
    config.write_text(TINY_INI.replace("eval_interval = 0", "eval_interval = 4"))
    assert train(str(config), tmp_path / "run", "--steps", "6") == cli.EXIT_OK
    metrics = tmp_path / "run" / "metrics"
    with open(metrics / "train.csv", newline="") as f:
        losses = {row["step"]: row["loss"] for row in csv.DictReader(f)}
    with open(metrics / "diagnostics.csv", newline="") as f:
        diag = list(csv.DictReader(f))
    assert {row["step"] for row in diag} == {"0", "4", "6"}
    assert {row["train_loss"] for row in diag if row["step"] == "4"} == {losses["3"]}
    assert {row["train_loss"] for row in diag if row["step"] == "6"} == {losses["5"]}


@pytest.mark.parametrize(
    "fields,plan,epochs",
    [
        ({}, QuantPlan(4, 4), 2),
        ({"a_bits": 16}, QuantPlan(4, None), 4),
        ({"a_bits": None}, QuantPlan(4, None), 4),
        ({"w_bits": None}, None, 4),
        ({"w_bits": 3, "a_bits": 8, "group_size": 16, "scheme": "symmetric"}, QuantPlan(3, 8, "symmetric", 16), 2),
        ({"calib_epochs": 7}, QuantPlan(4, 4), 7),
        ({"a_bits": None, "calib_epochs": 0}, QuantPlan(4, None), 0),
    ],
    ids=["W4A4", "A16-is-weight-only", "no-A-is-weight-only", "full-precision", "W3A8g16-symmetric",
         "epochs-set", "weight-only-epochs-set"],
)
def test_run_config_maps_bits_to_a_plan_and_calibration_epochs(fields, plan, epochs):
    cfg = cli.RunConfig(**fields)
    assert cfg.quant_plan() == plan
    assert cfg.effective_calib_epochs() == epochs


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_checkpoint_of_another_version_is_refused(trained_checkpoint, tmp_path, capsys, version):
    raw = trained_checkpoint
    assert struct.unpack("<II", raw[8:16]) == (4, 0)
    path = tmp_path / f"v{version}.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<II", version, 0) + raw[16:])
    capsys.readouterr()
    assert cli.main(["eval", str(path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"checkpoint version {version} unsupported (expected 4)" in err and "Traceback" not in err


def test_failed_verification_exits_4(tmp_path, monkeypatch, capsys):
    row = theory.CheckRow("zo_unbiasedness", "d=8", 4.0, reference=3.0, margin=-1.0, passed=False)
    report = theory.VerificationReport([row])
    monkeypatch.setattr(theory, "run_verification", lambda quick, seed: report)
    capsys.readouterr()
    assert cli.main(["verify", "--quick", "--metrics-dir", str(tmp_path)]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and "zo_unbiasedness" in err
    assert "Traceback" not in err
    assert (tmp_path / "verification.csv").is_file()


def lightweight_checkpoint(tmp_path, config=ModelConfig(d_model=16, n_layers=2, n_heads=2, context=32), **fields):
    """(file bytes, model) of the lightweight model of RunConfig(**fields) at seed 3, saved at step 0."""
    cfg = cli.RunConfig(model=config, seed=3, **fields)
    model = set_lightweight(build_model(config, cfg.quant_plan(), cfg.seed))
    path = tmp_path / "light.ckpt"
    cli.save_checkpoint(str(path), cfg, model, 0)
    return path.read_bytes(), model


def with_tensor(raw, name, array):
    """raw with the tensor called name replaced by array, in place in the tensor order."""
    start, end = manifest_span(raw)
    manifest = json.loads(raw[start:end])
    body, out = io.BytesIO(raw[end:]), io.BytesIO()
    out.write(raw[:end])
    for listed in manifest["tensors"]:
        tensor = read_tensor(body)
        write_tensor(out, array if listed == name else tensor)
    return out.getvalue()


@pytest.mark.parametrize("name", ["embed", "block0.ln1_gain", "block0.attn_q.w", "block0.attn_q.state.step"])
def test_checkpoint_with_a_tensor_of_the_wrong_shape_is_a_data_error(trained_checkpoint, tmp_path, capsys, name):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(with_tensor(trained_checkpoint, name, np.zeros(7)))
    with pytest.raises(cli.DataError, match=rf"malformed checkpoint \({re.escape(name)} has shape \(7,\)"):
        cli.load_checkpoint(str(path))
    assert_eval_refuses(path, capsys)


def out_of_range(codes, code):
    bad = codes.copy()
    bad[1, 2] = code
    return bad


WEIGHT_ONLY = {"a_bits": 16, "group_size": 16}
MALFORMED = {  # case: (config fields, tensor name, its replacement from the model)
    "uint8 codes in a layer with no weight quantizer": (
        WEIGHT_ONLY,
        "block0.attn_q.w",
        lambda lin, m: np.zeros(lin.w.shape, np.uint8),
    ),
    "int8 codes for uint8": (WEIGHT_ONLY, "block0.attn_k.w", lambda lin, m: lin.w.astype(np.int8)),
    "uint8 embed": (WEIGHT_ONLY, "embed", lambda lin, m: np.zeros(m.embed.shape, np.uint8)),
    "code above q_p": (WEIGHT_ONLY, "block0.attn_k.w", lambda lin, m: out_of_range(lin.w, 16)),
    "code below q_n": ({"scheme": "symmetric"}, "block1.mlp_up.w", lambda lin, m: out_of_range(lin.w, -9)),
    "float64 weight in a frozen slot": (WEIGHT_ONLY, "block0.attn_k.w", lambda lin, m: dequantized_weight(lin)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_frozen_weight_of_the_wrong_dtype_or_off_its_grid_is_malformed(tmp_path, capsys, case):
    fields, name, replacement = MALFORMED[case]
    raw, model = lightweight_checkpoint(tmp_path, **fields)
    layer_id = name.removesuffix(".w")
    lin = dict(model.iter_attachments()).get(layer_id)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(with_tensor(raw, name, replacement(lin, model)))
    with pytest.raises(cli.DataError, match=rf"malformed checkpoint \({re.escape(name)} "):
        cli.load_checkpoint(str(path))
    assert_eval_refuses(path, capsys)


@pytest.mark.parametrize("command", ["train --resume", "eval"])
def test_a_float64_weight_in_a_slot_the_lightweight_replay_froze_is_malformed(tmp_path, tiny_config, capsys, command):
    """The frozen attn_k's codes replaced by their dequantized weight: a layer set_lightweight never builds."""
    raw, model = lightweight_checkpoint(tmp_path, **WEIGHT_ONLY)
    lin = dict(model.iter_attachments())["block0.attn_k"]
    err = refusal(with_tensor(raw, "block0.attn_k.w", dequantized_weight(lin)), tiny_config, tmp_path, capsys, command)
    assert "malformed checkpoint (block0.attn_k.w holds float64; the config builds uint8)" in err


def test_the_default_lightweight_checkpoint_stores_one_byte_per_frozen_weight(tmp_path):
    """The file holds the 81,920 frozen W4A16g16 entries as one uint8 code each."""
    raw, _ = lightweight_checkpoint(tmp_path, ModelConfig(), **WEIGHT_ONLY)
    start, end = manifest_span(raw)
    body = io.BytesIO(raw[end:])
    stored = [read_tensor(body) for _ in json.loads(raw[start:end])["tensors"]]
    assert body.read() == b""
    frozen = [tensor for tensor in stored if tensor.dtype != np.float64]
    assert {tensor.dtype for tensor in frozen} == {np.dtype(np.uint8)}
    assert sum(tensor.nbytes for tensor in frozen) == 81_920


def calibrated(model):
    tokens = np.arange(2 * model.config.context).reshape(2, -1) % model.config.vocab_size
    calibrate_model(model, capture_activations(model, tokens), epochs=1)


ROUND_TRIP_PLANS = {
    "W4A4": {},
    "W4A16g16": {"a_bits": 16, "group_size": 16},
    "W3A8g16 symmetric": {"w_bits": 3, "a_bits": 8, "group_size": 16, "scheme": "symmetric"},
    "fp": {"w_bits": None},
}
ROUND_TRIP_STAGES = {
    "fresh": (),
    "calibrated": (calibrated,),
    "lightweight": (set_lightweight,),
    "RTN": (rtn_quantize,),
    "RTN then lightweight": (rtn_quantize, set_lightweight),
    "calibrated then lightweight": (calibrated, set_lightweight),
}


def attachment_flags(lin):
    att = lin.att
    return holds_codes(lin), att.weight_spec, att.act_spec, att.smoothing is None, att.weight_state is None


def saved_state(cfg, model, step):
    tensors = {name: (label, getattr(owner, attr).tobytes()) for name, label, owner, attr in model.tensors()}
    attachments = {layer_id: attachment_flags(lin) for layer_id, lin in model.iter_attachments()}
    return cfg, step, model.lightweight, tensors, attachments


@pytest.mark.parametrize("stage", ROUND_TRIP_STAGES)
@pytest.mark.parametrize("plan", ROUND_TRIP_PLANS)
def test_a_checkpoint_loads_to_the_model_saved(tmp_path, plan, stage):
    config = ModelConfig(d_model=16, n_layers=2, n_heads=2, context=32)
    cfg = cli.RunConfig(model=config, seed=3, **ROUND_TRIP_PLANS[plan])
    model = build_model(config, cfg.quant_plan(), cfg.seed)
    for apply in ROUND_TRIP_STAGES[stage]:
        apply(model)
    path = str(tmp_path / "saved.ckpt")
    cli.save_checkpoint(path, cfg, model, 5)
    assert saved_state(*cli.load_checkpoint(path)) == saved_state(cfg, model, 5)


@pytest.mark.parametrize("fields", [{}, WEIGHT_ONLY, {"w_bits": None}], ids=["W4A4", "W4A16g16", "fp"])
def test_a_manifest_still_carrying_per_layer_flags_loads_to_the_same_model(tmp_path, fields):
    """Earlier version 4 files map each layer to a frozen flag under "attachments".

    The loader reads nothing under that key, so a flag on every layer, q/v
    included, changes nothing.
    """
    raw, model = lightweight_checkpoint(tmp_path, **fields)
    start, end = manifest_span(raw)
    assert json.loads(raw[start:end]).keys() == {"config", "step", "lightweight", "tensors"}
    flags = {layer_id: {"frozen": True} for layer_id, _ in model.iter_attachments()}
    flagged = tmp_path / "flagged.ckpt"
    flagged.write_bytes(edit_manifest(raw, lambda m: m.update(attachments=flags)))
    cfg, loaded, step = cli.load_checkpoint(str(flagged))
    assert saved_state(cfg, loaded, step) == saved_state(cfg, model, 0)


CALIBRATED_INI = TINY_INI.replace("eval_interval = 0", "eval_interval = 2").replace(
    "samples = 1\nepochs = 0", "samples = 2\nepochs = 1"
)


def run(command, config, run_dir, *extra):
    dirs = ["--checkpoint-dir", str(run_dir / "ckpt"), "--metrics-dir", str(run_dir / "metrics")]
    config_flag = ["--config", config] if config else []
    return cli.main([command, *config_flag, *dirs, *extra])


def diagnostics_lines(path):
    """The data lines of a diagnostics CSV, as written, by step."""
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(diagnostics.DIAG_HEADER)
    by_step = {}
    for line in lines[1:]:
        by_step.setdefault(int(line.split(",")[0]), []).append(line)
    return by_step


@pytest.mark.parametrize("flags", [[], ["--lightweight"]], ids=["W4A4", "lightweight W4A4"])
def test_a_resumed_run_writes_the_diagnostics_rows_of_the_uninterrupted_run(tmp_path, flags):
    """Calibrated, eval_interval 2: 4 steps straight, and 2 steps resumed to 4.

    The resume is run twice: with the run's config file, and with none, where
    the model, data split and probe come from the checkpoint's config alone.
    """
    config = tmp_path / "calibrated.ini"
    config.write_text(CALIBRATED_INI)
    assert run("train", str(config), tmp_path / "straight", "--steps", "4", *flags) == cli.EXIT_OK
    assert run("train", str(config), tmp_path / "first", "--steps", "2", *flags) == cli.EXIT_OK
    first = str(tmp_path / "first" / "ckpt" / "final.ckpt")
    assert run("train", str(config), tmp_path / "resumed", "--steps", "4", "--resume", first) == cli.EXIT_OK
    assert run("train", None, tmp_path / "bare", "--steps", "4", "--resume", first) == cli.EXIT_OK

    straight = diagnostics_lines(tmp_path / "straight" / "metrics" / "diagnostics.csv")
    assert sorted(straight) == [0, 2, 4] and len(straight[4]) == 4
    final = (tmp_path / "straight" / "ckpt" / "final.ckpt").read_bytes()
    for name in ("resumed", "bare"):
        resumed = diagnostics_lines(tmp_path / name / "metrics" / "diagnostics.csv")
        assert sorted(resumed) == [2, 4], name
        assert resumed[4] == straight[4], name
        assert (tmp_path / name / "ckpt" / "final.ckpt").read_bytes() == final, name


FINAL_CHECKPOINT_CASES = {
    "W4A4": ({}, False),
    "lightweight W4A4": ({}, True),
    "full precision": ({"w_bits": None}, False),
}


@pytest.mark.parametrize("case", FINAL_CHECKPOINT_CASES)
def test_eval_of_a_final_checkpoint_writes_every_layer_and_the_last_snapshot_rows(tmp_path, case):
    """eval probes every layer; the layers train probes get its last snapshot's rows but for train_loss."""
    fields, lightweight = FINAL_CHECKPOINT_CASES[case]
    config = tmp_path / "calibrated.ini"
    config.write_text(CALIBRATED_INI)
    cfg = cli.load_config_file(str(config))
    cfg = replace(
        cfg,
        **fields,
        zo=replace(cfg.zo, steps=4),
        checkpoint_dir=str(tmp_path / "ckpt"),
        metrics_dir=str(tmp_path / "metrics"),
    )
    assert cli.cmd_train(cfg, lightweight) == cli.EXIT_OK
    ckpt = str(tmp_path / "ckpt" / "final.ckpt")
    assert cli.main(["eval", ckpt, "--metrics-dir", str(tmp_path / "eval")]) == cli.EXIT_OK

    def rows(path):
        with open(path, newline="") as f:
            return list(csv.DictReader(f))

    last = [row for row in rows(tmp_path / "metrics" / "diagnostics.csv") if row["step"] == "4"]
    evaluated = rows(tmp_path / "eval" / "eval_diagnostics.csv")
    assert len(last) == (1 if case == "full precision" else 4)
    assert len(evaluated) == (1 if case == "full precision" else 6)
    assert {row["train_loss"] for row in evaluated} == {"nan"} and last[0]["train_loss"] != "nan"
    probed = {row["layer_id"] for row in last}
    assert [{**row, "train_loss": "nan"} for row in last] == [r for r in evaluated if r["layer_id"] in probed]


def test_eval_into_the_run_metrics_dir_leaves_its_diagnostics_csv_alone(tmp_path):
    config = tmp_path / "calibrated.ini"
    config.write_text(CALIBRATED_INI)
    assert run("train", str(config), tmp_path, "--steps", "4") == cli.EXIT_OK
    metrics = tmp_path / "metrics"
    written = (metrics / "diagnostics.csv").read_bytes()
    assert cli.main(["eval", str(tmp_path / "ckpt" / "final.ckpt"), "--metrics-dir", str(metrics)]) == cli.EXIT_OK
    assert (metrics / "diagnostics.csv").read_bytes() == written
    with open(metrics / "eval_diagnostics.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 6  # one row per linear of the 1-layer model


def test_diag_is_an_unknown_command(trained_checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "final.ckpt"
    ckpt.write_bytes(trained_checkpoint)
    capsys.readouterr()
    assert cli.main(["diag", str(ckpt), "--metrics-dir", str(tmp_path / "m")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "m").exists()


def test_a_diverging_run_exits_3_and_keeps_the_rows_written_before_it(tmp_path, capsys):
    """lr_weights 1e-1 on the calibrated tiny config: eval ppl 126.8 at step 0, 9.8e8 at step 4."""
    config = tmp_path / "diverging.ini"
    config.write_text(
        CALIBRATED_INI.replace("eval_interval = 2", "eval_interval = 1").replace(
            "lr_weights = 1e-5", "lr_weights = 1e-1"
        )
    )
    capsys.readouterr()
    assert run("train", str(config), tmp_path, "--steps", "8") == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "diverged" in err and "Traceback" not in err
    with open(tmp_path / "metrics" / "diagnostics.csv", newline="") as f:
        ppl = {int(row["step"]): float(row["eval_ppl"]) for row in csv.DictReader(f)}
    assert sorted(ppl) == [0, 1, 2, 3, 4]
    assert max(ppl[s] for s in range(4)) <= cli._DIVERGENCE_FACTOR * ppl[0] < ppl[4]
    with open(tmp_path / "metrics" / "train.csv", newline="") as f:
        assert [row["step"] for row in csv.DictReader(f)] == ["0", "1", "2", "3"]
    assert not (tmp_path / "ckpt").exists()


def test_calibrate_writes_the_checkpoint_and_rows_a_zero_step_train_starts_from(tmp_path):
    config = tmp_path / "calibrated.ini"
    config.write_text(CALIBRATED_INI)
    assert run("calibrate", str(config), tmp_path / "calibrate", "--steps", "0") == cli.EXIT_OK
    assert run("train", str(config), tmp_path / "train", "--steps", "0") == cli.EXIT_OK
    calibrated = tmp_path / "calibrate" / "ckpt" / "calibrated.ckpt"
    assert calibrated.read_bytes() == (tmp_path / "train" / "ckpt" / "final.ckpt").read_bytes()
    written = (tmp_path / "calibrate" / "metrics" / "calibration.csv").read_text()
    assert written == (tmp_path / "train" / "metrics" / "calibration.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(written)))
    assert len(rows) == 6
    assert all(float(row["loss_after"]) <= float(row["loss_before"]) for row in rows)


def test_quantize_writes_the_round_to_nearest_model_and_its_eval_ppl(tiny_config, tmp_path, capsys):
    capsys.readouterr()
    assert run("quantize", tiny_config, tmp_path) == cli.EXIT_OK
    printed = re.search(r"^rtn eval ppl (\S+)$", capsys.readouterr().out, re.M).group(1)
    cfg, model, step = cli.load_checkpoint(str(tmp_path / "ckpt" / "rtn.ckpt"))
    assert step == 0
    want = rtn_quantize(build_model(cfg.model, cfg.quant_plan(), cfg.seed))
    assert all(holds_codes(lin) for _, lin in model.iter_attachments())
    for (name, _, *a), (_, _, *b) in zip(model.tensors(), want.tensors(), strict=True):
        assert getattr(*a).tobytes() == getattr(*b).tobytes(), name
    _, eval_batch = cli._prepare_data(cfg)
    assert printed == f"{diagnostics.track(model, eval_batch, None, cfg=cfg.zo).eval_ppl:.4f}"


def test_lightweight_train_moves_only_the_query_and_value_weights(tiny_config, tmp_path):
    assert run("train", tiny_config, tmp_path / "start", "--steps", "0", "--lightweight") == cli.EXIT_OK
    assert run("train", tiny_config, tmp_path / "run", "--steps", "2", "--lightweight") == cli.EXIT_OK
    _, start, _ = cli.load_checkpoint(str(tmp_path / "start" / "ckpt" / "final.ckpt"))
    _, end, _ = cli.load_checkpoint(str(tmp_path / "run" / "ckpt" / "final.ckpt"))
    assert start.lightweight and end.lightweight
    trained = []
    for (name, label, *a), (_, _, *b) in zip(start.tensors(), end.tensors(), strict=True):
        if getattr(*a).tobytes() != getattr(*b).tobytes():
            trained.append(name)
        assert (name in trained) == (label is not None), name
    assert trained == ["block0.attn_q.w", "block0.attn_v.w"]
