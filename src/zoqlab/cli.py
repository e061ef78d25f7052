"""Command-line harness: train, eval, verify, quantize, calibrate.

Runs are fully determined by (config, seed, corpus): corpus splitting, batch
sampling, weight init, and ZO perturbations all derive from named Philox
stream namespaces of the master seed, so repeating a run reproduces every
artifact byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import os
import re
import struct
import sys
import typing
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from importlib import resources

import numpy as np

from . import diagnostics, theory
from .calibration import CalibSet, calibrate_model, capture_activations, rtn_quantize
from .errors import (
    DataError,
    NumericError,
    UsageError,
    VerificationError,
    ZoqlabError,
)
from .model import (
    ModelConfig,
    ModelGraph,
    QuantPlan,
    build_model,
    holds_codes,
    set_lightweight,
)
from .numerics import read_exact, read_tensor, uniforms_at, write_tensor
from .zo import GROUP_ORDER, STEP_LIMIT, ZoConfig, zo_step

_CKPT_MAGIC = b"ZQLB-CKP"
_CKPT_VERSION = 4

# stream-id namespaces of the master seed; direction streams (step << 32) | i
# stay below 2^62, since zo.direction_stream_id refuses steps of 2^30 or more
_SPLIT_STREAM = 1 << 62
_BATCH_STREAM = 1 << 63  # ORed with the step index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# a snapshot's eval ppl above this multiple of the first's, or not finite, stops train
_DIVERGENCE_FACTOR = 10.0

TRAIN_HEADER = ("step", "loss", *(f"upd_{label}" for label in GROUP_ORDER), "wall_ms", "rng_cursor")
CALIB_HEADER = ("layer_id", "loss_before", "loss_after", "delta_loss")


# ---------------------------------------------------------------------------
# Quantization notation
# ---------------------------------------------------------------------------

_QUANT_RE = re.compile(r"^W(\d+)A(\d+)(?:g(\d+))?$")


def parse_quant_notation(text: str) -> tuple[int, int, int | None]:
    """'W4A4' / 'W2A16g128' -> (w_bits, a_bits, group_size); RunConfig checks their ranges."""
    m = _QUANT_RE.match(text.strip())
    if not m:
        raise UsageError(f"bad quantization notation {text!r} (expected W{{w}}A{{a}}[g{{gs}}])")
    return int(m.group(1)), int(m.group(2)), int(m.group(3)) if m.group(3) else None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# INI section -> key -> dotted RunConfig attribute. This is the one statement
# of the config file keys and of the manifest's config fields; the manifest
# keeps [run] keys at its top level and leaves the output paths out, since
# where a run writes is not part of the run.
_SCHEMA = {
    "model": {k: f"model.{k}" for k in ("vocab_size", "d_model", "n_layers", "n_heads", "context")},
    "quant": {k: k for k in ("w_bits", "a_bits", "group_size", "scheme")},
    "train": {
        "eval_interval": "eval_interval",
        **{
            k: f"zo.{k}"
            for k in ("steps", "batch_size", "epsilon", "directions",
                      *(f"lr_{label}" for label in GROUP_ORDER), "lr_schedule", "train_quant_affine")
        },
    },
    "calib": {"epochs": "calib_epochs", "samples": "calib_samples"},
    "paths": {k: k for k in ("corpus", "checkpoint_dir", "metrics_dir")},
    "run": {"seed": "seed"},
}
_OUTPUT_PATHS = ("checkpoint_dir", "metrics_dir")


def _updated(obj, updates: dict):
    """A copy of a config dataclass with dotted attributes ('zo.steps') set."""
    flat, nested = {}, {}
    for attr, value in updates.items():
        head, _, rest = attr.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            flat[head] = value
    flat.update({head: _updated(getattr(obj, head), sub) for head, sub in nested.items()})
    return replace(obj, **flat)


def _notation_updates(text: str) -> dict:
    return dict(zip(("w_bits", "a_bits", "group_size"), parse_quant_notation(text)))


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    w_bits: int | None = 4
    a_bits: int | None = 4
    group_size: int | None = None
    scheme: str = "asymmetric"
    zo: ZoConfig = field(default_factory=lambda: ZoConfig(steps=2000))
    eval_interval: int = 200
    calib_epochs: int | None = None  # None -> 2 (weight-activation) / 4 (weight-only)
    calib_samples: int = 8
    corpus: str = ""  # empty -> bundled corpus
    checkpoint_dir: str = "runs/checkpoints"
    metrics_dir: str = "runs/metrics"
    seed: int = 0  # also the ZO direction seed: zo.seed follows it

    def __post_init__(self):
        for name in ("w_bits", "a_bits"):
            bits = getattr(self, name)
            if bits is not None and not 2 <= bits <= 16:
                raise UsageError(f"{name} must be in [2, 16], got {bits}")
        if self.group_size is not None and self.group_size < 1:
            raise UsageError(f"group size must be >= 1, got {self.group_size}")
        if self.group_size is not None and self.model.d_model % self.group_size != 0:
            raise UsageError(
                f"group size {self.group_size} does not divide d_model {self.model.d_model}"
            )
        if self.calib_samples < 1:
            raise UsageError(f"calibration samples must be >= 1, got {self.calib_samples}")
        if self.calib_epochs is not None and self.calib_epochs < 0:
            raise UsageError(f"calibration epochs must be >= 0, got {self.calib_epochs}")
        if self.eval_interval < 0:
            raise UsageError(f"eval interval must be >= 0, got {self.eval_interval}")
        _check_seed(self.seed)
        if self.zo.seed != self.seed:
            self.zo = replace(self.zo, seed=self.seed)

    def quant_plan(self) -> QuantPlan | None:
        """None in full precision; a_bits of None or 16 is weight-only."""
        if self.w_bits is None:
            return None
        a = self.a_bits if self.a_bits is not None and self.a_bits < 16 else None
        return QuantPlan(
            w_bits=self.w_bits, a_bits=a, scheme=self.scheme, group_size=self.group_size
        )

    def effective_calib_epochs(self) -> int:
        if self.calib_epochs is not None:
            return self.calib_epochs
        plan = self.quant_plan()
        return 2 if plan is not None and plan.a_bits is not None else 4

    def to_dict(self) -> dict:
        """The manifest's config: one dict per section, [run] keys at the top level."""
        d: dict = {}
        for section, keys in _SCHEMA.items():
            for key, attr in keys.items():
                if attr not in _OUTPUT_PATHS:
                    slot = d if section == "run" else d.setdefault(section, {})
                    slot[key] = reduce(getattr, attr.split("."), self)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of to_dict; a field the dict leaves out keeps its default.

        A field the schema lacks raises KeyError, and a d that is not a dict
        or a value that is not of its field's type (_checked) TypeError.
        Output paths, which older manifests hold, are ignored.
        """
        if not isinstance(d, dict):
            raise TypeError(f"config {d!r} is not a JSON object")
        updates = {}
        for section, keys in d.items():
            if not isinstance(keys, dict):
                section, keys = "run", {section: keys}
            for key, value in keys.items():
                attr = _SCHEMA[section][key]
                if attr not in _OUTPUT_PATHS:
                    updates[attr] = _checked(attr, value)
        return _updated(cls(), updates)


def _check_seed(seed: int) -> None:
    """Seeds lie in [0, 2^63): Philox keys are uint64, and the theory suite adds up to 303 to its seed."""
    if not 0 <= seed < 1 << 63:
        raise UsageError(f"seed must be in [0, 2^63), got {seed}")


@cache
def _field_type(attr: str) -> tuple[type, bool]:
    """(type, whether None is allowed) of the dataclass field a dotted RunConfig attribute names."""
    owner = RunConfig
    *heads, name = attr.split(".")
    for head in heads:
        owner = typing.get_type_hints(owner)[head]
    hint = typing.get_type_hints(owner)[name]
    kinds = typing.get_args(hint) or (hint,)
    (kind,) = [t for t in kinds if t is not type(None)]
    return kind, type(None) in kinds


def _checked(attr: str, value):
    """A manifest config value of its field's type: no bool for a number, an int for a float, None if optional."""
    kind, optional = _field_type(attr)
    if value is None and optional:
        return None
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"config {attr} {value!r} is not of type {kind.__name__}")
    return kind(value)


def _cast(attr: str, text: str):
    """A config file value as the type its dataclass field declares."""
    kind, _ = _field_type(attr)
    if kind is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    return kind(text)


def config_file_updates(path: str) -> dict:
    """A config file's values, by dotted RunConfig attribute. Sections: [model] [quant] [train] [calib] [paths] [run].

    The keys are those of _SCHEMA, plus [quant] notation = W4A4 / W2A16g128,
    which the other [quant] keys override. An unknown section or key, or a
    value that does not parse, is a usage error.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise UsageError(f"{path}: {e}") from None
    if not read:
        raise DataError(f"cannot read config file {path}")
    updates = {}
    if parser.has_option("quant", "notation"):
        updates.update(_notation_updates(parser["quant"]["notation"]))
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"{path}: unknown config section [{section}]")
        for key, text in parser.items(section):
            if section == "quant" and key == "notation":
                continue
            attr = _SCHEMA[section].get(key)
            if attr is None:
                raise UsageError(f"{path}: unknown config key {key!r} in section [{section}]")
            try:
                updates[attr] = _cast(attr, text)
            except (KeyError, ValueError):
                raise UsageError(f"{path}: bad value {text!r} for [{section}] {key}") from None
    return updates


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------

def default_corpus_path() -> str:
    return str(resources.files("zoqlab").joinpath("data/corpus.txt"))


def ingest_corpus(path: str, context: int = 128, seed: int = 0):
    """Byte-tokenize a UTF-8 text file into shuffled train/eval chunks (90/10).

    Returns (train, eval) uint8 arrays of shape (n, context): a byte is its
    own token id, and the embedding lookup and the loss index with uint8
    exactly as with int64. The shuffle is a seeded Philox permutation, so
    the split is a pure function of (file, context, seed).
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise DataError(f"empty corpus file {path}")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"corpus {path} is not UTF-8 at byte offset {e.start}") from e
    tokens = np.frombuffer(data, dtype=np.uint8)
    n_chunks = tokens.shape[0] // context
    if n_chunks < 1:
        raise DataError(
            f"corpus too small: {tokens.shape[0]} bytes yields no chunk of {context}"
        )
    chunks = tokens[: n_chunks * context].reshape(n_chunks, context)
    order = np.argsort(uniforms_at(seed, _SPLIT_STREAM, 0, n_chunks), kind="stable")
    shuffled = chunks[order]
    n_eval = max(1, int(round(0.1 * n_chunks))) if n_chunks >= 2 else 0
    return shuffled[n_eval:], shuffled[:n_eval]


def sample_batch(train, batch_size: int, seed: int, step: int):
    u = uniforms_at(seed, _BATCH_STREAM | step, 0, batch_size)
    idx = np.minimum((u * train.shape[0]).astype(np.int64), train.shape[0] - 1)
    return train[idx]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, cfg: RunConfig, model: ModelGraph, step: int) -> None:
    """Atomic single-file checkpoint: manifest plus tensor containers.

    The tensors are those of model.tensors(), in its order and each in its
    own dtype, so a frozen layer's weight is stored as its codes; the manifest
    records their names, the config, the step and the lightweight flag.
    Nothing else is stored: the loader rebuilds the model's structure from
    the config and the lightweight flag (_restore_model), a frozen layer
    reads as one whose weight is codes, and the ZO streams follow from the
    config's seed and the step.
    """
    entries = [(name, getattr(owner, attr)) for name, _, owner, attr in model.tensors()]
    manifest = {
        "config": cfg.to_dict(),
        "step": step,
        "lightweight": model.lightweight,
        "tensors": [name for name, _ in entries],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<II", _CKPT_VERSION, 0))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for _, arr in entries:
                write_tensor(f, arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str):
    """Returns (RunConfig, ModelGraph, step) of a version 4 file; any other version is refused.

    The model is the run's build replayed, then filled from the file in one
    slot pass (_restore_model). A malformed file raises DataError: a
    truncated one, or a manifest that does not parse or whose step,
    lightweight flag, config or tensor list _restore_model refuses.
    """
    try:
        with open(path, "rb") as f:
            header = f.read(16)
            if len(header) != 16 or header[:8] != _CKPT_MAGIC:
                raise DataError(f"{path} is not a checkpoint (bad magic)")
            version, _ = struct.unpack("<II", header[8:])
            if version != _CKPT_VERSION:
                raise DataError(f"checkpoint version {version} unsupported (expected {_CKPT_VERSION}); refusing")
            (mlen,) = struct.unpack("<Q", read_exact(f, 8))
            manifest = json.loads(read_exact(f, mlen).decode("utf-8"))
            return _restore_model(path, manifest, f)
    except ZoqlabError:
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: malformed checkpoint ({type(e).__name__}: {e})") from e


def _restore_model(path: str, manifest: dict, f):
    """The config's seed model, made lightweight (set_lightweight) if the
    manifest says so, with each tensor read from f straight into its slot.

    The step must be an int in [0, 2^30), the steps a ZO direction stream
    can name (zo.direction_stream_id), and lightweight true or false; both
    are checked before anything is built. The tensor list must be the names
    of model.tensors() in order. Each tensor must have its slot's shape and
    be float64 or, as a quantized layer's weight, codes in the spec's
    code_dtype within [q_n, q_p], which make the layer frozen (holds_codes).
    A weight the replay froze takes only codes: a round-to-nearest file
    (rtn_quantize) freezes layers the plain build holds in float64, but no
    writer thaws a layer that set_lightweight froze.
    A smoothing scale must be finite and positive. Other manifest keys, such
    as the per-layer "attachments" of earlier version 4 files, are ignored.
    """
    step, lightweight = manifest["step"], manifest["lightweight"]
    if type(step) is not int or not 0 <= step < STEP_LIMIT:
        raise DataError(f"{path}: malformed checkpoint (step {step!r} is not an integer in [0, 2^30))")
    if type(lightweight) is not bool:
        raise DataError(f"{path}: malformed checkpoint (lightweight {lightweight!r} is not true or false)")
    try:
        cfg = RunConfig.from_dict(manifest["config"])
    except UsageError as e:  # a bad config in a file is bad data, not bad usage
        raise DataError(f"{path}: malformed checkpoint ({e})") from e
    model = build_model(cfg.model, cfg.quant_plan(), cfg.seed)
    if lightweight:
        set_lightweight(model)
    slots = list(model.tensors())
    if [name for name, *_ in slots] != manifest["tensors"]:
        raise ValueError("the tensor list does not match the config")
    for name, _, owner, attr in slots:
        tensor, want = read_tensor(f), getattr(owner, attr).shape
        if tensor.shape != want:
            raise DataError(f"{path}: malformed checkpoint ({name} has shape {tensor.shape}; the config builds {want})")
        spec = owner.att.weight_spec if attr == "w" else None  # attr "w" is a linear's weight
        frozen = spec is not None and holds_codes(owner)
        dtypes = ([] if frozen else [np.dtype(np.float64)]) + ([spec.code_dtype] if spec is not None else [])
        if tensor.dtype not in dtypes:
            allowed = " or ".join(map(str, dtypes))
            raise DataError(f"{path}: malformed checkpoint ({name} holds {tensor.dtype}; the config builds {allowed})")
        if tensor.dtype != np.float64 and not spec.q_n <= tensor.min() <= tensor.max() <= spec.q_p:
            raise DataError(f"{path}: malformed checkpoint ({name} holds a code outside [{spec.q_n}, {spec.q_p}])")
        if name.endswith(".smoothing.scale") and not np.all(np.isfinite(tensor) & (tensor > 0)):
            raise DataError(f"{path}: {name.removesuffix('.smoothing.scale')} smoothing scale is not finite and positive")
        setattr(owner, attr, tensor)
    return cfg, model, step


# ---------------------------------------------------------------------------
# Metric writers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _csv_log(path, header):
    """The one metrics writer: opens path, writes header, yields write(rows).

    Every write is flushed, so a run that stops early leaves each row
    written so far on disk.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)

        def write(rows):
            writer.writerows(rows)
            f.flush()

        write([header])
        yield write


def _write_csv(path, header, rows):
    with _csv_log(path, header) as write:
        write(rows)


def _write_calibration_csv(metrics_dir: str, calib_rows) -> None:
    rows = [(r["layer_id"], *(repr(r[k]) for k in CALIB_HEADER[1:])) for r in calib_rows]
    _write_csv(os.path.join(metrics_dir, "calibration.csv"), CALIB_HEADER, rows)


def _train_row(report):
    norms = (repr(report.update_norms.get(label, 0.0)) for label in GROUP_ORDER)
    return (report.step, repr(report.loss), *norms, f"{report.wall_ms:.3f}", report.rng_cursor)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _prepare_data(cfg: RunConfig):
    """(train split, eval batch): the batch every snapshot scores is the first 16 eval sequences."""
    corpus = cfg.corpus or default_corpus_path()
    train, eval_set = ingest_corpus(corpus, cfg.model.context, cfg.seed)
    if train.shape[0] == 0 or eval_set.shape[0] == 0:
        raise DataError(f"corpus {corpus} too small for a train/eval split")
    top = max(int(train.max()), int(eval_set.max()))
    if top >= cfg.model.vocab_size:
        raise DataError(
            f"corpus token {top} exceeds model vocab {cfg.model.vocab_size}; "
            "use an ASCII corpus or raise vocab_size"
        )
    return train, eval_set[:16]


def _seed_model(cfg: RunConfig, train):
    """The model build_model makes from (config, seed) and its full-precision linear
    inputs on train[:calib_samples], None in full precision: what calibration starts
    from and every run's layer probe reads."""
    model = build_model(cfg.model, cfg.quant_plan(), cfg.seed)
    if cfg.quant_plan() is None:
        return model, None
    return model, capture_activations(model, train[: cfg.calib_samples]).captures


def _probe(captures):
    """train's layer probe: the first 4 linears' captures, the only ones train holds
    through its ZO loop. eval probes every captured layer."""
    return None if captures is None else dict(list(captures.items())[:4])


def _initialize(cfg: RunConfig, train, lightweight: bool):
    """Build + calibrate (or clipping-only init) per the configured mode.

    Returns (model, probe, calibration rows). Of the captures only the
    probe's outlive calibration.
    """
    model, captures = _seed_model(cfg, train)
    calib_rows = []
    if captures is not None:
        calib_rows = calibrate_model(model, CalibSet(captures), cfg.effective_calib_epochs())
    if lightweight:
        set_lightweight(model)
    return model, _probe(captures), calib_rows


def cmd_train(cfg: RunConfig, lightweight: bool = False, resume: str | None = None, command_line=()) -> int:
    """Train command_line's values (_command_line) over cfg; or, given resume, continue that checkpoint's
    run over its config. A resumed run takes the command line's zo.steps and [paths] values, keeps the
    checkpoint's for any the command line omits, and refuses any other value but the checkpoint's (_merged)."""
    base, model, start_step = load_checkpoint(resume) if resume is not None else (cfg, None, 0)
    cfg = _merged(base, command_line, resumed=resume is not None)
    if resume is not None:
        if lightweight and not model.lightweight:
            raise UsageError("--resume --lightweight needs a lightweight checkpoint; this one trains the full model")
        if cfg.zo.steps < start_step:
            raise UsageError(
                f"--resume with --steps {cfg.zo.steps} would end before the checkpoint's step "
                f"{start_step}; resume to at least {start_step} steps"
            )
        if base.zo.lr_schedule != "constant" and cfg.zo.steps != base.zo.steps:
            # the first part decayed over the old horizon, so no straight run
            # of the new length passes through the checkpoint
            raise UsageError(
                f"--resume with --steps {cfg.zo.steps} would move the {base.zo.lr_schedule} "
                f"schedule's horizon from {base.zo.steps} steps; only a run trained "
                "with lr_schedule = constant can be resumed to a new step count"
            )
    train, eval_batch = _prepare_data(cfg)
    if resume is not None:
        probe = _probe(_seed_model(cfg, train)[1])
    else:
        model, probe, calib_rows = _initialize(cfg, train, lightweight)
        if calib_rows:
            _write_calibration_csv(cfg.metrics_dir, calib_rows)
    with (
        _csv_log(os.path.join(cfg.metrics_dir, "train.csv"), TRAIN_HEADER) as write_train,
        _csv_log(os.path.join(cfg.metrics_dir, "diagnostics.csv"), diagnostics.DIAG_HEADER) as write_diag,
    ):
        limit = sys.float_info.max  # until the first snapshot; nan and inf exceed it

        def snapshot(step, train_loss=float("nan")):
            record = diagnostics.track(model, eval_batch, probe, step, train_loss, cfg=cfg.zo)
            write_diag(record.csv_rows())
            if not record.eval_ppl <= limit:
                raise NumericError(
                    f"eval ppl {record.eval_ppl:.6g} at step {step} is not finite or exceeds "
                    f"{_DIVERGENCE_FACTOR:g}x the first snapshot's: the run diverged"
                )
            return record

        record = snapshot(start_step)
        limit = _DIVERGENCE_FACTOR * record.eval_ppl
        print(f"step {start_step}: eval ppl {record.eval_ppl:.4f}")
        for step in range(start_step, cfg.zo.steps):
            batch = sample_batch(train, cfg.zo.batch_size, cfg.seed, step)
            report = zo_step(model, batch, cfg.zo, step)
            write_train([_train_row(report)])
            if cfg.eval_interval > 0 and (step + 1) % cfg.eval_interval == 0:
                record = snapshot(step + 1, report.loss)
                print(
                    f"step {step + 1}: train loss {report.loss:.4f} "
                    f"eval ppl {record.eval_ppl:.4f}"
                )
        if cfg.zo.steps > start_step and record.step != cfg.zo.steps:
            record = snapshot(cfg.zo.steps, report.loss)
    ckpt = os.path.join(cfg.checkpoint_dir, "final.ckpt")
    save_checkpoint(ckpt, cfg, model, cfg.zo.steps)
    print(f"final eval ppl {record.eval_ppl:.4f}")
    print(f"checkpoint {ckpt}")
    return EXIT_OK


def cmd_eval(checkpoint: str, corpus: str | None, metrics_dir: str | None) -> int:
    """eval ppl and every captured layer's reconstruction loss, into
    eval_diagnostics.csv; then the modelled and measured memory, printed."""
    cfg, model, step = load_checkpoint(checkpoint)
    cfg = replace(cfg, corpus=corpus or cfg.corpus, metrics_dir=metrics_dir or cfg.metrics_dir)
    train, eval_batch = _prepare_data(cfg)
    record = diagnostics.track(model, eval_batch, _seed_model(cfg, train)[1], step=step, cfg=cfg.zo)
    path = os.path.join(cfg.metrics_dir, "eval_diagnostics.csv")
    _write_csv(path, diagnostics.DIAG_HEADER, record.csv_rows())
    print(f"eval ppl {record.eval_ppl!r}")
    mem = diagnostics.memory_report(model, cfg.zo)
    for key, val in mem.items():
        print(f"  {key}: {val} bytes")
    chunk = eval_batch[: cfg.zo.batch_size]
    peaks = diagnostics.measured_peaks(model, chunk, cfg.zo)
    print(f"measured, tracemalloc peak on one eval chunk of {chunk.shape[0]} sequences:")
    print(f"  forward: {peaks['forward']} bytes (modelled transient_forward {mem['transient_forward']})")
    print(f"  zo_step: {peaks['zo_step']} bytes (on a copy of the model)")
    print(f"peak RSS: {diagnostics.peak_rss()} bytes (whole process, with the interpreter and imports tracemalloc cannot see)")
    return EXIT_OK


def cmd_verify(quick: bool, seed: int, metrics_dir: str) -> int:
    _check_seed(seed)
    report = theory.run_verification(quick=quick, seed=seed)
    print(report.text())
    header, *rows = report.csv_rows()
    _write_csv(os.path.join(metrics_dir, "verification.csv"), header, rows)
    with open(os.path.join(metrics_dir, "verification.txt"), "w") as f:
        f.write(report.text() + "\n")
    if not report.passed:
        failing = [r.name for r in report.rows if not r.passed]
        raise VerificationError(f"checks failed: {', '.join(failing)}")
    return EXIT_OK


def cmd_quantize(cfg: RunConfig) -> int:
    _, eval_batch = _prepare_data(cfg)
    model = build_model(cfg.model, cfg.quant_plan(), cfg.seed)
    rtn_quantize(model)
    record = diagnostics.track(model, eval_batch, None, cfg=cfg.zo)
    ckpt = os.path.join(cfg.checkpoint_dir, "rtn.ckpt")
    save_checkpoint(ckpt, cfg, model, 0)
    print(f"rtn eval ppl {record.eval_ppl:.4f}")
    print(f"checkpoint {ckpt}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig) -> int:
    train, eval_batch = _prepare_data(cfg)
    model, _, calib_rows = _initialize(cfg, train, lightweight=False)
    _write_calibration_csv(cfg.metrics_dir, calib_rows)
    record = diagnostics.track(model, eval_batch, None, cfg=cfg.zo)
    ckpt = os.path.join(cfg.checkpoint_dir, "calibrated.ckpt")
    save_checkpoint(ckpt, cfg, model, 0)
    print(f"calibrated eval ppl {record.eval_ppl:.4f}")
    for r in calib_rows:
        print(
            f"  {r['layer_id']}: loss {r['loss_before']:.6g} -> {r['loss_after']:.6g} "
            f"(delta_loss {r['delta_loss']:.4f})"
        )
    print(f"checkpoint {ckpt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(p):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--quant", help="quantization notation, e.g. W4A4 or W2A16g128")
    p.add_argument("--steps", type=int, help="ZO training steps")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--corpus", help="corpus text file (default: bundled)")
    p.add_argument("--checkpoint-dir", help="checkpoint output directory")
    p.add_argument("--metrics-dir", help="metrics output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="zoqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand's parser sets run(args), the call main makes
    p_train = sub.add_parser("train", help="calibrate + ZO-train + checkpoint")
    _add_config_flags(p_train)
    p_train.add_argument("--lightweight", action="store_true", help="freeze all but attention q/v")
    p_train.add_argument("--resume", help="checkpoint to resume from; the run trains its config, where only --steps, "
                         "--corpus and the output dirs apply and an omitted one is the checkpoint's; others must agree")
    p_train.set_defaults(run=lambda a: cmd_train(RunConfig(), a.lightweight, a.resume, _command_line(a)))

    p_eval = sub.add_parser("eval", help="perplexity + diagnostics of a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--corpus")
    p_eval.add_argument("--metrics-dir")
    p_eval.set_defaults(run=lambda a: cmd_eval(a.checkpoint, a.corpus, a.metrics_dir))

    p_verify = sub.add_parser("verify", help="run the estimator theory suite")
    p_verify.add_argument("--quick", action="store_true", help="reduced sample sizes")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--metrics-dir", default=RunConfig.metrics_dir)
    p_verify.set_defaults(run=lambda a: cmd_verify(a.quick, a.seed, a.metrics_dir))

    p_quant = sub.add_parser("quantize", help="round-to-nearest baseline checkpoint")
    _add_config_flags(p_quant)
    p_quant.set_defaults(run=lambda a: cmd_quantize(_merged(RunConfig(), _command_line(a))))

    p_calib = sub.add_parser("calibrate", help="reconstruction init only")
    _add_config_flags(p_calib)
    p_calib.set_defaults(run=lambda a: cmd_calibrate(_merged(RunConfig(), _command_line(a))))

    return parser


def _command_line(args) -> list:
    """The command line's (source, updates) pairs, in the order they apply: the --config file, --quant, each flag."""
    pairs = [(args.config, config_file_updates(args.config))] if args.config else []
    if args.quant:
        pairs.append(("--quant", _notation_updates(args.quant)))
    flags = {"seed": "seed", "steps": "zo.steps", **{dest: dest for dest in _SCHEMA["paths"]}}
    pairs += [(f"--{dest.replace('_', '-')}", {attr: getattr(args, dest)})
              for dest, attr in flags.items() if getattr(args, dest) is not None]
    return pairs


def _merged(cfg: RunConfig, command_line, resumed: bool = False) -> RunConfig:
    """cfg with command_line's (source, updates) pairs set over it in order. A resumed run, whose cfg is its
    checkpoint's, takes only zo.steps and the [paths] values; any other that differs from cfg's is a usage error."""
    updates = {}
    for source, given in command_line:
        for attr, value in given.items():
            held = reduce(getattr, attr.split("."), cfg)
            if resumed and attr not in ("zo.steps", *_SCHEMA["paths"].values()) and value != held:
                key = next(f"[{sec}] {k}" for sec, keys in _SCHEMA.items() for k, a in keys.items() if a == attr)
                raise UsageError(f"--resume trains the checkpoint's {key} {held!r}, not {value!r} from {source}")
            updates[attr] = value
    return _updated(cfg, updates)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ZoqlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
