"""Training-dynamics probes: eval perplexity, layer reconstruction and memory accounting.

Each snapshot (`track`) pairs the eval perplexity with the reconstruction
loss of the probed layers, so a run's metrics show whether the two move
together. The module returns records and their CSV rows; cli writes them.
Memory is counted from the arrays the model holds, except the forward
activations, which `transient_forward_bytes` models (its docstring holds
the measured peaks it is checked against) and `measured_peaks` measures.
`peak_rss` reads the whole process, which tracemalloc cannot see.
"""

from __future__ import annotations

import copy
import resource
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .model import ModelGraph, dequantized_weight, linear_forward, row_blocks, token_cross_entropy
from .zo import ZoConfig, optimizer_state_size, zo_step


DIAG_HEADER = (
    "step",
    "layer_id",
    "recon_loss",
    "train_loss",
    "eval_ppl",
    "bytes_params",
    "bytes_frozen",
    "bytes_opt",
    "bytes_fwd",
)


@dataclass
class TrackRecord:
    step: int
    recon_losses: dict[str, float]
    train_loss: float
    eval_loss: float
    eval_ppl: float
    bytes_params: int
    bytes_frozen: int
    bytes_opt: int
    bytes_fwd: int

    def csv_rows(self):
        """The record's rows under DIAG_HEADER: one per probed layer, or one with no layer."""
        for layer_id, recon in sorted(self.recon_losses.items()) or [("", float("nan"))]:
            yield (
                self.step,
                layer_id,
                repr(recon),
                repr(self.train_loss),
                repr(self.eval_ppl),
                self.bytes_params,
                self.bytes_frozen,
                self.bytes_opt,
                self.bytes_fwd,
            )


def layer_reconstruction_loss(lin, x) -> float:
    """Mean squared gap between the layer's full-precision and quantized outputs on input x.

    x is the layer's (rows, d_in) captured input (CalibSet.captures). The
    full-precision reference uses the layer's current master weights, for a
    frozen layer its dequantized codes (dequantized_weight); for a bare
    attachment (LayerAttachment()) the gap is exactly zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y_fp = x @ dequantized_weight(lin) + lin.b
    y_q = linear_forward(x, lin, mode="qat")
    diff = y_fp - y_q
    return float(np.mean(diff * diff))


def track(
    model: ModelGraph,
    eval_set,
    layer_probe_set: dict[str, np.ndarray] | None,
    step: int = 0,
    train_loss: float = float("nan"),
    cfg: ZoConfig | None = None,
) -> TrackRecord:
    """One instrumentation snapshot: eval perplexity plus per-layer reconstruction.

    eval_set is a (sequences, t) token matrix, any other rank a
    DimensionError as in ModelGraph.forward. It is scored cfg.batch_size
    sequences per qat forward (cfg defaults to ZoConfig()), so no eval
    forward is larger than a training one. The per-token losses of every chunk fill one (sequences, t - 1)
    array whose single mean is eval_loss: the bytes of
    model.loss(eval_set, mode="qat").
    """
    cfg = cfg if cfg is not None else ZoConfig()
    eval_set = np.asarray(eval_set)
    if eval_set.ndim != 2:
        raise DimensionError(f"eval set must be a (sequences, t) matrix, got shape {eval_set.shape}")
    if eval_set.size == 0:
        raise DataError("empty eval set")
    if eval_set.shape[1] < 2:
        raise DataError("loss needs sequences of length >= 2")
    token_losses = np.empty((eval_set.shape[0], eval_set.shape[1] - 1))
    for lo in range(0, eval_set.shape[0], cfg.batch_size):
        chunk = eval_set[lo : lo + cfg.batch_size]
        logits = model.forward(chunk, mode="qat")
        token_losses[lo : lo + chunk.shape[0]] = token_cross_entropy(logits[:, :-1, :], chunk[:, 1:])
    eval_loss = float(np.mean(token_losses))
    recon: dict[str, float] = {}
    if layer_probe_set:
        for layer_id, lin in model.iter_attachments():
            if layer_id in layer_probe_set:
                recon[layer_id] = layer_reconstruction_loss(lin, layer_probe_set[layer_id])
    mem = memory_report(model, cfg)
    with np.errstate(over="ignore"):  # ppl is inf once the loss passes ~709.78 nats
        eval_ppl = float(np.exp(eval_loss))
    return TrackRecord(
        step=step,
        recon_losses=recon,
        train_loss=train_loss,
        eval_loss=eval_loss,
        eval_ppl=eval_ppl,
        bytes_params=mem["parameters"],
        bytes_frozen=mem["quantized_frozen"],
        bytes_opt=mem["optimizer_state"],
        bytes_fwd=mem["transient_forward"],
    )


def transient_forward_bytes(config, batch_size: int, *, quantized: bool = True) -> int:
    """Lower bound on the peak live activation bytes of one forward pass of batch_size sequences.

    At the training batch size this bounds every forward a run makes:
    zo_step's, and track's, which scores the eval set that many sequences
    at a time.

    The residual stream plus the largest stage live with it, all float64,
    over n = batch_size * context rows. The forward drops each activation
    after its last reader and streams its wide stages, so the stages are:
    the normed input with q, k and v; q, k, v and the context with one
    sequence's (heads, t, t) attention matrix; the (n, 4 d) mlp hidden with
    one row block of scratch (model.row_blocks: GELU's erf buffer); the mlp
    hidden with its output and, where quantized is true (the linears
    quantize or are frozen), the float64 (4 d, d) weight the GEMM reads,
    which a quantized layer builds each call by fake-quantizing its weight
    and a frozen one by dequantizing its codes; and the logits. Other
    temporaries are not counted: the rest of fake_quant's scratch,
    mlp_down's activation quantizer block, the layer norm's centred copy.

    At batch 4 the model gives 1.75 MiB for the default ModelConfig, where
    the attention stage is the largest, and 8.0 MiB at d_model 256, where
    the weight stage is. One qat forward's tracemalloc peak measured 2.66
    and 11.28 MiB in W4A4 (1.5x at the default), and 1.96 and 8.21 MiB in
    lightweight W4A16g16 (1.1x). tests/test_streamed_forward.py holds the
    peak within 2x of the model for those two at d_model 64 and for W3A8g16
    at 256 (11.58 MiB, 1.45x). On the tiny config of the CLI tests (d_model
    16, 1 layer, context 32) a W4A4 forward peaks at 3.1x, where the
    weight-side quantizer scratch dominates. In full precision (quantized
    false) the GEMM reads the held weight, and the model drops it: 6.0 MiB
    at d_model 256, where one forward measured 6.21 MiB.
    """
    t, d, h, v = config.context, config.d_model, config.n_heads, config.vocab_size
    n = batch_size * t
    block = max(rows.stop - rows.start for rows in row_blocks(n, 4 * d)) * 4 * d
    stages = (
        4 * n * d,  # normed input + q, k, v
        4 * n * d + h * t * t,  # q, k, v, context + one sequence's attention matrix
        4 * n * d + block,  # mlp hidden + one row block of scratch
        5 * n * d + (4 * d * d if quantized else 0),  # mlp hidden + its output + the weight the GEMM reads
        n * v,  # logits
    )
    return 8 * (n * d + max(stages))


def memory_report(model: ModelGraph, cfg: ZoConfig) -> dict[str, int]:
    """Byte breakdown of a training setup.

    parameters: the scalars zo_step trains under cfg, at 8 bytes (the
    quant-affine steps count only with cfg.train_quant_affine);
    quantized_frozen: the held nbytes of every linear weight that does not
    train (model.tensors() leaves it unlabelled): a frozen layer's integer
    codes (freeze_linear), and in lightweight mode a float64 weight with no
    weight quantizer;
    optimizer_state: the ZO coefficients and stream cursors;
    transient_forward: transient_forward_bytes at cfg.batch_size, the only
    term that depends on it, quantized unless no linear has a weight
    quantizer; its docstring gives the measured forward peaks next to it.
    """
    params = model.trainable_parameters(include_quant_affine=cfg.train_quant_affine).size * 8
    held = (getattr(owner, attr) for _, label, owner, attr in model.tensors() if attr == "w" and label is None)
    frozen = sum(w.nbytes for w in held)
    quantized = any(lin.att.weight_spec is not None for _, lin in model.iter_attachments())
    return {
        "parameters": params,
        "quantized_frozen": frozen,
        "optimizer_state": optimizer_state_size(cfg),
        "transient_forward": transient_forward_bytes(model.config, cfg.batch_size, quantized=quantized),
    }


def measured_peaks(model: ModelGraph, batch, cfg: ZoConfig) -> dict[str, int]:
    """tracemalloc peaks in bytes: one qat forward of batch, one zo_step on a copy.

    Each peak counts only what the call allocates beyond what is already
    held, so it measures what transient_forward models. The zo_step runs at
    step 0 on a deep copy, so model is not trained.
    """
    scratch = copy.deepcopy(model)
    calls = {
        "forward": lambda: model.forward(batch, mode="qat"),
        "zo_step": lambda: zo_step(scratch, batch, cfg, 0),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def peak_rss() -> int:
    """The process's peak resident set size so far, in bytes.

    getrusage's ru_maxrss, which Linux reports in KiB and macOS in bytes. It
    includes the interpreter, the imported libraries and freed heap the
    allocator kept, none of which tracemalloc sees.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024
