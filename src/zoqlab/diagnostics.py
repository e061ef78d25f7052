"""Training-dynamics probes: eval perplexity, layer reconstruction and memory accounting.

Each snapshot (`track`) pairs the eval perplexity with the reconstruction
loss of the probed layers, so a run's metrics show whether the two move
together. The module returns records and their CSV rows; cli writes them.
Memory is counted from the arrays the model holds, except the forward
activations, which `transient_forward_bytes` bounds from below and
`measured_peaks` measures.
"""

from __future__ import annotations

import copy
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import ModelGraph, linear_forward, token_cross_entropy
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


def layer_reconstruction_loss(lin, captures) -> float:
    """Mean squared gap between the layer's full-precision and quantized outputs.

    The full-precision reference uses the layer's current master weights; for
    a bypassed attachment the gap is exactly zero.
    """
    x = np.concatenate([np.asarray(c, dtype=np.float64) for c in captures], axis=0)
    y_fp = x @ lin.w + lin.b
    y_q = linear_forward(x, lin, mode="qat")
    diff = y_fp - y_q
    return float(np.mean(diff * diff))


def track(
    model: ModelGraph,
    eval_set,
    layer_probe_set: dict[str, list] | None,
    step: int = 0,
    train_loss: float = float("nan"),
    cfg: ZoConfig | None = None,
) -> TrackRecord:
    """One instrumentation snapshot: eval perplexity plus per-layer reconstruction.

    The eval set is scored cfg.batch_size sequences per qat forward (cfg
    defaults to ZoConfig()), so no eval forward is larger than a training
    one. The per-token losses of every chunk fill one (sequences, t - 1)
    array whose single mean is eval_loss: the bytes of
    model.loss(eval_set, mode="qat").
    """
    cfg = cfg if cfg is not None else ZoConfig()
    eval_set = np.atleast_2d(eval_set)
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


def transient_forward_bytes(config, batch_size: int) -> int:
    """Lower bound on the peak live activation bytes of one forward pass of batch_size sequences.

    At the training batch size this bounds every forward a run makes:
    zo_step's, and track's, which scores the eval set that many sequences
    at a time.

    Residual stream plus the largest concurrent stage (qkv projections,
    attention matrices, mlp hidden, or logits), all float64. Temporaries are
    not counted: the quantizers' scratch matrices, the layer norm's centred
    copy, GELU's erf buffer. For the default ModelConfig at batch 4 the model
    gives 4.5 MiB, while the tracemalloc peak of one W4A4 qat forward measured
    11.0 MiB with out-of-place elementwise passes and 8.2 MiB with in-place
    ones (7.0 MiB in lightweight mode).
    """
    t, d, h, v = config.context, config.d_model, config.n_heads, config.vocab_size
    stages = (
        t * d + 3 * t * d,  # normed input + q, k, v
        t * d + 2 * h * t * t,  # scores and attention weights
        t * d + 2 * 4 * t * d,  # mlp hidden and activation
        t * v,  # logits
    )
    return 8 * batch_size * (t * d + max(stages))


def memory_report(model: ModelGraph, cfg: ZoConfig) -> dict[str, int]:
    """Byte breakdown of a training setup.

    parameters: the scalars zo_step trains under cfg, at 8 bytes (the
    quant-affine steps count only with cfg.train_quant_affine);
    quantized_frozen: the nbytes of the pre-quantized weight matrices, as
    held (float64);
    optimizer_state: the ZO coefficients and stream cursors;
    transient_forward: transient_forward_bytes at cfg.batch_size, the only
    term that depends on it. A measured forward peaks at 1.5-1.8x it at the
    default ModelConfig and batch 4, and at 3.7x on the tiny config of the
    CLI tests (d_model 16, 1 layer, context 32).
    """
    params = model.trainable_parameters(include_quant_affine=cfg.train_quant_affine).size * 8
    frozen = sum(lin.w.nbytes for _, lin in model.iter_attachments() if lin.att.pre_quantized)
    return {
        "parameters": params,
        "quantized_frozen": frozen,
        "optimizer_state": optimizer_state_size(cfg),
        "transient_forward": transient_forward_bytes(model.config, cfg.batch_size),
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
