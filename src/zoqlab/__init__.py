"""Forward-only quantization-aware training laboratory.

Modules:
  numerics      tensors, typed tensor files (float64 and 8/16-bit integer
                codes), and the one stream reader: every draw is
                normals_at/uniforms_at(seed, stream, position, n), where
                stream is one id or a sequence of ids, drawn in one call
  quantizer     uniform fake-quantization with learnable clipping, each tensor
                in its own layout; group_view and per_group state its groups:
                per token, per output channel or in blocks of input rows
  smoothing     channel-wise scale/shift outlier migration: the activation
                side and the weight-side fold, each written once
  model         toy decoder-only transformer with attachments; its forward is
                the one composition of three stages (embed_tokens, run_blocks,
                head), linear_forward the one smoothed, quantized linear,
                freeze_linear the one fold-and-freeze path (a frozen weight
                is held as integer codes, read through dequantized_weight),
                and ModelGraph.tensors the one tensor layout, walked by the
                checkpoint and the ZO view
  calibration   layer-wise reconstruction init and the RTN baseline
  zo            two-point zeroth-order estimator and ZO-SGD; GROUP_ORDER is
                the one list of trainable groups, ParamView groups its
                entries by it and regenerates directions over flat windows
                of chunk_size positions, keeping the two it drew last
  theory        Monte-Carlo/quadrature verification of the estimator theory
  diagnostics   eval perplexity with per-layer reconstruction, memory
                accounting; returns records and writes no file
  cli           train / eval / verify / quantize / calibrate, each run by
                its subparser's `run` default, and the one CSV writer of
                every metrics file, each row flushed as it is produced; eval
                is the one command that diagnoses a checkpoint
"""

from .errors import (
    DataError,
    DimensionError,
    InvalidStateError,
    NumericError,
    UsageError,
    VerificationError,
    ZoqlabError,
)
from .numerics import Tensor, normals_at
from .quantizer import QuantSpec, QuantState, fake_quant, init_range, quant_error
from .smoothing import SmoothingParams, apply_smoothing
from .model import (
    LayerAttachment,
    ModelConfig,
    ModelGraph,
    QuantPlan,
    build_model,
    set_lightweight,
)
from .calibration import (
    CalibSet,
    capture_activations,
    calibrate_model,
    reconstruct_layer,
    rtn_quantize,
)
from .zo import GROUP_ORDER, Direction, ParamView, ZoConfig, optimizer_state_size, zo_gradient_scale, zo_step
from .diagnostics import TrackRecord, memory_report, track

__version__ = "0.1.0"
