"""Forward-only quantization-aware training laboratory.

Modules:
  numerics      tensors, counter-based Gaussian streams, group tiling
  quantizer     uniform fake-quantization with learnable clipping
  smoothing     channel-wise scale/shift outlier migration: the activation
                side and the weight-side fold, each written once
  model         toy decoder-only transformer with attachments; linear_forward
                is the one smoothed, quantized linear, freeze_linear the one
                fold-and-freeze path, and ModelGraph.tensors the one tensor
                layout, walked by the checkpoint and the ZO view
  calibration   layer-wise reconstruction init and the RTN baseline
  zo            two-point zeroth-order estimator and ZO-SGD
  theory        Monte-Carlo/quadrature verification of the estimator theory
  diagnostics   reconstruction-vs-perplexity tracking, memory accounting
  cli           train / eval / verify / quantize / calibrate / diag
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
from .numerics import (
    Granularity,
    RngStream,
    Tensor,
    gaussian,
    per_channel,
    per_group,
    per_tensor,
    per_token,
)
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
    delta_loss,
    reconstruct_layer,
    rtn_quantize,
)
from .zo import Direction, ParamGroup, ParamView, ZoConfig, optimizer_state_size, zo_gradient_scale, zo_step
from .diagnostics import TrackRecord, inconsistency_score, memory_report, track

__version__ = "0.1.0"
