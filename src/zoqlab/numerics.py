"""Deterministic float64 tensor arithmetic and counter-based Gaussian streams.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64;
every public operation in the package preserves that representation. The
one exception is a frozen layer's weight, held as its integer codes
(``model.freeze_linear``), so the tensor container (``write_tensor``) stores
float64 and the 8- and 16-bit integer dtypes. Random
draws come from Philox counter streams keyed by ``(seed, stream_id)``, so any
slice of a stream can be regenerated from ``(seed, stream_id, position)``
without storing the values. That regenerability is what keeps the
zeroth-order optimizer state O(1) in the model size.

The Philox counter counts blocks of four 64-bit draws, so draw ``position``
lives in block ``position // 4``. Every read re-keys one module-level Philox
generator: it writes the block into the counter list and (seed, stream_id)
into the key list of one module-level state dict, then hands that dict to
the generator. One dict serves every read because building one per read
would cost most of a short read, and a fresh generator per read costs
several times more, because its constructor first seeds itself from OS
entropy. The lists hold Python ints, which the generator's state setter
reads in 0.4 us against 0.9 us from uint64 arrays. A lock holds the writes,
the re-key and the read together, so threads that draw at once cannot
clobber each other's counter, key or generator state.

A read may name a sequence of stream ids instead of one. It re-keys the
generator once per id under the lock, then maps all the rows to floats in
one pass, so row i holds the bytes of a read of id i alone. The zeroth-order
estimator draws a step's q directions of a small view this way
(zo.ParamView.begin_step): on a 2-CPU VM, 16 streams of 4 normals take about
25 us in one call against 4.7 us per one-stream call.

Importing the package pins glibc's two heap thresholds at glibc's own
ceiling (`pin_heap_thresholds`): blocks of 32 MiB or more come from mmap,
and up to 64 MiB of free memory at the top of the heap is kept rather than
returned to the system. Left to itself, glibc raises both thresholds, up to
that ceiling, only after freeing an mmap block larger than the current one,
so whether a forward's arrays go back to the system and are faulted in again
depends on what ran earlier in the process. Measured on the default W4A4
model with no larger forward run first (2-CPU VM, 1 BLAS thread, medians of
4 processes), a zo_step at batch 4 took 4,181 minor page faults and 62 ms
unpinned against 0 faults and 53 ms pinned; in lightweight W4A16g16, 3,520
faults and 34 ms against 0 and 29 ms; at batch 8 (2 processes), 7,831
faults and 122 ms against 3 and 104 ms. Smaller pairs fit only some batch
sizes: 8/16 MiB, the smallest with 0 faults at batch 4, takes 9,154 faults
per W4A4 step at batch 8, and 4/8 MiB faults at batch 4 already. Reusing
buffers instead would need output arrays passed through every quantizer and
attention op.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import sys
import threading

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import DataError

Tensor = np.ndarray

# The Philox counter counts blocks of four 64-bit draws; _PHILOX_BLOCK converts
# a single-draw position into (block, offset-within-block).
_PHILOX_BLOCK = 4

# The one generator every read re-keys, the lock around re-key and read, and
# the one state dict a re-key writes into and hands to it; see the module
# docstring. The dict is the state Philox(key=[seed, stream_id]).advance(block)
# would reach: counter at `block`, block buffer empty so the next read
# computes it. A re-key writes only the counter and key lists.
_PHILOX = Philox(0)
_PHILOX_LOCK = threading.Lock()
_COUNTER = [0, 0, 0, 0]
_KEY = [0, 0]
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _COUNTER, "key": _KEY},
    "buffer": [0] * _PHILOX_BLOCK,
    "buffer_pos": _PHILOX_BLOCK,
    "has_uint32": 0,
    "uinteger": 0,
}
_SHIFT = np.uint64(11)  # 64 - 53: keep the top 53 bits of a draw
# float64 scalars: an in-place op with a Python float converts it on every call
_HALF = np.float64(0.5)
_ULP53 = np.float64(2.0**-53)
_BELOW_ONE = np.float64(1.0 - 2.0**-53)  # the largest float64 below 1

# mallopt parameter numbers from glibc's <malloc.h>, and the pinned values
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_BYTES = 32 << 20  # M_MMAP_THRESHOLD's largest value on 64-bit glibc
_TRIM_BYTES = 64 << 20  # twice it, as glibc's own adjustment sets it

_TENSOR_MAGIC = b"ZQLB-TNS"  # 8 bytes, followed by u32 version + u32 dtype code
_TENSOR_VERSION = 1
_TENSOR_DTYPES = ("f8", "u1", "i1", "u2", "i2")  # by dtype code; 0, float64, is every older file's


def pin_heap_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; see the module docstring.

    Runs once, at import. Returns whether both were set: False on any
    platform other than Linux with glibc, where it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr name, no libc answer, no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    return mmap_set == 1 and trim_set == 1


pin_heap_thresholds()


# ---------------------------------------------------------------------------
# Counter-based Gaussian streams
# ---------------------------------------------------------------------------

def uniforms_at(seed: int, stream_id, position: int, n: int) -> Tensor:
    """Uniform(0, 1) draws; one 64-bit draw per value, endpoints excluded.

    stream_id is one id, giving n values, or a sequence of ids, giving a
    (len(stream_id), n) array whose row i is the draw of stream_id[i]; see
    the module docstring. The top 53 bits k of a draw map to
    (k + 1/2) * 2^-53. For k = 2^53 - 1 (draws from 2^64 - 2^11 up) the sum
    rounds to 2^53, so that value is clamped to the largest float below 1
    and ndtri stays finite. Every other k maps to at most 1 - 2^-52, which
    the clamp leaves as it is.
    """
    block, offset = divmod(int(position), _PHILOX_BLOCK)
    stop = offset + int(n)
    with _PHILOX_LOCK:
        _COUNTER[0] = block
        _KEY[0] = seed
        if isinstance(stream_id, (int, np.integer)):
            _KEY[1] = stream_id
            _PHILOX.state = _STATE
            raw = _PHILOX.random_raw(stop)[offset:]
        else:
            raw = np.empty((len(stream_id), stop), dtype=np.uint64)
            for i, sid in enumerate(stream_id):
                _KEY[1] = sid
                _PHILOX.state = _STATE
                raw[i] = _PHILOX.random_raw(stop)
            raw = raw[:, offset:]
    # top 53 bits, centered into the open interval so ndtri stays finite
    u = (raw >> _SHIFT).astype(np.float64)
    u += _HALF
    u *= _ULP53
    return np.minimum(u, _BELOW_ONE, out=u)


def normals_at(seed: int, stream_id, position: int, n: int) -> Tensor:
    """Standard normal draws [position, position + n) via inverse CDF.

    The inverse-CDF map consumes exactly one 64-bit draw per normal, which
    keeps position accounting exact under chunked regeneration. A sequence
    of stream ids gives one row per id, as uniforms_at does.
    """
    u = uniforms_at(seed, stream_id, position, n)
    return ndtri(u, out=u)


# ---------------------------------------------------------------------------
# Tensor container serialization
# ---------------------------------------------------------------------------

def write_tensor(f, x: Tensor) -> None:
    """Write one tensor container: 16-byte header, u64 rank, u64 dims, data.

    The header is the magic, the u32 container version and a u32 dtype code,
    the index of the data's dtype in _TENSOR_DTYPES: 0 float64, 1 uint8,
    2 int8, 3 uint16, 4 int16. Files written before the code existed hold 0
    there and read as float64. Any other dtype is a DataError, not a cast.
    The data follows in C order. All integers and reals are little-endian.
    """
    x = np.asarray(x)
    kind = x.dtype.str[1:]  # the dtype without its byte order
    if kind not in _TENSOR_DTYPES:
        names = ", ".join(np.dtype(k).name for k in _TENSOR_DTYPES)
        raise DataError(f"a tensor container holds {names}, not {x.dtype}")
    f.write(_TENSOR_MAGIC)
    f.write(struct.pack("<II", _TENSOR_VERSION, _TENSOR_DTYPES.index(kind)))
    f.write(struct.pack("<Q", x.ndim))
    for d in x.shape:
        f.write(struct.pack("<Q", d))
    f.write(x.astype("<" + kind, copy=False).tobytes(order="C"))


def read_exact(f, n: int) -> bytes:
    """Exactly n bytes from the seekable f; fewer left means the file is truncated.

    n comes from the file's own size fields, so it is checked against the
    bytes left before anything is read or allocated.
    """
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if n > left:
        raise DataError(f"truncated file: wanted {n} bytes, {left} left")
    return f.read(n)


def read_tensor(f) -> Tensor:
    """One tensor container (write_tensor), in its dtype, native byte order."""
    header = f.read(16)
    if len(header) != 16 or header[:8] != _TENSOR_MAGIC:
        raise DataError("not a tensor container (bad magic)")
    version, code = struct.unpack("<II", header[8:])
    if version != _TENSOR_VERSION:
        raise DataError(f"unsupported tensor container version {version}")
    if code >= len(_TENSOR_DTYPES):
        raise DataError(f"unknown tensor dtype code {code}")
    dtype = np.dtype("<" + _TENSOR_DTYPES[code])
    (rank,) = struct.unpack("<Q", read_exact(f, 8))
    shape = tuple(struct.unpack("<Q", read_exact(f, 8))[0] for _ in range(rank))
    count = math.prod(shape)  # Python ints: a claimed size cannot wrap
    data = np.frombuffer(read_exact(f, dtype.itemsize * count), dtype=dtype, count=count)
    # a copy: frombuffer views are read-only, and loaded tensors get trained
    return data.reshape(shape).astype(dtype.newbyteorder("="))
