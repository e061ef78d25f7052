import io
import os
import platform
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import zoqlab
from zoqlab import numerics
from zoqlab.errors import DataError, DimensionError
from zoqlab.numerics import normals_at, read_tensor, write_tensor
from zoqlab.quantizer import QuantSpec, from_groups, to_groups

from oracles import naive_matmul, philox_normals_reference, reduce_stats


class TestMatmul:
    """numpy's @, which every layer uses, against a naive triple-loop oracle."""

    def test_identity(self):
        out = np.eye(2) @ np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out, [[5.0, 6.0], [7.0, 8.0]])

    def test_dot_product(self):
        assert np.array_equal(np.array([[1.0, 2.0]]) @ np.array([[3.0], [4.0]]), [[11.0]])

    def test_integer_valued_matches_oracle_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-8, 9, size=(4, 5)).astype(np.float64)
        b = rng.integers(-8, 9, size=(5, 3)).astype(np.float64)
        assert np.max(np.abs(a @ b - naive_matmul(a, b))) == 0.0

    @pytest.mark.parametrize("m,k,n", [(4, 5, 3), (16, 16, 16), (64, 64, 64)])
    def test_random_matches_oracle(self, m, k, n):
        rng = np.random.default_rng(m * 100 + n)
        a = rng.uniform(-1, 1, size=(m, k))
        b = rng.uniform(-1, 1, size=(k, n))
        got = a @ b
        want = naive_matmul(a, b)
        # relative to the accumulation scale, so cancellation-prone elements
        # are judged against the magnitudes actually summed
        scale = np.maximum(np.abs(a) @ np.abs(b), 1e-30)
        assert np.max(np.abs(got - want) / scale) <= 1e-12


class TestGaussianStreams:
    def test_same_seed_stream_bitwise_identical(self):
        a = normals_at(7, 0, 0, 100)
        b = normals_at(7, 0, 0, 100)
        assert np.array_equal(a, b)

    def test_moments_one_million_draws(self):
        z = normals_at(12345, 0, 0, 10**6)
        assert abs(z.mean()) <= 4 / np.sqrt(10**6)
        assert abs(z.var() - 1.0) <= 0.01

    def test_streams_uncorrelated(self):
        a = normals_at(7, 0, 0, 10**5)
        b = normals_at(7, 1, 0, 10**5)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_replay_from_recorded_position(self):
        expected = normals_at(3, 9, 0, 137 + 50)[137:]
        replay = normals_at(3, 9, 137, 50)
        assert np.array_equal(expected, replay)

    def test_chunked_draws_equal_one_shot(self):
        whole = normals_at(11, 2, 0, 200)
        parts = [normals_at(11, 2, p, n) for p, n in ((0, 63), (63, 1), (64, 100), (164, 36))]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_draws_always_finite(self):
        z = normals_at(0, 0, 0, 10**5)
        assert np.all(np.isfinite(z))

    def test_words_map_into_the_open_unit_interval(self, monkeypatch):
        """(top 53 bits + 1/2) * 2^-53, except the top word range, which would round to 1."""
        words = np.array([0, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)

        class CraftedWords:
            state = None

            def random_raw(self, n):
                return words[:n].copy()

        monkeypatch.setattr(numerics, "_PHILOX", CraftedWords())
        u = numerics.uniforms_at(0, 0, 0, len(words))
        below_one = np.nextafter(1.0, 0.0)
        assert u.tolist() == [2.0**-54, 1.0 - 2.0**-52, below_one, below_one]
        assert np.all(np.isfinite(normals_at(0, 0, 0, len(words))))


class TestStreamsMatchFreshGenerator:
    """normals_at re-keys one shared generator; each read must equal a fresh one."""

    def test_random_sweep(self):
        rng = np.random.default_rng(20250900031)
        for _ in range(300):
            seed = int(rng.integers(0, 2**63))
            step, i = int(rng.integers(0, 2**31)), int(rng.integers(0, 4))
            stream_id = step << 32 | i
            position = int(rng.integers(0, 10**7))
            n = int(rng.integers(1, 70_000)) if rng.random() < 0.05 else int(rng.integers(1, 40))
            got = normals_at(seed, stream_id, position, n)
            want = philox_normals_reference(seed, stream_id, position, n)
            assert got.tobytes() == want.tobytes(), (seed, stream_id, position, n)

    @pytest.mark.parametrize("position", [0, 1, 2, 3, 5, 65_535, 65_537, 2**40 + 3])
    @pytest.mark.parametrize("n", [1, 3, 4, 7, 65_537])
    def test_unaligned_positions_and_lengths(self, position, n):
        stream_id = (7 << 32) | 2
        got = normals_at(123, stream_id, position, n)
        assert got.tobytes() == philox_normals_reference(123, stream_id, position, n).tobytes()

    def test_interleaved_streams_do_not_disturb_each_other(self):
        a = normals_at(5, 1, 10, 9)
        normals_at(6, 2 << 32, 3, 5)
        assert a.tobytes() == normals_at(5, 1, 10, 9).tobytes()

    def test_threads_drawing_at_once_get_their_own_streams(self):
        """More threads than cores share the one generator; no read sees another's key."""
        want = {t: philox_normals_reference(9, t, 3, 5).tobytes() for t in range(6)}
        bad = []

        def worker(t):
            for _ in range(300):
                if normals_at(9, t, 3, 5).tobytes() != want[t]:
                    bad.append(t)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in want]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert bad == []

    @pytest.mark.parametrize(
        "seed, stream_id",
        [(2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1), (2**64 - 1, (7 << 32) | 2)],
    )
    @pytest.mark.parametrize("position, n", [(0, 1), (5, 1), (2**40 + 3, 9), (7, 4097)])
    def test_largest_seed_and_stream_id(self, seed, stream_id, position, n):
        got = normals_at(seed, stream_id, position, n)
        assert got.tobytes() == philox_normals_reference(seed, stream_id, position, n).tobytes()

    def test_two_threads_get_the_bytes_of_serial_draws(self):
        """Each read writes counter and key into one shared state dict; the lock keeps reads apart."""
        rng = np.random.default_rng(31)
        jobs = {
            t: [
                (int(rng.integers(0, 2**63)), (t << 32) | i, int(rng.integers(0, 10**6)), int(rng.integers(1, 50)))
                for i in range(3000)
            ]
            for t in (1, 2)
        }
        serial = {t: [normals_at(*job).tobytes() for job in jobs[t]] for t in jobs}
        got = {t: [] for t in jobs}

        def worker(t):
            got[t] = [normals_at(*job).tobytes() for job in jobs[t]]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in jobs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert got == serial


ON_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# A fresh process with no eval or other larger forward first: default W4A4,
# batch 4. Prints the median of the minor page faults of zo_steps 3-9.
FAULTS_PER_STEP = """
import resource, statistics
from zoqlab import cli
from zoqlab.model import ModelConfig, QuantPlan, build_model
from zoqlab.zo import ZoConfig, zo_step

config = ModelConfig()
train, _ = cli.ingest_corpus(cli.default_corpus_path(), config.context, 0)
model = build_model(config, QuantPlan(4, 4), 0)
cfg = ZoConfig(batch_size=4)
faults = []
for step in range(10):
    batch = cli.sample_batch(train, cfg.batch_size, 0, step)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    zo_step(model, batch, cfg, step)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""


class TestHeapThresholds:
    @pytest.mark.skipif(not ON_GLIBC, reason="the pinned thresholds are glibc's")
    def test_zo_steps_do_not_fault_their_arrays_in_again(self):
        # unpinned, each step returns its arrays to the system and faults ~4,000 pages back in
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(zoqlab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_STEP],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert float(run.stdout) < 400

    def test_pin_reports_whether_it_was_set(self):
        assert numerics.pin_heap_thresholds() is ON_GLIBC

    @pytest.mark.parametrize(
        "platform_name, confstr",
        [("darwin", None), ("linux", None), ("linux", ValueError), ("linux", "musl 1.2")],
    )
    def test_pin_does_nothing_off_glibc(self, monkeypatch, platform_name, confstr):
        def answer(name):
            if confstr is ValueError:
                raise ValueError("unrecognized configuration name")
            return confstr

        def refuse(*args):
            raise AssertionError("libc loaded off glibc")

        monkeypatch.setattr(numerics.sys, "platform", platform_name)
        monkeypatch.setattr(numerics.os, "confstr", answer)
        monkeypatch.setattr(numerics.ctypes, "CDLL", refuse)
        assert numerics.pin_heap_thresholds() is False


ROWS = QuantSpec(4, "asymmetric", "activation")
COLUMNS = QuantSpec(4, "asymmetric", "weight")


def column_groups(size):
    return QuantSpec(4, "asymmetric", "weight", group_size=size)


class TestReduceStats:
    def test_one_row_is_one_group(self):
        stats = reduce_stats(np.array([-1.0, 0.5, 2.0]), ROWS)
        assert list(stats) == [(-1.0, 2.0, 2.0)]

    def test_per_channel_columns(self):
        stats = reduce_stats(np.array([[1.0, -3.0], [2.0, 4.0]]), COLUMNS)
        assert list(stats) == [(1.0, 2.0, 2.0), (-3.0, 4.0, 4.0)]

    def test_per_group_chunks(self):
        stats = reduce_stats(np.array([[1.0], [2.0], [3.0], [8.0]]), column_groups(2))
        assert list(stats) == [(1.0, 2.0, 2.0), (3.0, 8.0, 8.0)]

    def test_per_token_rows(self):
        stats = reduce_stats(np.array([[1.0, -2.0], [5.0, 0.0]]), ROWS)
        assert list(stats) == [(-2.0, 1.0, 2.0), (0.0, 5.0, 5.0)]

    def test_ragged_groups_rejected(self):
        with pytest.raises(DimensionError, match="does not divide"):
            reduce_stats(np.arange(6, dtype=np.float64).reshape(6, 1), column_groups(4))

    @pytest.mark.parametrize(
        "shape,spec",
        [
            ((6,), ROWS),
            ((4, 6), ROWS),
            ((2, 3, 4), ROWS),
            ((4, 6), COLUMNS),
            ((4, 6), column_groups(2)),
            ((4, 6), column_groups(4)),
        ],
        ids=["one-row", "rows", "rows-3d", "columns", "column-groups", "whole-column-groups"],
    )
    def test_groups_partition_tensor(self, shape, spec):
        x = np.random.default_rng(len(shape)).normal(size=shape)
        groups = to_groups(x, spec)
        assert groups.size == x.size
        back = from_groups(groups, x.shape, spec)
        assert np.array_equal(back, x)
        assert back.flags.c_contiguous

    def test_weight_groups_are_column_slices_in_row_order(self):
        w = np.arange(24, dtype=np.float64).reshape(6, 4)
        want = [w[r : r + 2, c] for c in range(4) for r in range(0, 6, 2)]
        assert np.array_equal(to_groups(w, column_groups(2)), want)
        assert np.array_equal(to_groups(w, COLUMNS), w.T)


class TestTensorContainer:
    def test_round_trip_bitwise(self):
        x = np.random.default_rng(5).normal(size=(3, 4, 5))
        buf = io.BytesIO()
        write_tensor(buf, x)
        buf.seek(0)
        back = read_tensor(buf)
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((2, 3)))
        raw = buf.getvalue()
        assert raw[:8] == b"ZQLB-TNS"
        assert len(raw) == 16 + 8 + 2 * 8 + 6 * 8

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError, match="magic"):
            read_tensor(io.BytesIO(b"X" * 64))

    @pytest.mark.parametrize("dtype, code", [(np.float64, 0), (np.uint8, 1), (np.int8, 2), (np.uint16, 3), (np.int16, 4)])
    def test_each_dtype_round_trips_in_its_own_bytes(self, dtype, code):
        info = np.finfo(dtype) if dtype == np.float64 else np.iinfo(dtype)
        x = np.array([[info.min, 0, info.max], [1, 2, 3]], dtype=dtype)
        buf = io.BytesIO()
        write_tensor(buf, x)
        raw = buf.getvalue()
        assert struct.unpack("<II", raw[8:16]) == (1, code)
        assert len(raw) == 16 + 8 + 2 * 8 + x.nbytes
        back = read_tensor(io.BytesIO(raw))
        assert back.dtype == dtype and back.shape == x.shape and back.tobytes() == x.tobytes()
        back[0, 0] = 1  # writable, not a view of the file's bytes

    def test_a_header_with_dtype_code_0_reads_as_float64(self):
        """The layout of every file written before the dtype code existed, built by hand."""
        values = [1.5, -0.0, 2.0**-1074]
        raw = b"ZQLB-TNS" + struct.pack("<IIQQ", 1, 0, 1, 3) + struct.pack("<3d", *values)
        back = read_tensor(io.BytesIO(raw))
        assert back.dtype == np.float64 and back.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint32, np.bool_, np.complex128])
    def test_any_other_dtype_is_refused_not_cast(self, dtype):
        buf = io.BytesIO()
        with pytest.raises(DataError, match="tensor container holds"):
            write_tensor(buf, np.zeros(3, dtype=dtype))
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("shape", [(3, 3), (2**20, 2**20), (2**62, 4)], ids=["3x3", "2^20x2^20", "2^62x4"])
    def test_a_shape_beyond_the_bytes_left_is_a_truncated_file(self, shape):
        """(2^62, 4) would wrap to 0 in a uint64 product; the bytes are counted in Python ints."""
        raw = b"ZQLB-TNS" + struct.pack("<IIQQQ", 1, 0, 2, *shape) + bytes(64)
        want = 8 * shape[0] * shape[1]
        with pytest.raises(DataError, match=f"truncated file: wanted {want} bytes, 64 left"):
            read_tensor(io.BytesIO(raw))

    def test_an_unknown_dtype_code_is_refused(self):
        raw = b"ZQLB-TNS" + struct.pack("<IIQQ", 1, 5, 1, 1) + bytes(8)
        with pytest.raises(DataError, match="dtype code 5"):
            read_tensor(io.BytesIO(raw))
