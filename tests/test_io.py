"""Binary tensor/checkpoint formats: round-trips, layout, corruption handling."""
import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempconv.errors import FormatError
from tempconv.lwt import (
    load_checkpoint,
    load_tensor,
    read_tensor,
    save_checkpoint,
    save_tensor,
    write_tensor,
)

from oracles import lwt_record

FIXED = settings.get_profile("fastpath")


def _record(array):
    """The LWT1 record ``write_tensor`` writes for ``array``."""
    buf = io.BytesIO()
    write_tensor(buf, array)
    return buf.getvalue()


def _read(blob):
    """``read_tensor`` over an in-memory record."""
    return read_tensor(io.BytesIO(blob))


class TestTensorFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4, 5)])
    def test_round_trip(self, dtype, shape):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape).astype(dtype)
        back = _read(_record(a))
        assert back.dtype == dtype and back.shape == shape
        np.testing.assert_array_equal(back, a)

    def test_layout_is_documented_little_endian(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        blob = _record(a)
        assert blob[:4] == b"LWT1"
        dtype_code, rank = blob[4], blob[5]
        assert dtype_code == 0 and rank == 2
        dims = struct.unpack("<2I", blob[6:14])
        assert dims == (2, 3)
        payload = np.frombuffer(blob[14:], dtype="<f4").reshape(2, 3)
        np.testing.assert_array_equal(payload, a)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "t.lwt"
        a = np.random.default_rng(1).standard_normal((4, 4)).astype(np.float64)
        save_tensor(p, a)
        np.testing.assert_array_equal(load_tensor(p), a)

    def test_stream_concatenation(self):
        buf = io.BytesIO()
        a = np.ones((2, 2), dtype=np.float32)
        b = np.zeros(3, dtype=np.float64)
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            _read(b"NOPE" + b"\x00" * 10)

    def test_truncated_payload(self):
        blob = _record(np.ones(5, dtype=np.float32))
        with pytest.raises(FormatError):
            _read(blob[:-3])

    # 20-byte files whose headers declare 64 MiB: a 4096 x 4096 float32
    # payload, or a checkpoint's metadata block
    @pytest.mark.parametrize("blob,load", [
        (b"LWT1" + struct.pack("<BB2I", 0, 2, 4096, 4096) + b"\x00" * 6, load_tensor),
        (b"LWTC" + struct.pack("<HI", 1, 2**26) + b"{}" + b"\x00" * 8, load_checkpoint),
    ], ids=["tensor", "checkpoint"])
    def test_forged_size_refused_before_reading(self, tmp_path, blob, load):
        p = tmp_path / "forged"
        p.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="67108864 bytes declared"):
                load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "t.lwt"
        p.write_bytes(_record(np.ones(2, dtype=np.float32)) + b"x")
        with pytest.raises(FormatError, match="trailing bytes after tensor record"):
            load_tensor(p)

    def test_unknown_dtype_code(self):
        blob = bytearray(_record(np.ones(2, dtype=np.float32)))
        blob[4] = 9
        with pytest.raises(FormatError):
            _read(bytes(blob))

    def test_rank_cap(self):
        blob = bytearray(_record(np.ones(2, dtype=np.float32)))
        blob[5] = 9
        with pytest.raises(FormatError):
            _read(bytes(blob))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_refused(self, dtype, bad):
        a = np.ones((2, 3), dtype=dtype)
        assert lwt_record(a) == _record(a)
        a[1, 2] = bad
        with pytest.raises(FormatError, match=r"payload holds non-finite values \(NaN or Inf\)"):
            _read(lwt_record(a))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_not_written(self, tmp_path, dtype, bad):
        """Each writer refuses what the reader would, before any byte."""
        a = np.ones((2, 3), dtype=dtype)
        a[1, 2] = bad
        buf, p = io.BytesIO(), tmp_path / "t.lwt"
        for write in (lambda: write_tensor(buf, a), lambda: save_tensor(p, a)):
            with pytest.raises(FormatError, match=r"^payload holds non-finite values \(NaN or Inf\)"):
                write()
        assert buf.getvalue() == b""
        assert not p.exists()

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_big_endian_round_trip(self, tmp_path, dtype):
        """The writer stores little-endian whatever order it is handed."""
        a = np.arange(6, dtype=dtype).reshape(2, 3)
        p = tmp_path / "t.lwt"
        save_tensor(p, a)
        back = load_tensor(p)
        assert back.dtype == np.dtype(dtype).newbyteorder("=")
        np.testing.assert_array_equal(back, a)
        assert _record(a) == _record(a.astype(back.dtype))

    def test_other_dtypes_refused(self):
        with pytest.raises(FormatError, match="^dtype float16 is not storable; use float32 or float64$"):
            write_tensor(io.BytesIO(), np.ones(3, dtype=np.float16))

    def test_load_errors_name_the_file(self, tmp_path):
        blob = _record(np.ones(5, dtype=np.float32))
        p = tmp_path / "t.lwt"
        for bad, message in [(blob[:-3], "truncated stream while reading payload"),
                             (blob + b"x", "trailing bytes after tensor record"),
                             (lwt_record(np.full(5, np.nan, np.float32)), "payload holds non-finite")]:
            p.write_bytes(bad)
            with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: {message}"):
                load_tensor(p)


class _Unseekable(io.RawIOBase):
    """A read-only stream that cannot report its size, like a pipe, and
    returns at most ``most`` bytes per read."""

    def __init__(self, blob, most=None):
        self._buf = io.BytesIO(blob)
        self._most = most

    def readable(self):
        return True

    def seekable(self):
        return False

    def readinto(self, b):
        return self._buf.readinto(memoryview(b)[:self._most])


class TestUnseekableStream:
    """A stream that cannot be sized is read in bounded chunks."""

    ARRAY = np.random.default_rng(4).standard_normal(5000).astype(np.float32)
    BLOB = _record(ARRAY)

    @pytest.mark.parametrize("most", [None, 1, 3, 4096])
    def test_round_trip(self, most):
        """Reads shorter than asked are not a truncation."""
        f = _Unseekable(self.BLOB, most)
        np.testing.assert_array_equal(read_tensor(f), self.ARRAY)
        assert f.read(1) == b""

    def test_every_truncation_refused(self):
        for cut in range(len(self.BLOB)):
            with pytest.raises(FormatError, match="truncated stream"):
                read_tensor(_Unseekable(self.BLOB[:cut]))

    def test_forged_size_allocates_one_chunk(self):
        """A header declaring a 64 MiB payload over 6 bytes allocates no more than a chunk."""
        f = _Unseekable(b"LWT1" + struct.pack("<BB2I", 0, 2, 4096, 4096) + b"\x00" * 6)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"payload \(6/67108864 bytes\)"):
                read_tensor(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCheckpointFormat:
    def _arrays(self):
        rng = np.random.default_rng(2)
        return {
            "tcn.body.0.conv1.weight": rng.standard_normal((4, 4, 3)).astype(np.float32),
            "head.fc.bias": rng.standard_normal(10).astype(np.float32),
            "norm.running_var": np.ones(4, dtype=np.float64),
        }

    def test_round_trip_with_meta(self, tmp_path):
        p = tmp_path / "c.lwtc"
        arrays = self._arrays()
        meta = {"config_hash": "abc123", "best_epoch": 7}
        save_checkpoint(p, arrays, meta=meta)
        got, got_meta = load_checkpoint(p)
        assert got_meta == meta
        assert list(got) == list(arrays)  # order preserved
        for k in arrays:
            np.testing.assert_array_equal(got[k], arrays[k])

    def test_empty_meta_defaults(self, tmp_path):
        p = tmp_path / "c.lwtc"
        save_checkpoint(p, {"x": np.ones(2, dtype=np.float32)})
        got, meta = load_checkpoint(p)
        assert meta == {}
        assert set(got) == {"x"}

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.lwtc"
        p.write_bytes(b"WRNG" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("meta,message", [
        (b"[1,2]", "checkpoint metadata must be a JSON object, got list"),
        (b'"abc"', "checkpoint metadata must be a JSON object, got str"),
        (b"null", "checkpoint metadata must be a JSON object, got NoneType"),
        (b"NaN", "checkpoint metadata must be a JSON object, got float"),
        (b"{nope", "corrupt checkpoint metadata: Expecting property name"),
        (b"\xff{}", "corrupt checkpoint metadata: 'utf-8' codec can't decode"),
    ], ids=["list", "string", "null", "nan", "invalid-json", "not-utf8"])
    def test_bad_metadata_refused(self, tmp_path, meta, message):
        p = tmp_path / "c.lwtc"
        p.write_bytes(b"LWTC" + struct.pack("<HI", 1, len(meta)) + meta + struct.pack("<I", 0))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message}')}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("meta", [[1, 2], "abc", float("nan")], ids=["list", "string", "nan"])
    def test_non_object_metadata_not_written(self, tmp_path, meta):
        """The writer refuses metadata the reader would, before the file opens."""
        p = tmp_path / "c.lwtc"
        with pytest.raises(FormatError, match="^checkpoint metadata must be a JSON object, got "):
            save_checkpoint(p, {"x": np.ones(2, dtype=np.float32)}, meta=meta)
        assert not p.exists()

    def test_truncated_record(self, tmp_path):
        p = tmp_path / "c.lwtc"
        save_checkpoint(p, self._arrays())
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_non_finite_record_named(self, tmp_path):
        p = tmp_path / "c.lwtc"
        arrays = self._arrays()
        save_checkpoint(p, arrays)
        finite = lwt_record(arrays["head.fc.bias"])
        arrays["head.fc.bias"][4] = np.nan
        blob = p.read_bytes()
        assert blob.count(finite) == 1
        p.write_bytes(blob.replace(finite, lwt_record(arrays["head.fc.bias"])))
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: record 'head.fc.bias': payload holds non-finite"):
            load_checkpoint(p)

    def test_non_finite_record_not_written(self, tmp_path):
        """The last record is refused by name before the file is opened."""
        p = tmp_path / "c.lwtc"
        arrays = self._arrays()
        arrays["norm.running_var"][2] = -np.inf
        with pytest.raises(FormatError, match="^record 'norm.running_var': payload holds non-finite"):
            save_checkpoint(p, arrays)
        assert not p.exists()

    def test_duplicate_names_rejected(self, tmp_path):
        p = tmp_path / "c.lwtc"
        save_checkpoint(p, {"a": np.ones(1, dtype=np.float32)})
        blob = bytearray(p.read_bytes())
        # duplicate the single record and bump the count from 1 to 2
        meta_len = struct.unpack_from("<I", blob, 6)[0]
        count_at = 10 + meta_len
        record = bytes(blob[count_at + 4:])
        struct.pack_into("<I", blob, count_at, 2)
        p.write_bytes(bytes(blob) + record)
        with pytest.raises(FormatError):
            load_checkpoint(p)


def _damaged(blob):
    """Every proper prefix of ``blob``, and every copy with one byte set to 0x00 or 0xFF."""
    for cut in range(len(blob)):
        yield blob[:cut]
    for i in range(len(blob)):
        for byte in (b"\x00", b"\xff"):
            yield blob[:i] + byte + blob[i + 1:]


arrays = st.builds(
    lambda dtype, shape, seed: np.random.default_rng(seed).standard_normal(shape).astype(dtype),
    st.sampled_from([np.float32, np.float64]),
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
    st.integers(0, 2**16),
)


class TestDamagedInput:
    """Truncated or byte-corrupted records load or raise FormatError, nothing else."""

    @settings(FIXED)
    @given(array=arrays)
    def test_tensor_record(self, array):
        for blob in _damaged(_record(array)):
            try:
                _read(blob)
            except FormatError:
                pass

    @settings(FIXED, max_examples=10)
    @given(first=arrays, second=arrays,
           meta=st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2))
    def test_checkpoint(self, first, second, meta, tmp_path_factory):
        path = tmp_path_factory.mktemp("damaged") / "c.lwtc"
        save_checkpoint(path, {"a": first, "b.weight": second}, meta=meta)
        for blob in _damaged(path.read_bytes()):
            path.write_bytes(blob)
            try:
                load_checkpoint(path)
            except FormatError:
                pass
