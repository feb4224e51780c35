"""MVOL container format: round trips, header validation, byte layout."""

import struct
import tracemalloc

import numpy as np
import pytest

from fednet import volume
from fednet.volume import (MAGIC, BadMagic, DimOverflow, MVolError,
                           TruncatedPayload, Volume, read_mvol, read_mvol_header, write_mvol)

RNG = np.random.default_rng(11)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype,gen", [
        (np.int16, lambda s: RNG.integers(-1200, 3000, s).astype(np.int16)),
        (np.float32, lambda s: RNG.uniform(0, 1, s).astype(np.float32)),
        (np.uint8, lambda s: RNG.integers(0, 3, s).astype(np.uint8)),
    ])
    def test_bit_exact(self, tmp_path, dtype, gen):
        vol = Volume(gen((5, 4, 3)), spacing=(0.75, 0.75, 2.5))
        path = tmp_path / "vol.mvol"
        write_mvol(vol, path)
        back = read_mvol(path)
        assert back.voxels.dtype == dtype
        assert back.voxels.tobytes() == vol.voxels.tobytes()
        assert back.spacing == pytest.approx(vol.spacing)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        vol = Volume(RNG.integers(-500, 500, (4, 4, 4)).astype(np.int16))
        a, b = tmp_path / "a.mvol", tmp_path / "b.mvol"
        write_mvol(vol, a)
        write_mvol(read_mvol(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_gives_the_voxels_shape_and_dtype(self, tmp_path):
        vol = Volume(RNG.integers(0, 3, (5, 4, 3)).astype(np.uint8))
        path = tmp_path / "vol.mvol"
        write_mvol(vol, path)
        assert read_mvol_header(path) == ((5, 4, 3), np.dtype(np.uint8))
        # the header reader checks the payload's size as read_mvol does
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedPayload, match="payload holds"):
            read_mvol_header(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(MVolError, match="unsupported"):
            write_mvol(Volume(np.zeros((2, 2, 2), dtype=np.int64)), tmp_path / "x.mvol")

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kept.mvol"
        write_mvol(Volume(np.ones((2, 2, 2), dtype=np.uint8)), path)
        before = path.read_bytes()

        class FailingHeader:
            def pack(self, *values):
                raise OSError("disk full")

        # the magic is written, then packing the header raises
        monkeypatch.setattr(volume, "_HEADER", FailingHeader())
        with pytest.raises(OSError, match="disk full"):
            write_mvol(Volume(np.zeros((3, 3, 3), dtype=np.uint8)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.mvol"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "x.mvol"
        with pytest.raises(FileNotFoundError) as info:
            write_mvol(Volume(np.zeros((2, 2, 2), dtype=np.uint8)), path)
        assert str(info.value) == f"cannot write {path}: directory {path.parent} does not exist"

    def test_directory_target_rejected_before_writing(self, tmp_path):
        path = tmp_path / "taken.mvol"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_mvol(Volume(np.zeros((2, 2, 2), dtype=np.uint8)), path)
        assert str(info.value) == f"cannot write {path}: it is a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["taken.mvol"]
        assert not any(path.iterdir())


class TestHandAssembledFile:
    def test_known_bytes_parse_to_known_voxels(self, tmp_path):
        # 2x2x2 int16 volume built byte by byte
        voxels = np.arange(8, dtype="<i2")  # x-fastest raveling
        blob = MAGIC
        blob += struct.pack("<3I", 2, 2, 2)
        blob += struct.pack("<B", 1)
        blob += struct.pack("<3f", 1.0, 1.5, 2.0)
        blob += voxels.tobytes()
        path = tmp_path / "hand.mvol"
        path.write_bytes(blob)
        vol = read_mvol(path)
        assert vol.dims == (2, 2, 2)
        assert vol.spacing == pytest.approx((1.0, 1.5, 2.0))
        # x fastest, then y, then z
        assert vol.voxels[0, 0, 1] == 1
        assert vol.voxels[0, 1, 0] == 2
        assert vol.voxels[1, 0, 0] == 4
        np.testing.assert_array_equal(vol.voxels.ravel(), np.arange(8))

    def test_written_file_matches_declared_layout(self, tmp_path):
        vol = Volume(np.arange(8, dtype=np.int16).reshape(2, 2, 2), spacing=(1, 1, 1))
        path = tmp_path / "layout.mvol"
        write_mvol(vol, path)
        blob = path.read_bytes()
        assert blob[:6] == b"MVOL1\x00"
        assert struct.unpack("<3I", blob[6:18]) == (2, 2, 2)
        assert blob[18] == 1
        assert blob[31:] == vol.voxels.tobytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvol"
        path.write_bytes(b"NOTVOL" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            read_mvol(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.mvol"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(TruncatedPayload):
            read_mvol(path)

    def test_truncated_payload(self, tmp_path):
        vol = Volume(np.zeros((3, 3, 3), dtype=np.uint8))
        path = tmp_path / "cut.mvol"
        write_mvol(vol, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayload, match="payload"):
            read_mvol(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        vol = Volume(np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "extra.mvol"
        write_mvol(vol, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MVolError, match="trailing"):
            read_mvol(path)

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (70000, 70000, 70000)])
    def test_dim_overflow(self, tmp_path, dims):
        blob = MAGIC + struct.pack("<3I", *dims) + struct.pack("<B", 3)
        blob += struct.pack("<3f", 1, 1, 1)
        path = tmp_path / "dims.mvol"
        path.write_bytes(blob)
        with pytest.raises(DimOverflow):
            read_mvol(path)

    def test_unknown_dtype_code(self, tmp_path):
        blob = MAGIC + struct.pack("<3I", 1, 1, 1) + struct.pack("<B", 9)
        blob += struct.pack("<3f", 1, 1, 1) + b"\x00"
        path = tmp_path / "code.mvol"
        path.write_bytes(blob)
        with pytest.raises(MVolError, match="dtype code"):
            read_mvol(path)

    def test_errors_are_distinct_types(self):
        assert issubclass(BadMagic, MVolError)
        assert issubclass(TruncatedPayload, MVolError)
        assert issubclass(DimOverflow, MVolError)
        assert not issubclass(BadMagic, TruncatedPayload)


class TestMemory:
    """Reading and writing hold one copy of the voxels: the array itself."""

    PAYLOAD_SHAPE = (32, 128, 128)  # 2 MB of float32

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_peak_is_one_payload(self, tmp_path):
        vol = Volume(RNG.uniform(0, 1, self.PAYLOAD_SHAPE).astype(np.float32))
        path = tmp_path / "big.mvol"
        write_mvol(vol, path)
        kept = []
        peak = self.traced_peak(lambda: kept.append(read_mvol(path)))
        assert kept[0].voxels.tobytes() == vol.voxels.tobytes()
        assert peak <= 1.1 * vol.voxels.nbytes

    def test_write_makes_no_payload_copy(self, tmp_path):
        vol = Volume(RNG.uniform(0, 1, self.PAYLOAD_SHAPE).astype(np.float32))
        path = tmp_path / "big.mvol"
        peak = self.traced_peak(lambda: write_mvol(vol, path))
        assert peak <= 0.1 * vol.voxels.nbytes
        assert path.stat().st_size == len(MAGIC) + volume._HEADER.size + vol.voxels.nbytes


class TestVolume:
    def test_dims_property_order(self):
        vol = Volume(np.zeros((5, 4, 3), dtype=np.uint8))
        assert vol.dims == (3, 4, 5)  # (nx, ny, nz) from (nz, ny, nx) storage

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError, match="3-d"):
            Volume(np.zeros((2, 2), dtype=np.uint8))
