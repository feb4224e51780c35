"""FEDCKPT1 serialization: byte layout, round trips, and strict name matching."""

import struct

import numpy as np
import pytest

from fednet.blocks import FedNet, NetworkSpec
from fednet.checkpoint import (CheckpointError, CheckpointMismatch,
                               load_checkpoint, load_parameters, save_checkpoint,
                               state_arrays)

RNG = np.random.default_rng(23)


def small_net(seed=0, **spec_kw):
    spec = NetworkSpec(base_channels=4, se_reduction=4, **spec_kw)
    return FedNet(spec, rng=np.random.default_rng(seed))


class TestFormat:
    def test_layout_of_single_entry(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "one.fedckpt"
        save_checkpoint(path, {"w": arr})
        blob = path.read_bytes()
        assert blob[:8] == b"FEDCKPT1"
        count, = struct.unpack("<I", blob[8:12])
        assert count == 1
        name_len, = struct.unpack("<H", blob[12:14])
        assert blob[14:15] == b"w" and name_len == 1
        assert blob[15] == 2  # rank
        assert struct.unpack("<2I", blob[16:24]) == (2, 3)
        np.testing.assert_array_equal(np.frombuffer(blob[24:], dtype="<f4"), arr.ravel())

    def test_entries_sorted_by_name(self, tmp_path):
        path = tmp_path / "sorted.fedckpt"
        save_checkpoint(path, {"zz": np.zeros(1, np.float32), "aa": np.ones(1, np.float32)})
        blob = path.read_bytes()
        assert blob.find(b"aa") < blob.find(b"zz")

    def test_save_load_save_byte_identical(self, tmp_path):
        arrays = {f"p{i}": RNG.standard_normal((i + 1, 2)).astype(np.float32)
                  for i in range(4)}
        a, b = tmp_path / "a.fedckpt", tmp_path / "b.fedckpt"
        save_checkpoint(a, arrays)
        save_checkpoint(b, load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fedckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="FEDCKPT1"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "cut.fedckpt"
        save_checkpoint(path, {"w": np.zeros((3, 3), np.float32)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "kept.fedckpt"
        save_checkpoint(path, {"w": np.ones((2, 2), np.float32)})
        before = path.read_bytes()
        # entries are written in name order: "a" goes out, then "b" raises
        with pytest.raises(ValueError):
            save_checkpoint(path, {"a": np.zeros(3, np.float32), "b": "not an array"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.fedckpt"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "x.fedckpt"
        with pytest.raises(FileNotFoundError) as info:
            save_checkpoint(path, {"w": np.ones((2, 2), np.float32)})
        assert str(info.value) == f"cannot write {path}: directory {path.parent} does not exist"

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.fedckpt"
        path.write_bytes(b"FEDCKPT1" + struct.pack("<I", 2) + entry_bytes("w", np.ones(2))
                         + entry_bytes("w", np.zeros(2)))
        with pytest.raises(CheckpointError, match="duplicate parameter name 'w'"):
            load_checkpoint(path)

    def test_non_utf8_name_rejected_with_path_and_offset(self, tmp_path):
        path = tmp_path / "latin.fedckpt"
        arr = np.zeros(1, "<f4")
        # the name b"w\xff" starts at byte 14, so its bad byte is byte 15
        path.write_bytes(b"FEDCKPT1" + struct.pack("<IH", 1, 2) + b"w\xff"
                         + struct.pack("<BI", 1, 1) + arr.tobytes())
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"{path}: entry name is not UTF-8 at byte 15"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.fedckpt"
        save_checkpoint(path, {"w": np.zeros(2, np.float32)})
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)


def entry_bytes(name, arr):
    """One FEDCKPT1 entry, written by hand."""
    arr = np.asarray(arr, dtype="<f4")
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def values_of(net):
    return {name: p.data.copy() for name, p in net.named_parameters().items()}


def assert_unchanged(net, before):
    for name, p in net.named_parameters().items():
        np.testing.assert_array_equal(p.data, before[name])


class TestNetworkState:
    def test_state_is_the_parameter_values_by_name(self):
        net = small_net()
        arrays = state_arrays(net)
        params = net.named_parameters()
        assert list(arrays) == list(params)
        assert all(arrays[name] is p.data for name, p in params.items())

    def test_round_trip_values(self, tmp_path):
        net = small_net(seed=1)
        params = net.named_parameters()
        path = tmp_path / "net.fedckpt"
        save_checkpoint(path, state_arrays(net))

        other = small_net(seed=2)
        load_parameters(other, path)
        for name, p in other.named_parameters().items():
            np.testing.assert_array_equal(p.data, params[name].data)

    def test_loads_into_the_existing_arrays(self, tmp_path):
        path = tmp_path / "net.fedckpt"
        save_checkpoint(path, state_arrays(small_net(seed=1)))
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4))
        arrays = {name: p.data for name, p in net.named_parameters().items()}
        load_parameters(net, path)
        for name, p in net.named_parameters().items():
            assert p.data is arrays[name]

    def test_float64_network_loads_the_float32_values(self, tmp_path):
        net = small_net(seed=1)
        path = tmp_path / "net.fedckpt"
        save_checkpoint(path, state_arrays(net))
        wide = small_net(seed=2).astype(np.float64)
        load_parameters(wide, path)
        narrow = net.named_parameters()
        for name, p in wide.named_parameters().items():
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, narrow[name].data)

    def test_load_checkpoint_returns_writable_copies(self, tmp_path):
        path = tmp_path / "net.fedckpt"
        arrays = state_arrays(small_net(seed=1))
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == sorted(arrays)
        for name, arr in loaded.items():
            assert arr.flags.writeable and arr.flags.owndata
            np.testing.assert_array_equal(arr, arrays[name])

    def test_missing_parameter_rejected(self, tmp_path):
        net = small_net()
        arrays = state_arrays(net)
        del arrays[next(iter(arrays))]
        path = tmp_path / "missing.fedckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointMismatch, match="missing from checkpoint"):
            load_parameters(net, path)

    def test_extra_parameter_rejected(self, tmp_path):
        net = small_net()
        arrays = state_arrays(net)
        arrays["rogue.w"] = np.zeros(3, np.float32)
        path = tmp_path / "extra.fedckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointMismatch, match="unexpected in checkpoint"):
            load_parameters(net, path)

    def test_orphan_momentum_rejected(self, tmp_path):
        # the layout written before checkpoints held values only: every
        # parameter also had its SGD momentum under "<name>.m"
        net = small_net()
        before = values_of(net)
        arrays = state_arrays(small_net(seed=1))
        momentum = {f"{name}.m": np.ones_like(value) for name, value in arrays.items()}
        path = tmp_path / "old.fedckpt"
        save_checkpoint(path, {**arrays, **momentum})
        with pytest.raises(CheckpointMismatch) as info:
            load_parameters(net, path)
        message = str(info.value)
        shown = ", ".join(repr(name) for name in sorted(momentum)[:3])
        assert message == (f"{path}: parameter name mismatch: 0 missing from checkpoint [], "
                           f"{len(momentum)} unexpected in checkpoint [{shown}, ...]")
        assert_unchanged(net, before)

    def test_cross_configuration_load_rejected(self, tmp_path):
        duc_net = small_net(seed=3, enable_duc=True)
        path = tmp_path / "duc.fedckpt"
        save_checkpoint(path, state_arrays(duc_net))
        plain_net = small_net(seed=3, enable_duc=False)
        with pytest.raises(CheckpointMismatch):
            load_parameters(plain_net, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = small_net()
        arrays = state_arrays(net)
        victim = next(iter(arrays))
        arrays[victim] = np.zeros((1, 1), np.float32)
        path = tmp_path / "shape.fedckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointMismatch, match=f"{victim!r}: checkpoint shape"):
            load_parameters(net, path)

    def test_mismatch_message_is_one_line_with_counts(self, tmp_path):
        net = small_net()
        arrays = {f"rogue{i}": np.zeros(1, np.float32) for i in range(5)}
        path = tmp_path / "rogue.fedckpt"
        save_checkpoint(path, arrays)
        with pytest.raises(CheckpointMismatch) as info:
            load_parameters(net, path)
        message = str(info.value)
        n_params = len(net.named_parameters())
        assert "\n" not in message
        assert f"{n_params} missing from checkpoint" in message
        assert "5 unexpected in checkpoint ['rogue0', 'rogue1', 'rogue2', ...]" in message
        assert "rogue3" not in message


class TestLoadParametersFile:
    """File-level faults seen by load_parameters; each leaves the net as it was."""

    @pytest.fixture
    def net_and_blob(self, tmp_path):
        net = small_net(seed=4)
        path = tmp_path / "good.fedckpt"
        save_checkpoint(path, state_arrays(small_net(seed=5)))
        return net, path.read_bytes()

    def rejected(self, tmp_path, net, blob, match):
        path = tmp_path / "bad.fedckpt"
        path.write_bytes(blob)
        before = values_of(net)
        with pytest.raises(CheckpointError, match=match):
            load_parameters(net, path)
        assert_unchanged(net, before)

    def test_bad_magic(self, tmp_path, net_and_blob):
        net, blob = net_and_blob
        self.rejected(tmp_path, net, b"FEDCKPT0" + blob[8:], "not a FEDCKPT1 file")

    def test_truncated_mid_payload(self, tmp_path, net_and_blob):
        net, blob = net_and_blob
        self.rejected(tmp_path, net, blob[:len(blob) // 2], "truncated at byte")

    def test_truncated_mid_header(self, tmp_path, net_and_blob):
        net, blob = net_and_blob
        self.rejected(tmp_path, net, blob[:13], "truncated at byte 12")

    def test_trailing_bytes(self, tmp_path, net_and_blob):
        net, blob = net_and_blob
        self.rejected(tmp_path, net, blob + b"\x00" * 3, "3 trailing bytes")

    def test_duplicate_name(self, tmp_path, net_and_blob):
        net, _ = net_and_blob
        blob = (b"FEDCKPT1" + struct.pack("<I", 2) + entry_bytes("w", np.ones(2))
                + entry_bytes("w", np.zeros(2)))
        self.rejected(tmp_path, net, blob, "duplicate parameter name 'w'")

    def test_name_mismatch(self, tmp_path, net_and_blob):
        net, _ = net_and_blob
        arrays = state_arrays(small_net(seed=5, enable_duc=False))
        path = tmp_path / "other.fedckpt"
        save_checkpoint(path, arrays)
        self.rejected(tmp_path, net, path.read_bytes(), "missing from checkpoint")

    def test_late_shape_mismatch(self, tmp_path, net_and_blob):
        net, _ = net_and_blob
        arrays = state_arrays(small_net(seed=5))
        last = sorted(arrays)[-1]
        arrays[last] = np.zeros((2, 2), np.float32)
        path = tmp_path / "late.fedckpt"
        save_checkpoint(path, arrays)
        self.rejected(tmp_path, net, path.read_bytes(), "shape")
