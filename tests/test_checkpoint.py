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

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.fedckpt"
        save_checkpoint(path, {"w": np.zeros(2, np.float32)})
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)


class TestNetworkState:
    def test_round_trip_values_and_momentum(self, tmp_path):
        net = small_net(seed=1)
        params = net.named_parameters()
        for p in params.values():
            p.momentum[...] = RNG.standard_normal(p.momentum.shape).astype(np.float32)
        path = tmp_path / "net.fedckpt"
        save_checkpoint(path, state_arrays(net))

        other = small_net(seed=2)
        load_parameters(other, load_checkpoint(path))
        for name, p in other.named_parameters().items():
            np.testing.assert_array_equal(p.value.data, params[name].value.data)
            np.testing.assert_array_equal(p.momentum, params[name].momentum)

    def test_momentum_suffix_entries_present(self, tmp_path):
        net = small_net()
        arrays = state_arrays(net)
        names = set(arrays)
        plain = {n for n in names if not n.endswith(".m")}
        assert plain and all(f"{n}.m" in names for n in plain)

    def test_missing_parameter_rejected(self):
        net = small_net()
        arrays = state_arrays(net)
        victim = next(k for k in arrays if not k.endswith(".m"))
        del arrays[victim]
        with pytest.raises(CheckpointMismatch, match="missing from checkpoint"):
            load_parameters(net, arrays)

    def test_extra_parameter_rejected(self):
        net = small_net()
        arrays = state_arrays(net)
        arrays["rogue.w"] = np.zeros(3, np.float32)
        with pytest.raises(CheckpointMismatch, match="unexpected in checkpoint"):
            load_parameters(net, arrays)

    def test_cross_configuration_load_rejected(self, tmp_path):
        duc_net = small_net(seed=3, enable_duc=True)
        path = tmp_path / "duc.fedckpt"
        save_checkpoint(path, state_arrays(duc_net))
        plain_net = small_net(seed=3, enable_duc=False)
        with pytest.raises(CheckpointMismatch):
            load_parameters(plain_net, load_checkpoint(path))

    def test_shape_mismatch_rejected(self):
        net = small_net()
        arrays = state_arrays(net)
        victim = next(k for k in arrays if not k.endswith(".m"))
        arrays[victim] = np.zeros((1, 1), np.float32)
        with pytest.raises(CheckpointMismatch, match="shape"):
            load_parameters(net, arrays)
