"""Spans around calls into fednet's public functions, for the traced run.

The tracer replaces public functions and ``Block.__call__`` methods with
timing wrappers for the length of a traced run and restores them afterwards;
program code is not edited.  Every span records its name, start, end, parent
span and the *scope* it is charged to: the network block (or loss) that was
running when it started.  Backward work is charged to the scope that recorded
the tape entry, because the wrapper around ``tensor.record`` remembers the
scope and wraps the entry's backward function in a span of its own.

Spans are kept in flat in-memory arrays and written out once, at the end.
Self time (a span's duration minus the time its child spans cover) is what
the per-layer metrics aggregate, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

from fednet import (blocks, checkpoint, harness, losses, ops, pipeline, synth,
                    tensor, volume)

MODULES = (tensor, ops, blocks, losses, pipeline, harness, checkpoint, volume, synth)

CONV_OPS = {"conv2d": "ops.conv2d", "conv_transpose2d": "ops.conv_transpose2d"}
# Every other differentiable op is one elementwise layer: relu, sigmoid,
# resampling, gating, dense, pooling and tensor arithmetic.
ELEMENTWISE_OPS = {
    ops: ("dense", "relu", "sigmoid", "activation", "global_avg_pool",
          "upsample_nearest", "pixel_shuffle", "pixel_unshuffle", "channel_scale"),
    tensor: ("add", "sub", "rsub", "neg", "mul", "div", "log", "clamp",
             "tensor_sum", "tensor_mean"),
}
# Plain function spans: (module, function name, span name).
FUNCTION_SPANS = (
    (tensor, "clip_gradients", "tensor.clip_gradients"),
    (tensor, "sgd_step", "tensor.sgd_step"),
    (pipeline, "connected_components_3d", "pipeline.connected_components_3d"),
    (pipeline, "hierarchical_postprocess", "pipeline.hierarchical_postprocess"),
    (pipeline, "largest_component", "pipeline.largest_component"),
    (pipeline, "hu_window_normalize", "pipeline.hu_window_normalize"),
    (pipeline, "sample_slices", "pipeline.sample_slices"),
    (pipeline, "flip_augment", "pipeline.flip_augment"),
    (pipeline, "stack_adjacent_slices", "pipeline.stack_adjacent_slices"),
    (pipeline, "threshold_mask", "pipeline.threshold_mask"),
    (pipeline, "bbox_of_mask", "pipeline.bbox_of_mask"),
    (losses, "dice_per_case", "losses.dice"),
    (losses, "dice_global", "losses.dice"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
    (checkpoint, "load_parameters", "checkpoint.load_parameters"),
    (checkpoint, "state_arrays", "checkpoint.state_arrays"),
    (volume, "read_mvol", "volume.read_mvol"),
    (volume, "write_mvol", "volume.write_mvol"),
    (synth, "synth_generate", "synth.generate"),
    (harness, "load_dataset", "harness.load_dataset"),
    (harness, "build_network", "blocks.build"),
    (harness, "training_set_dice", "harness.training_set_dice"),
    (harness, "train", "harness.train"),
    (harness, "infer", "harness.infer"),
    (harness, "gradcheck_suite", "harness.gradcheck_suite"),
)

LOSS_SCOPE = "losses.combined_loss"
NET_SCOPE = "blocks.skip"      # the network's own glue: skip additions
HEAD_SCOPE = "blocks.head"     # the final 1x1 conv and sigmoid
OTHER_BLOCK = "blocks.other"   # blocks built on their own (gradient checks)
NO_SCOPE = "none"
NET_CALL = "blocks.net"        # span name of a whole-network call


def block_category(path: str) -> str:
    """Scope of a block from its parameter path inside a FedNet.

    The encoder's own calls (the stem relus) belong to the stem; SE blocks
    inside feature fusion are their own layer; DUC covers both the stride-32
    DUC and the head DUC, upconv their replacements in the baseline net.
    """
    parts = path.split(".")
    head = parts[0]
    if head == "encoder":
        sub = parts[1] if len(parts) > 1 else "stem"
        if sub.startswith("stage"):
            return f"blocks.encoder.{sub}"
        if sub.startswith("rcb"):
            return "blocks.rcb"
        return "blocks.encoder.stem"
    if head == "fuse":
        return "blocks.se" if "se" in parts else "blocks.fuse"
    if head in ("duc4", "head_duc"):
        return "blocks.duc"
    if head in ("upconv4", "head_upconv"):
        return "blocks.upconv"
    if head.startswith("dec"):
        return "blocks.decoder"
    if head.startswith("skip"):
        return "blocks.skip"
    if head == "head_out":
        return HEAD_SCOPE
    return OTHER_BLOCK


def conv_cost(x, w, stride: int, pad: int, transposed: bool) -> tuple[float, float]:
    """(forward FLOP, im2col bytes) of one convolution, computed from shapes."""
    n, _, h, wd = x.shape
    if transposed:
        cin, cout, kh, kw = w.shape
        # the adjoint of a conv2d whose output is x: same multiply count
        flop = 2.0 * n * cin * h * wd * cout * kh * kw
        cols = n * cout * kh * kw * h * wd
    else:
        cout, cin, kh, kw = w.shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (wd + 2 * pad - kw) // stride + 1
        flop = 2.0 * n * cout * oh * ow * cin * kh * kw
        cols = n * cin * kh * kw * oh * ow
    return flop, float(cols * x.data.itemsize)


class Tracer:
    """Flat, in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.scope_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload = array("d")     # per-span amount: FLOP, voxels, entries
        self.im2col = array("d")      # bytes of a convolution's patch matrix
        self._stack: list[int] = []
        self._scope = self.intern(NO_SCOPE)
        self._op: str | None = None
        self._conv_flop = 0.0
        self._predict_role: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._categories: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- span store ---------------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._names.get(name)
        if idx is None:
            idx = self._names[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int, scope_id: int | None = None, payload: float = 0.0,
             im2col: float = 0.0) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.scope_id.append(self._scope if scope_id is None else scope_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.payload.append(payload)
        self.im2col.append(im2col)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "scope_id": np.frombuffer(self.scope_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "payload": np.frombuffer(self.payload, dtype=np.float64).copy(),
            "im2col": np.frombuffer(self.im2col, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span (name, scope, parent, start, end) to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    # -- installing wrappers ------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every fednet module that
        imported it, so calls through any module name are traced."""
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for name, span_name in CONV_OPS.items():
            self._replace(getattr(ops, name), self._op_wrapper(getattr(ops, name), span_name))
        for mod, names in ELEMENTWISE_OPS.items():
            for name in names:
                fn = getattr(mod, name)
                self._replace(fn, self._op_wrapper(fn, "ops.elementwise"))
        for mod, name, span_name in FUNCTION_SPANS:
            fn = getattr(mod, name)
            self._replace(fn, self._function_wrapper(fn, span_name))
        self._replace(tensor.record, self._record_wrapper(tensor.record))
        self._replace(tensor.backward, self._backward_wrapper(tensor.backward))
        self._replace(tensor.grad_check, self._grad_check_wrapper(tensor.grad_check))
        self._replace(losses.combined_loss, self._loss_wrapper(losses.combined_loss))
        self._replace(harness.predict_volume, self._predict_wrapper(harness.predict_volume))
        for cls in _block_classes():
            original = cls.__dict__["__call__"]
            self._patches.append((cls, "__call__", original))
            setattr(cls, "__call__", self._block_wrapper(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _op_wrapper(self, fn, layer: str):
        fwd = self.intern(layer + ".fwd")
        head = self.intern(HEAD_SCOPE)
        net = self.intern(NET_SCOPE)
        is_sigmoid = fn is ops.sigmoid
        convolution = layer in CONV_OPS.values()
        transposed = fn is ops.conv_transpose2d

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            scope = self._scope
            if is_sigmoid and scope == net:
                # the network's final sigmoid is part of the head
                scope = head
            flop = cols = 0.0
            if convolution:
                # signature (x, w, b=None, stride=1, pad=0)
                x = args[0] if args else kwargs["x"]
                w = args[1] if len(args) > 1 else kwargs["w"]
                stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
                pad = args[4] if len(args) > 4 else kwargs.get("pad", 0)
                flop, cols = conv_cost(x, w, stride, pad, transposed)
            idx = self.open(fwd, scope, flop, cols)
            outer = self._op, self._scope, self._conv_flop
            self._op, self._scope, self._conv_flop = layer, scope, flop
            try:
                return fn(*args, **kwargs)
            finally:
                self._op, self._scope, self._conv_flop = outer
                self.close(idx)

        return wrapped

    def _record_wrapper(self, fn):
        active_tape = tensor.active_tape
        bwd_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def wrapped(out, inputs, backward_fn):
            if active_tape() is None:
                return fn(out, inputs, backward_fn)
            layer = self._op or "ops.elementwise"
            bwd = bwd_ids.get(layer)
            if bwd is None:
                bwd = bwd_ids[layer] = self.intern(layer + ".bwd")
            scope = self._scope
            # a convolution's input and weight adjoints each cost one forward
            flop = self._conv_flop * sum(1 for t in inputs[:2] if t.requires_grad)

            def timed_backward(g):
                idx = self.open(bwd, scope, flop)
                try:
                    return backward_fn(g)
                finally:
                    self.close(idx)

            return fn(out, inputs, timed_backward)

        return wrapped

    def _backward_wrapper(self, fn):
        name = self.intern("tensor.backward")

        @functools.wraps(fn)
        def wrapped(root, tape):
            idx = self.open(name, payload=len(tape.entries))
            try:
                return fn(root, tape)
            finally:
                self.close(idx)

        return wrapped

    def _function_wrapper(self, fn, span_name: str):
        name = self.intern(span_name)
        is_cc = fn is pipeline.connected_components_3d

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            voxels = float(np.count_nonzero(args[0])) if is_cc else 0.0
            idx = self.open(name, payload=voxels)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def _loss_wrapper(self, fn):
        name = self.intern(LOSS_SCOPE + ".fwd")
        scope = self.intern(LOSS_SCOPE)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self.open(name, scope)
            outer = self._scope
            self._scope = scope
            try:
                return fn(*args, **kwargs)
            finally:
                self._scope = outer
                self.close(idx)

        return wrapped

    def _predict_wrapper(self, fn):
        """Stage-1 and stage-2 calls inside ``infer`` get their own span names;
        the payload is the number of slices predicted."""
        names = {role: self.intern(f"harness.predict_volume.{role}")
                 for role in ("liver", "lesion", "other")}

        @functools.wraps(fn)
        def wrapped(net, norm, z_indices, *args, **kwargs):
            z_indices = list(z_indices)
            role = self._predict_role.pop(0) if self._predict_role else "other"
            idx = self.open(names[role], payload=len(z_indices))
            try:
                return fn(net, norm, z_indices, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def expect_inference(self) -> None:
        """Called before each traced ``infer``: its next two predictions are
        the liver and the lesion stage.  An empty liver skips stage 2."""
        self._predict_role = ["liver", "lesion"]

    def _grad_check_wrapper(self, fn):
        check = self.intern("tensor.grad_check")
        evaluation = self.intern("tensor.grad_check.eval")

        @functools.wraps(fn)
        def wrapped(f, x, *args, **kwargs):
            def timed_f(t):
                idx = self.open(evaluation)
                try:
                    return f(t)
                finally:
                    self.close(idx)

            idx = self.open(check)
            try:
                return fn(timed_f, x, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def category(self, block) -> str:
        cat = self._categories.get(block)
        if cat is None:
            cat = self._categories[block] = self._category_of(block)
        return cat

    @staticmethod
    def _category_of(block) -> str:
        if isinstance(block, blocks.FedNet):
            return NET_SCOPE
        for rel, param in block.named_parameters().items():
            # FedNet renames every parameter to its full path; a block built
            # on its own keeps its relative names
            if param.name != rel and param.name.endswith("." + rel):
                return block_category(param.name[:-len(rel) - 1])
            return OTHER_BLOCK
        return OTHER_BLOCK

    def _block_wrapper(self, fn):
        ids: dict[str, int] = {}
        net_call = self.intern(NET_CALL)

        @functools.wraps(fn)
        def wrapped(block, *args, **kwargs):
            cat = self.category(block)
            scope = ids.get(cat)
            if scope is None:
                scope = ids[cat] = self.intern(cat)
            is_net = isinstance(block, blocks.FedNet)
            idx = self.open(net_call if is_net else scope, scope)
            outer = self._scope
            self._scope = scope
            try:
                return fn(block, *args, **kwargs)
            finally:
                self._scope = outer
                self.close(idx)

        return wrapped


def _block_classes() -> list[type]:
    """Every Block subclass that defines its own ``__call__``."""
    found, todo = [], [blocks.Block]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "__call__" in cls.__dict__:
            found.append(cls)
    return found
