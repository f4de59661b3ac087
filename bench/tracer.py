"""Outside-in layer tracing for one benchmark operation.

``Tracer.install`` wraps public edgekt functions and methods from outside the
package: a module-level function is replaced in every ``edgekt`` module
namespace that holds it (``harness``, ``runtime`` and ``models`` import by
name), a method is replaced on its class. Each wrapped call records a span
``(name, start, end, parent)``; spans stay in memory until the operation ends.
A few layers also feed counters (bytes on the wire, NMS kept boxes, ...).
``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer name, module, attribute path): every call becomes a span
SPANNED = (
    ("scenegen.frame_at", "edgekt.scenegen", "SceneStream.frame_at"),
    ("scenegen.truth_at", "edgekt.scenegen", "SceneStream.truth_at"),
    ("models.pretrained", "edgekt.models", "StudentModel.pretrained"),
    ("models.features", "edgekt.models", "StudentModel.features"),
    ("models.student_forward", "edgekt.models", "StudentModel.forward"),
    ("models.oracle_forward", "edgekt.models", "OracleModel.forward"),
    ("models.distill_gradients", "edgekt.models", "distill_gradients"),
    ("models.adapt_decoder", "edgekt.models", "adapt_decoder"),
    ("tensor.adam_step", "edgekt.tensor", "adam_step"),
    ("tensor.f16_encode", "edgekt.tensor", "f16_encode"),
    ("tensor.f16_decode", "edgekt.tensor", "f16_decode"),
    ("detection.decode_boxes", "edgekt.detection", "decode_boxes"),
    ("detection.nms", "edgekt.detection", "nms"),
    ("detection.compute_metrics", "edgekt.detection", "compute_metrics"),
    ("selector.select_key_frame", "edgekt.selector", "KeyFrameSelector.select_key_frame"),
    ("netproto.encode_message", "edgekt.netproto", "encode_message"),
    ("netproto.decode_message", "edgekt.netproto", "decode_message"),
    ("netproto.transmit", "edgekt.netproto", "SimulatedChannel.transmit"),
    ("runtime.edge_serve", "edgekt.runtime", "EdgeNode.serve"),
    ("harness.run_scenario", "edgekt.harness", "run_scenario"),
    ("harness.emit_report", "edgekt.harness", "emit_report"),
)

# (counter name, module, attribute path): calls are counted, not timed
COUNTED = (
    ("tensor.Tensor.init_calls", "edgekt.tensor", "Tensor.__init__"),
    ("harness.ledger_charge.calls", "edgekt.harness", "EnergyLedger.charge"),
)


def _count_nms(counts, args, result):
    counts["detection.nms.candidates"] += len(args[0])
    counts["detection.nms.kept"] += len(result)


def _count_selection(counts, args, result):
    # select_key_frame only sets ``busy`` when it returns True, so a call
    # that returned False found the selector busy iff it is busy now
    if result or not args[0].busy:
        counts["selector.gated"] += 1
    if result:
        counts["selector.selected"] += 1


def _count_transmit(counts, args, result):
    direction = "up" if type(args[1]).__name__ == "FrameUpload" else "down"
    counts[f"netproto.bytes_{direction}"] += result.size_bytes


def _count_serve(counts, args, result):
    # wire framing: magic(4) type(1) length(4) body; an Ack body ends in
    # its status byte
    from edgekt.netproto import TYPE_ACK, AckStatus
    if result[4] == TYPE_ACK and result[-1] == AckStatus.ERROR:
        counts["runtime.edge_serve.error_acks"] += 1


HOOKS = {
    "detection.nms": _count_nms,
    "selector.select_key_frame": _count_selection,
    "netproto.transmit": _count_transmit,
    "runtime.edge_serve": _count_serve,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so each call appends ``(name, start, end, parent)``."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, module: str, path: str, make) -> None:
        holder = sys.modules[module]
        if "." in path:  # a method: patch the class, keep its descriptor kind
            cls_name, attr = path.split(".")
            cls = getattr(holder, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(make(raw.__func__)))
            else:
                self._patch(cls, attr, make(raw))
            return
        original = getattr(holder, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "edgekt" or name.startswith("edgekt.")) \
                    and mod.__dict__.get(path) is original:
                self._patch(mod, path, wrapped)

    def install(self) -> None:
        """Wrap every layer; edgekt must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in SPANNED:
            self._replace(module, path,
                          lambda fn, name=name: self.span(name, fn, HOOKS.get(name)))
        for name, module, path in COUNTED:
            self._replace(module, path, lambda fn, name=name: self.counter(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """Per layer name: (calls, self seconds).

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children are clipped to the parent and overlaps
    between them counted once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - covered)
    return totals
