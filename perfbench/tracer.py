"""Wall-clock span tracer wrapped around the public functions of each layer.

The benchmark never edits ``src/``: ``SpanTracer.install`` replaces the
bindings callers actually read (a module attribute, or a method on the
class the lookup resolves through) with a timing wrapper, and
``SpanTracer.uninstall`` puts the originals back. Each call records one span ``(name, start, end,
parent)`` in memory; per-name calls, total seconds and self seconds
(duration minus the time covered by direct child spans) are accumulated
as the spans close. A call into a layer that is already on the stack
(``MXPPFormat.encode`` calling ``MXPlusFormat.encode``, a router
delegating to its base class) is part of the outer span, not a new one.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Spans kept for the written trace; aggregates stay exact past the cap.
SPAN_CAP = 2_000_000


class SpanTracer:
    """Records nested spans and per-name aggregates for wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.head_weights: set[int] = set()  # ids of LM-head weight arrays
        self._seen_weights: set[tuple[int, int]] = set()
        self._stack: list[list] = []  # [name_id, child_seconds, span_index]
        self._active: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, pre=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``count(tracer, args, kwargs, result, pre_value)`` adds work counts
        after the call; ``pre(args)`` reads state before it.
        """
        nid = self._name_id(name)
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            if nid in active:
                return fn(*args, **kwargs)
            before = pre(args) if pre is not None else None
            idx = -1
            if len(self.span_name) < SPAN_CAP:
                idx = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                self.dropped += 1
            frame = [nid, 0.0, idx]
            stack.append(frame)
            active.add(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active.discard(nid)
                dur = t1 - t0
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
            if count is not None:
                count(self, args, kwargs, out, before)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- aggregates --------------------------------------------------------
    def agg(self, name: str) -> tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of span ``name`` (zeros if unseen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_s[nid]

    def root_seconds(self) -> float:
        """Seconds covered by top-level spans: self times telescope to it."""
        return sum(self.self_s)

    def save(self, path) -> None:
        """Write every recorded span (name table + parallel arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.int64(self.dropped),
        )

    # -- installation ------------------------------------------------------
    def install(self, layers=None) -> None:
        """Wrap every binding in ``layers`` (default :data:`LAYERS`).

        A binding that no longer exists raises ``AttributeError`` — a
        rename under ``src/`` must fail loudly, not read as zero calls.
        """
        for module, owner, attr, name, count, pre in layers or LAYERS:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            if attr not in vars(target):
                raise AttributeError(f"{module}.{owner or ''}.{attr} is not defined there")
            original = vars(target)[attr]
            self._patches.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original, count, pre))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


# -- work counters -------------------------------------------------------
def _count_melem(tr, args, kwargs, out, pre):
    tr.counts["core.qdq.melem"] += np.size(args[1]) / 1e6


def _count_bytes(tr, args, kwargs, out, pre):
    tr.counts["core.layout.bytes"] += out.total_bytes()


def _count_weight(role):
    def count(tr, args, kwargs, out, pre):
        qc, w = args[0], args[1]
        is_head = role == "head" or id(w) in tr.head_weights
        tr.counts["nn.quantize.head.calls" if is_head else "nn.quantize.weight.calls"] += 1
        fmt = (qc.lm_head or qc.weight) if role == "head" else qc.weight
        if fmt is not None:
            key = (id(fmt), id(w))
            tr.counts["nn.quantize.weight_qdq"] += 1
            if key in tr._seen_weights:
                tr.counts["nn.quantize.weight_requant"] += 1
            tr._seen_weights.add(key)

    return count


def _count_gflop(tr, args, kwargs, out, pre):
    k = np.shape(args[0].data)[-1]
    tr.counts["nn.matmul.gflop"] += 2.0 * out.data.size * k / 1e9


def _count_tokens(tr, args, kwargs, out, pre):
    tr.counts["eval.tokens"] += np.size(args[1])


def _count_step(tr, args, kwargs, out, pre):
    if out is not None:
        tr.counts["sim.decode_rows"] += out.n_decode_rows
        tr.counts["sim.prefill_tokens"] += out.n_prefill_rows


def _count_plan_rows(tr, args, kwargs, out, pre):
    tr.counts["serve.plan.rows"] += sum(rows for _, rows in out.prefill) + len(out.decode)


def _used_blocks(args):
    return args[0].used_blocks


def _count_append_blocks(tr, args, kwargs, out, pre):
    tr.counts["serve.kv.append_blocks"] += args[0].used_blocks - pre


_QDQ_OWNERS = (
    ("mx", "MXFormat"), ("mxplus", "MXPlusFormat"),
    ("nvfp4", "NVFP4Format"), ("nvfp4", "NVFP4PlusFormat"),
)
_ROUTERS = (
    "RoundRobinRouter", "LeastKVLoadRouter", "PrefixAffinityRouter",
    "QueueDepthRouter", "FreeKVAtArrivalRouter",
)
_SCHEDULERS = ("PrefillFirstScheduler", "ChunkedPrefillScheduler", "DecodePriorityScheduler")

#: ``(module, owner class or "", attribute, span name, counter, pre-hook)``
#: for every binding the benchmark times. Owners are the classes whose
#: ``__dict__`` defines the attribute, so subclasses inherit the wrapper.
LAYERS = [
    ("repro.core.elem", "FloatCodec", "quantize", "core.elem.quantize", None, None),
    *[
        (f"repro.core.{mod}", cls, "quantize_dequantize", "core.qdq", _count_melem, None)
        for mod, cls in _QDQ_OWNERS
    ],
    ("repro.core.mx", "MXFormat", "encode", "core.encode", None, None),
    ("repro.core.mxplus", "MXPlusFormat", "encode", "core.encode", None, None),
    ("repro.core.mxpp", "MXPPFormat", "encode", "core.encode", None, None),
    ("repro.core.mx", "MXFormat", "decode", "core.decode", None, None),
    ("repro.core.mxplus", "MXPlusFormat", "decode", "core.decode", None, None),
    ("repro.core.layout", "", "pack_mx", "core.layout.pack", _count_bytes, None),
    ("repro.core.layout", "", "pack_mxplus", "core.layout.pack", _count_bytes, None),
    ("repro.core.layout", "", "unpack_mx", "core.layout.unpack", None, None),
    ("repro.core.layout", "", "unpack_mxplus", "core.layout.unpack", None, None),
    ("repro.nn.quantize", "QuantContext", "quantize_act", "nn.quantize.act", None, None),
    ("repro.nn.quantize", "QuantContext", "quantize_weight", "nn.quantize.weight",
     _count_weight("weight"), None),
    ("repro.nn.quantize", "QuantContext", "quantize_head_weight", "nn.quantize.head",
     _count_weight("head"), None),
    ("repro.nn.quantize", "QuantContext", "quantize_kv", "nn.quantize.kv", None, None),
    ("repro.nn.quantize", "", "bf16_round", "nn.bf16", None, None),
    ("repro.nn.tensor", "Tensor", "__matmul__", "nn.matmul", _count_gflop, None),
    ("repro.nn.transformer", "TransformerLM", "__call__", "nn.forward", _count_tokens, None),
    ("repro.eval.harness", "", "score_continuations", "eval.score", None, None),
    ("repro.eval.perplexity", "", "perplexity", "eval.ppl", None, None),
    ("repro.serve.cluster", "ServingCluster", "run", "serve.run", None, None),
    *[
        ("repro.serve.cluster", cls, "route", "serve.route", None, None)
        for cls in _ROUTERS
    ],
    ("repro.serve.engine", "ServingEngine", "step", "serve.step", _count_step, None),
    ("repro.serve.engine", "ServingEngine", "export_kv", "serve.transfer", None, None),
    ("repro.serve.engine", "ServingEngine", "import_kv", "serve.transfer", None, None),
    *[
        ("repro.serve.sched", cls, "plan", "serve.plan", _count_plan_rows, None)
        for cls in _SCHEDULERS
    ],
    ("repro.serve.engine", "", "step_time", "gpu.step_time", None, None),
    ("repro.serve.kvcache", "PagedKVCache", "append_token", "serve.kv.append",
     _count_append_blocks, _used_blocks),
    ("repro.serve.kvcache", "PagedKVCache", "try_allocate", "serve.kv.alloc", None, None),
    ("repro.serve.kvcache", "PagedKVCache", "free", "serve.kv.free", None, None),
]
