"""Span tracing by wrapping the module attributes callers look up at call time.

Each wrapped call records a span (name, start, end, parent, attributes)
in memory.  A name that a later refactor removed is reported as absent
instead of failing, so the end-to-end run never depends on the trace.
``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name).  Every attribute is a module global the
# program resolves when it calls it, so replacing it intercepts the call.
WRAP_POINTS = (
    ("reviewlab.cli", "parse_csv", "dataset.parse_csv"),
    ("reviewlab.cli", "write_csv", "dataset.write_csv"),
    ("reviewlab.cli", "full_report", "analytics.full_report"),
    ("reviewlab.cli", "auto_label_dataset", "sentiment.auto_label_dataset"),
    ("reviewlab.cli", "load_vocab", "textprep.load_vocab"),
    ("reviewlab.cli", "load_checkpoint", "checkpoint.load"),
    ("reviewlab.cli", "save_checkpoint", "checkpoint.save"),
    ("reviewlab.cli", "roc_auc", "metrics.roc_auc"),
    ("reviewlab.cli", "train", "training.train"),
    ("reviewlab.training", "embed_batch", "textprep.embed_batch"),
    ("reviewlab.training", "forward", "nn.forward"),
    ("reviewlab.training", "backward", "nn.backward"),
    ("reviewlab.training", "clip_by_global_norm", "nn.clip"),
    ("reviewlab.training", "adam_step", "nn.adam"),
    ("reviewlab.nn", "lstm_sequence_forward", "nn.lstm_forward"),
    ("reviewlab.nn", "lstm_sequence_backward", "nn.lstm_backward"),
)

GEMM_SHAPE = (1024, 306, 256)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def retained_bytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable from obj."""
    seen, buffers, stack = set(), {}, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or item is None or isinstance(item, (str, int, float, bool)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            root = item
            while isinstance(root.base, np.ndarray):
                root = root.base
            buffers[id(root)] = root.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            for klass in type(item).__mro__:
                stack.extend(getattr(item, s, None) for s in getattr(klass, "__slots__", ()))
    return sum(buffers.values())


class Tracer:
    """Wraps WRAP_POINTS while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._batch = None  # (rows, steps, real tokens) of the last embed_batch

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the command-level spans."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            try:
                attrs = self._attrs_before(name, args, kwargs)
            except Exception:  # a changed signature must not fail the traced call
                attrs = {}
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, attrs=attrs)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            try:
                self._attrs_after(span, result)
            except Exception:  # a changed return value must not fail the traced call
                pass
            return result

        return traced

    def _attrs_before(self, name, args, kwargs) -> dict:
        if name == "textprep.embed_batch" and args:
            idx = np.asarray(args[0])
            if idx.ndim == 2:
                self._batch = (idx.shape[0], idx.shape[1], int(np.count_nonzero(idx)))
        if name == "nn.forward":
            return {"training": bool(kwargs.get("training", False)), "batch": self._batch}
        if name in ("nn.backward", "nn.lstm_backward"):
            return {"batch": self._batch}
        if name == "nn.lstm_forward" and self._batch and len(args) > 1:
            return {"batch": self._batch, "steps": len(args[1])}
        return {}

    def _attrs_after(self, span: Span, result) -> None:
        if span.name == "dataset.parse_csv":
            span.attrs["issues"] = len(result[1])
        elif span.name == "nn.forward" and span.attrs["training"]:
            span.attrs["cache_bytes"] = retained_bytes(result[1])

    # -- queries ---------------------------------------------------------

    def _ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def under(self, name: str, ancestor: str | None = None) -> list[Span]:
        return [
            s for i, s in enumerate(self.spans)
            if s.name == name
            and (ancestor is None or any(a.name == ancestor for a in self._ancestors(i)))
        ]

    def self_seconds(self, name: str) -> float:
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                children = sum(c.seconds for c in self.spans if c.parent == i)
                total += s.seconds - children
        return total


def _mean(values, scale=1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def _rows(span: Span) -> int:
    return (span.attrs.get("batch") or (0,))[0]


def _full_batch_median_ms(spans) -> float:
    """Median duration in ms of the spans over the largest batch seen; 0 if none ran."""
    if not spans:
        return 0.0
    rows = max(_rows(s) for s in spans)
    return statistics.median(s.seconds for s in spans if _rows(s) == rows) * 1e3


def gemm_ref_gflops(repeats: int = 40) -> float:
    """Achieved GFLOP/s of one isolated (1024x306).(306x256) float64 GEMM."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    for _ in range(3):
        a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def layer_metrics(tracer: Tracer, shape: dict, test_rows: int | None) -> dict:
    """Per-layer values (plain numbers) from one traced pass.

    A layer the workload never reaches reads 0.
    """
    spans = tracer.under
    hidden, dim = shape["cell_size"], shape["embedding_dim"]
    gate_flops = 8.0 * hidden * (hidden + dim)  # 2 * 4H * (H + D) per token

    lstm_fwd, lstm_bwd = spans("nn.lstm_forward"), spans("nn.lstm_backward")
    stepped = sum(s.attrs["batch"][0] * s.attrs["steps"] for s in lstm_fwd if "steps" in s.attrs)
    real = sum(s.attrs["batch"][2] for s in lstm_fwd if "steps" in s.attrs)
    real_bwd = sum(s.attrs["batch"][2] for s in lstm_bwd if s.attrs.get("batch"))
    recurrence_s = sum(s.seconds for s in lstm_fwd + lstm_bwd)
    useful_flops = gate_flops * real + 2.0 * gate_flops * real_bwd

    train_fwd = [s for s in spans("nn.forward") if s.attrs.get("training")]
    backward = spans("nn.backward")
    eval_fwd = spans("nn.forward", ancestor="cli.evaluate")
    parse = spans("dataset.parse_csv")
    train_calls = spans("training.train")
    lstm_train = [
        s for s in lstm_fwd
        if s.parent is not None and tracer.spans[s.parent].attrs.get("training")
    ]
    clip_adam = sum(s.seconds for s in spans("nn.clip") + spans("nn.adam"))

    return {
        "dataset.parse_csv_s": _mean([s.seconds for s in parse]),
        "dataset.write_csv_s": _mean([s.seconds for s in spans("dataset.write_csv")]),
        "dataset.issue_rows": parse[-1].attrs.get("issues", 0) if parse else 0,
        "analytics.full_report_s": _mean([s.seconds for s in spans("analytics.full_report")]),
        "sentiment.auto_label_dataset_s": _mean(
            [s.seconds for s in spans("sentiment.auto_label_dataset")]
        ),
        "textprep.embed_batch_ms": _mean([s.seconds for s in spans("textprep.embed_batch")], 1e3),
        "textprep.load_vocab_ms": _mean([s.seconds for s in spans("textprep.load_vocab")], 1e3),
        "nn.lstm_forward_ms_per_dir": _full_batch_median_ms(lstm_train),
        "nn.lstm_backward_ms_per_dir": _full_batch_median_ms(lstm_bwd),
        "nn.forward_train_ms_per_batch": _full_batch_median_ms(train_fwd),
        "nn.backward_ms_per_batch": _full_batch_median_ms(backward),
        "nn.eval_forward_ms_per_batch": _full_batch_median_ms(eval_fwd),
        "nn.predict_forward_ms": _full_batch_median_ms(spans("nn.forward", ancestor="cli.predict")),
        "nn.clip_adam_ms_per_batch": clip_adam / len(backward) * 1e3 if backward else 0.0,
        "nn.useful_gflops_per_s": useful_flops / recurrence_s / 1e9 if recurrence_s else 0.0,
        "nn.real_token_frac": real / stepped if stepped else 0.0,
        "nn.gemm_ref_gflops_per_s": gemm_ref_gflops(),
        "nn.train_cache_mb": max((s.attrs.get("cache_bytes", 0) for s in train_fwd), default=0) / 2**20,
        "training.train_self_s": (
            tracer.self_seconds("training.train") / len(train_calls) if train_calls else 0.0
        ),
        "training.eval_rows_per_test_row": (
            sum(_rows(s) for s in eval_fwd) / test_rows
            if test_rows and eval_fwd else 0.0
        ),
        "checkpoint.load_ms": _mean([s.seconds for s in spans("checkpoint.load")], 1e3),
        "checkpoint.save_ms": _mean([s.seconds for s in spans("checkpoint.save")], 1e3),
        "metrics.roc_auc_ms": _mean([s.seconds for s in spans("metrics.roc_auc")], 1e3),
    }
