"""Outside-in span tracer for ncfgl.

The tracer replaces public functions and methods of an imported ncfgl with
wrappers that record one span per call: its name, its parent span, its start
and its end.  A module that imported a function by name keeps its own
reference, so every name is patched where it is looked up (for example both
``ncfgl.series.left_expand`` and ``ncfgl.fgl.left_expand``).  A span whose
direct parent has the same name is not recorded separately, so
``__sub__ -> __add__`` counts once and a recursive call adds no span.

Self time of a span is its duration minus the durations of its child spans.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter

# (layer name, owner, attribute); an owner is "module" or "module:Class".
# Names of one layer share a counter and a self-time total.
SPAN_TARGETS = (
    ("series.left_expand", "ncfgl.series", "left_expand"),
    ("series.left_expand", "ncfgl.fgl", "left_expand"),
    ("series.left_expand", "ncfgl", "left_expand"),
    ("series.mul", "ncfgl.series:CentralSeries", "__mul__"),
    ("series.add", "ncfgl.series:CentralSeries", "__add__"),
    ("series.add", "ncfgl.series:CentralSeries", "__sub__"),
    ("series.specialize", "ncfgl.series:CentralSeries", "specialize"),
    ("series.revert", "ncfgl.series", "revert"),
    ("series.revert", "ncfgl", "revert"),
    ("series.left_substitute", "ncfgl.series", "left_substitute"),
    ("series.left_substitute", "ncfgl", "left_substitute"),
    ("freealg.mul", "ncfgl.freealg:FreeElement", "__mul__"),
    ("freealg.add", "ncfgl.freealg:FreeElement", "__add__"),
    ("freealg.add", "ncfgl.freealg:FreeElement", "__sub__"),
    ("freealg.render", "ncfgl.freealg:FreeElement", "__str__"),
    ("freealg.render", "ncfgl.freealg:FreeElement", "to_data"),
    ("linalg.rref_fp", "ncfgl.linalg", "_rref_fp"),
    ("linalg.rref_q", "ncfgl.linalg", "_rref_frac"),
    ("steenrod.nsym_action", "ncfgl.steenrod", "nsym_action"),
    ("steenrod.nsym_action", "ncfgl", "nsym_action"),
    ("steenrod.certificate", "ncfgl.steenrod", "bp_obstruction_certificate"),
    ("steenrod.certificate", "ncfgl.steenrod", "hf2_obstruction_certificate"),
    ("steenrod.certificate", "ncfgl", "bp_obstruction_certificate"),
    ("steenrod.certificate", "ncfgl", "hf2_obstruction_certificate"),
    ("commalg.mul", "ncfgl.commalg:CommElement", "__mul__"),
    ("fgl.fgl_table", "ncfgl.fgl", "fgl_table"),
    ("fgl.fgl_table", "ncfgl", "fgl_table"),
    ("fgl.inverse_table", "ncfgl.fgl", "inverse_table"),
    ("fgl.inverse_table", "ncfgl", "inverse_table"),
    ("fgl.verify_axioms", "ncfgl.fgl", "verify_axioms"),
    ("fgl.verify_axioms", "ncfgl", "verify_axioms"),
)

# In a traced command-line child only the command layer and element
# rendering are spans, so that cli.compute keeps the library work as its own.
CLI_SPAN_TARGETS = (
    ("cli.compute", "ncfgl.cli", "run"),
    ("cli.render", "ncfgl.cli", "_emit"),
    ("freealg.render", "ncfgl.freealg:FreeElement", "__str__"),
    ("freealg.render", "ncfgl.freealg:FreeElement", "to_data"),
) + tuple(
    ("cli.render", owner, attr)
    for owner in (
        "ncfgl.fgl:FGLTable",
        "ncfgl.fgl:InverseTable",
        "ncfgl.fgl:AxiomReport",
        "ncfgl.fgl:FiltrationResult",
        "ncfgl.series:CentralSeries",
        "ncfgl.commalg:CommElement",
        "ncfgl.steenrod:ObstructionCertificate",
        "ncfgl.gradebook:PoincareSeries",
        "ncfgl.gradebook:ParityReport",
        "ncfgl.gradebook:RationalComparisonReport",
    )
    for attr in ("__str__", "to_data")
)


def _output_terms(tracer, args, result):
    tracer.counts["freealg.mul_terms_out"] += len(result)


def _rref_cells(tracer, args, result):
    tracer.counts["linalg.rref_cells"] += len(args[0]) * args[1]
    tracer.counts["linalg.rref_calls"] += 1


# Extra counters recorded after a call of the named layer returns.
AFTER_HOOKS = {
    "freealg.mul": _output_terms,
    "linalg.rref_fp": _rref_cells,
    "linalg.rref_q": _rref_cells,
}


def _resolve(owner: str):
    """The module or class named by ``owner``, importing its module.

    Raises ImportError or AttributeError when either no longer exists.
    """
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return module
    return getattr(module, class_name)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`remove` restores."""

    def __init__(self):
        self.stack = []  # open frames: [name, child_seconds, span_id]
        self.spans = []  # span_id -> (parent_id, name, start, end)
        self.self_time: dict = {}
        self.counts: dict = {}
        self.missing = []
        self._patches = []

    def wrap(self, name: str, fn):
        tracer = self
        after = AFTER_HOOKS.get(name)
        calls_key = f"{name}_calls"
        self.self_time.setdefault(name, 0.0)
        self.counts.setdefault(calls_key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            spans = tracer.spans
            span_id = len(spans)
            spans.append(None)
            frame = [name, 0.0, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[1]
                tracer.counts[calls_key] += 1
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (parent, name, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self, targets=SPAN_TARGETS):
        for extra in ("freealg.mul_terms_out", "linalg.rref_cells", "linalg.rref_calls"):
            self.counts.setdefault(extra, 0)
        for name, owner, attr in targets:
            try:
                holder = _resolve(owner)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            if isinstance(holder, type):
                original = holder.__dict__.get(attr)
            else:
                original = getattr(holder, attr, None)
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            setattr(holder, attr, self.wrap(name, original))
            self._patches.append((holder, attr, original))
        return self

    def remove(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Current self-time totals (seconds) and counters."""
        out = {f"{name}_s": value for name, value in self.self_time.items()}
        out.update(self.counts)
        return out


def write_spans(path: str, meta: dict, groups) -> None:
    """Write spans as gzip-compressed JSON lines when the run ends.

    ``groups`` holds (label, spans) pairs; each line is
    [label, span_id, parent_id, name, start, duration] with times in seconds
    from the group's first span.
    """
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(meta) + "\n")
        for label, spans in groups:
            origin = min((span[2] for span in spans if span is not None), default=0.0)
            for span_id, span in enumerate(spans):
                if span is None:  # still open: the run ended inside it
                    continue
                parent, name, start, end = span
                line = [label, span_id, parent, name, round(start - origin, 9), round(end - start, 9)]
                handle.write(json.dumps(line) + "\n")
