"""Runtime instrumentation for the benchmark's traced runs.

The program under test is never edited. Instead this module wraps public
callables of ``repro`` at runtime with spans or plain call counters, and
hands the program a :class:`LayerTracer` in place of its usual
``Tracer``, so the program's own spans (``pipeline``, ``collect/<forum>``,
``curate``, ``enrich/...``, ``serve/batch``, ``stream/epoch``) and the
benchmark's spans nest on one stack.

Span names are ``<layer>.<what>`` for benchmark spans; program spans map
to a layer by their first path segment (``pipeline`` is ``core``). A
layer's self time is its spans' durations minus the parts covered by
child spans, so the self times of all layers plus the uncovered remainder
add up to the measured wall time.

Every hook is removed again by :meth:`Hooks.uninstall`, so an untraced
job in the same process runs unwrapped apart from the always-on lookup
counter (``svc.call``), which end-to-end ``fail_rate`` needs.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import threading
from typing import Callable, Dict, List, Optional

from repro.obs.trace import Tracer

#: Program span heads whose layer is not their own name.
_PROGRAM_LAYERS = {"pipeline": "core"}

#: Span names whose every duration is kept, for percentiles.
KEEP_DURATIONS = ("serve.dispatch", "serve/batch", "stream/epoch")

#: Program spans whose numeric attributes are summed.
SUM_ATTRIBUTES = ("enrich/precompute",)

#: Call and byte counts, keyed by span or counter name. Reset per job.
#: This and the active tracer are process-wide because the wrappers sit in
#: the program's own namespaces, which hold no handle to a benchmark object.
COUNTS: collections.Counter = collections.Counter()

_MAIN_THREAD = threading.get_ident()
_active: Optional["LayerTracer"] = None


def layer_of(name: str) -> str:
    head = name.split("/", 1)[0].split(".", 1)[0]
    return _PROGRAM_LAYERS.get(head, head)


def set_active(tracer: Optional["LayerTracer"]) -> None:
    """Route benchmark spans to ``tracer`` (None: count only)."""
    global _active
    _active = tracer


def _forget_in_child() -> None:
    # Process-pool workers inherit the wrappers; their spans would land
    # in a copy of the tracer nobody reads, so they only count.
    set_active(None)


os.register_at_fork(after_in_child=_forget_in_child)


class LayerTracer(Tracer):
    """A :class:`Tracer` that folds each finished span into totals.

    Spans are not retained (a serve run opens hundreds of thousands), so
    memory stays flat; only the durations of :data:`KEEP_DURATIONS` are
    kept for percentiles.
    """

    def __init__(self) -> None:
        super().__init__()
        self.total: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.Counter()
        self.self_by_layer: Dict[str, float] = collections.defaultdict(float)
        #: Time in each layer's outermost spans (nested same-layer spans
        #: are not double counted).
        self.busy_by_layer: Dict[str, float] = collections.defaultdict(float)
        self.attributes: Dict[str, float] = collections.defaultdict(float)
        self.durations: Dict[str, List[float]] = {n: [] for n in KEEP_DURATIONS}
        #: Time in spans that have no parent.
        self.root_seconds = 0.0
        self._child_seconds: Dict[int, float] = {}
        self._layers: Dict[int, str] = {}

    def start(self, name, **attributes):
        span = super().start(name, **attributes)
        self.spans.pop()
        self._layers[span.span_id] = layer_of(name)
        return span

    def end(self, span) -> None:
        if span.finished:
            return
        super().end(span)
        name = span.name
        seconds = span.end_wall - span.start_wall
        layer = self._layers.pop(span.span_id)
        self.total[name] += seconds
        self.calls[name] += 1
        self.self_by_layer[layer] += (
            seconds - self._child_seconds.pop(span.span_id, 0.0))
        parent = span.parent_id
        if parent is None:
            self.root_seconds += seconds
        else:
            self._child_seconds[parent] = (
                self._child_seconds.get(parent, 0.0) + seconds)
        if self._layers.get(parent) != layer:
            self.busy_by_layer[layer] += seconds
        if name in self.durations:
            self.durations[name].append(seconds)
        if name in SUM_ATTRIBUTES:
            for key, value in span.attributes.items():
                if isinstance(value, (int, float)):
                    self.attributes[f"{name}:{key}"] += value


def _traced(fn: Callable, name: str,
            after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span named ``name``; always count the call.

    ``after(args, result)`` runs outside the span, for counts derived
    from the call (bytes written, quarantine verdicts).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        COUNTS[name] += 1
        tracer = _active
        if tracer is None or threading.get_ident() != _MAIN_THREAD:
            result = fn(*args, **kwargs)
        else:
            span = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        COUNTS[name] += 1
        return fn(*args, **kwargs)

    return wrapper


# -- byte and verdict accounting ---------------------------------------------

def _file_bytes(args, result) -> None:
    COUNTS["persist.bytes"] += os.stat(args[0]).st_size


def _manifest_bytes(args, result) -> None:
    journal = args[0]
    name = importlib.import_module("repro.checkpoint.journal").MANIFEST_NAME
    COUNTS["persist.bytes"] += os.stat(journal.directory / name).st_size


def _snapshot_bytes(args, result) -> None:
    COUNTS["persist.bytes"] += int(result.get("bytes", 0))


def _quarantine_verdict(args, result) -> None:
    if result is not None:
        COUNTS["quarantine.quarantined"] += 1


def _journal_append(fn: Callable) -> Callable:
    """Span + byte count for ``RunJournal.append`` (one fsync'd record)."""
    traced = _traced(fn, "persist.journal")

    @functools.wraps(fn)
    def wrapper(journal, record):
        handle = getattr(journal, "_handle", None)
        before = handle.tell() if handle is not None else 0
        traced(journal, record)
        handle = getattr(journal, "_handle", None)
        if handle is not None:
            COUNTS["persist.bytes"] += handle.tell() - before

    return wrapper


# -- installation -------------------------------------------------------------

class Hooks:
    """The set of wrappers currently installed; undone by uninstall()."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        #: Hook targets this version of the program does not have.
        self.missing: List[str] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, wrap: Callable,
                 only_in: Optional[str] = None) -> None:
        """Wrap a module-level function in every ``repro`` namespace that
        imported it by name (or only in ``only_in``)."""
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if only_in is not None and name != only_in:
                continue
            if (name == "repro" or name.startswith("repro.")) and \
                    mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def method(self, module: str, cls: str, attr: str,
               wrap: Callable) -> None:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in owner.__dict__:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        self._set(owner, attr, wrap(owner.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def span(name: str, after: Optional[Callable] = None) -> Callable:
    return lambda fn: _traced(fn, name, after)


def install_lookup_counter() -> Hooks:
    """The one hook untraced runs carry: guarded enrichment lookups
    (every call through the resilience policy), the ``fail_rate`` base."""
    hooks = Hooks()
    hooks.function("repro.resilience", "call_with_policy",
                   span("svc.call"), only_in="repro.core.enrichment")
    if hooks.missing:
        raise RuntimeError("cannot count guarded lookups: "
                           + ", ".join(hooks.missing))
    return hooks


def install_tracing() -> Hooks:
    """Wrap every layer boundary the traced run attributes time to."""
    hooks = Hooks()
    hooks.function("repro.world.scenario", "build_world", span("world.build"))
    hooks.method("repro.core.quarantine", "Sanitizer", "screen",
                 span("quarantine.screen", _quarantine_verdict))
    nlp = (("annotator", "MessageAnnotator", "annotate", "nlp.annotate"),
           ("langdetect", "LanguageDetector", "detect_code", "nlp.langdetect"),
           ("translate", "TemplateTranslator", "translate", "nlp.translate"),
           ("brands_ner", "BrandRecognizer", "find_all", "nlp.brand_ner"),
           ("scamtype", "ScamTypeClassifier", "classify", "nlp.scamtype"),
           ("lures", "LureDetector", "detect_set", "nlp.lures"))
    for module, cls, attr, name in nlp:
        hooks.method(f"repro.nlp.{module}", cls, attr, span(name))
    hooks.function("repro.nlp.normalize", "squash",
                   lambda fn: _counted(fn, "nlp.squash"),
                   only_in="repro.nlp.brands_ner")
    report = importlib.import_module("repro.analysis.report")
    for attr in sorted(report.__dict__):
        if attr.startswith("build_table") or attr.startswith("build_figure"):
            hooks.function("repro.analysis.report", attr,
                           span("analysis.tables"),
                           only_in="repro.analysis.report")
    hooks.function("repro.analysis.report", "run_case_study",
                   span("analysis.case_study"), only_in="repro.analysis.report")
    hooks.function("repro.analysis.report", "evaluate_annotation",
                   span("analysis.evaluation"),
                   only_in="repro.analysis.report")
    hooks.method("repro.analysis.report", "PaperReport", "render",
                 span("analysis.render"))
    hooks.method("repro.serve.service", "IntakeService", "dispatch",
                 span("serve.dispatch"))
    hooks.method("repro.serve.degrade", "DegradationController", "refresh",
                 span("serve.degrade_refresh"))
    hooks.method("repro.stream.ledger", "DedupLedger", "divide",
                 span("stream.ledger_divide"))
    hooks.function("repro.stream.persist", "atomic_write_pickle",
                   span("persist.pickle", _file_bytes))
    hooks.function("repro.stream.persist", "atomic_write_json",
                   span("persist.json", _file_bytes))
    hooks.method("repro.checkpoint.journal", "RunJournal", "append",
                 _journal_append)
    hooks.method("repro.checkpoint.journal", "RunJournal", "write_snapshot",
                 span("persist.pickle", _snapshot_bytes))
    hooks.method("repro.checkpoint.journal", "RunJournal", "write_manifest",
                 span("persist.json", _manifest_bytes))
    hooks.method("repro.exec.pool", "ProcessPool", "map",
                 span("exec.process_map"))
    hooks._set(os, "fsync", _traced(os.fsync, "persist.fsync"))
    return hooks
