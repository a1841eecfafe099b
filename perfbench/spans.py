"""Span recording around calls into copaug's public functions.

A `Tracer` replaces each target function with a wrapper at every name a
caller looks it up by: the module attribute in the defining module and
every `from ... import` alias in the other copaug modules (a class
attribute for methods).  Each call records a span (name, start, end,
parent) in memory; an optional hook turns the call's arguments and
result into counters.  Leaving the `with` block restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: `copaug.<module>.<qualname>`.

    hook(tracer, args, kwargs, result, seconds) may add counters.
    """

    module: str
    qualname: str
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    """Wraps the targets while active and keeps every span in memory."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []            # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self.synthetic = []        # ProfileSets returned by sample_synth_model
        self._stack = []
        self._restore = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(f"copaug.{target.module}")
        *owner_path, attr = target.qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = self._wrap(target, original)
        if owner is module:
            sites = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "copaug" or mod_name.startswith("copaug.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        else:
            sites = [(owner, attr)]
        for site, key in sites:
            setattr(site, key, wrapper)
            self._restore.append((site, key, original))

    def _unpatch(self) -> None:
        while self._restore:
            site, key, original = self._restore.pop()
            setattr(site, key, original)

    def _wrap(self, target: Target, fn):
        name, hook = target.name, target.hook
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
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
                hook(self, args, kwargs, result, end - start)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Inclusive time skips spans nested in a span of the same
        name, so recursion is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[k]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
