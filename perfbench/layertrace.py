"""Host self time per layer, measured from outside the program.

The traced run replaces selected public functions and methods of the
program with timing wrappers.  Each wrapper charges its call's duration,
minus the time of wrapped calls nested inside it, to one layer name: the
layer's *self time*.  Nothing under ``src/`` knows about this; the
wrappers are installed on the classes and module attributes the program
calls through, and removed again by :meth:`LayerTracer.uninstall`.

Time spent in calibration bursts inside a wrapped call is charged to a
separate ``calib`` account, so it stays out of every layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

_now = time.perf_counter_ns

Layer = Union[str, Callable[[object], str]]


class LayerTracer:
    """Self-time and call-count accounts keyed by layer name."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Sum of the durations of outermost wrapped calls.
        self.outer_ns = 0
        #: Burst time that fell inside a wrapped call.
        self.calib_ns = 0
        #: Open calls: ``[start_ns, nested_ns]``.
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting -----------------------------------------------------------

    def begin(self, state: Optional[tuple] = None) -> None:
        """Zero every account, or restore a :meth:`suspend` state; calls
        already open count from now on."""
        self_ns, calls, self.outer_ns, self.calib_ns = state or ({}, {}, 0, 0)
        self.self_ns.clear()
        self.self_ns.update(self_ns)
        self.calls.clear()
        self.calls.update(calls)
        now = _now()
        for frame in self._stack:
            frame[0] = now
            frame[1] = 0

    def suspend(self) -> tuple:
        """The accounts, to be restored by :meth:`begin` so that the calls
        made in between are not counted."""
        if self._stack:
            raise RuntimeError("cannot suspend inside a wrapped call")
        return dict(self.self_ns), dict(self.calls), self.outer_ns, self.calib_ns

    def burst(self, ns: int) -> None:
        """A calibration burst of ``ns`` ran inside the current call."""
        if self._stack:
            self._stack[-1][1] += ns
            self.calib_ns += ns

    def timed(self, layer: Layer, fn: Callable) -> Callable:
        """``fn`` wrapped so its self time lands in ``layer``.

        ``layer`` is a name, or a function of the call's first argument
        that returns one (to split one method by receiver).
        """
        route = None if isinstance(layer, str) else layer
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [_now(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = _now() - frame[0]
                name = layer if route is None else route(args[0])
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.outer_ns += dur

        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (for very hot functions)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def patch(self, owner: object, name: str, layer: Layer,
              count_only: bool = False) -> None:
        """Replace ``owner.name`` by a wrapper charging ``layer``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name)
        self._patches.append((owner, name, original))
        wrap = self.counted if count_only else self.timed
        if isinstance(original, (classmethod, staticmethod)):
            setattr(owner, name,
                    type(original)(wrap(layer, original.__func__)))
        else:
            setattr(owner, name, wrap(layer, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def check(self, body_ns: int) -> Tuple[int, List[str]]:
        """The accounting identity of one traced body.

        Layer self times plus calibration time must equal the outermost
        calls' durations exactly, and must fit inside the body's host time
        ``body_ns``; the rest is the *unwrapped remainder*, code no wrapper
        covers.  Returns the remainder and the identity's violations.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} wrapped call(s) still open")
        total_self = sum(self.self_ns.values())
        if total_self + self.calib_ns != self.outer_ns:
            problems.append(f"self times {total_self} + calib {self.calib_ns}"
                            f" != outer calls {self.outer_ns}")
        remainder = body_ns - total_self
        if remainder < 0:
            problems.append(f"layer self times {total_self} ns exceed the "
                            f"body's {body_ns} ns")
        return remainder, problems
