"""Install, and later remove, wrappers around the program's functions.

The benchmark measures the program from outside: it never edits
``src/``.  Host timing, output probes and the traced run all work by
replacing a class attribute or a module-level function with a wrapper
for the duration of one workload iteration, then putting the original
back.  Simulated ranks are generator coroutines, so a wrapper around a
generator-returning call has to act on every *resumption* of the
generator, not on the call that merely creates it; :func:`resumptions`
is that proxy.
"""

from __future__ import annotations

import sys
import types
from typing import Callable, Generator

__all__ = ["Patcher", "resumptions", "resolve"]


def resumptions(gen: Generator, before: Callable[[], None], after: Callable[[], None]):
    """Drive ``gen`` exactly as ``yield from gen`` would, calling
    ``before()`` and ``after()`` around each resumption.

    Values sent in and exceptions thrown in are forwarded, and the
    generator's return value is returned, so the proxy is transparent to
    the simulation (virtual time is unchanged).
    """
    value = None
    exc = None
    while True:
        before()
        try:
            if exc is not None:
                yielded = gen.throw(exc)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            after()
            return stop.value
        except BaseException:
            after()
            raise
        after()
        try:
            value, exc = (yield yielded), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into the inner generator
            value, exc = None, thrown


def resolve(target: str):
    """``"pkg.module:Class.attr"`` -> ``(owner, attr name)``."""
    module_name, _, path = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Patcher:
    """A set of installed wrappers; :meth:`restore` undoes all of them.

    Use as a context manager so a failing iteration still leaves the
    program unpatched for the next one.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def wrap(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap the function named by ``target`` (see :func:`resolve`).

        A class attribute is replaced on the class that defines it
        (keeping ``classmethod``/``staticmethod`` wrappers); a module-level
        function is replaced in every ``repro`` module that bound it by
        ``from ... import``, since those names are separate references.
        """
        owner, name = resolve(target)
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if name in vars(klass):
                    owner = klass
                    break
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(owner, name, raw, new)
            return
        fn = getattr(owner, name)
        new = make_wrapper(fn)
        for mod_name, mod in list(sys.modules.items()):
            if not isinstance(mod, types.ModuleType):
                continue
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, fn, new)

    def _set(self, owner, name: str, old, new) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
