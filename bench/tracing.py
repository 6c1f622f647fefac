"""Per-layer tracing of `nonsep` from outside the package.

`Tracer.install()` replaces every public function of the package's
modules, and the public static constructors of their classes (such as
`Polytope.from_vertices`), with a timing wrapper.  Several modules import
functions by name (`covering` takes `contains_translate` from `polytope`,
`lattice` takes `measure` and `polar`), so every module's binding to a
wrapped function is replaced, not only the defining one.  `uninstall()`
puts the originals back.

Per function the tracer keeps the call count, the inclusive time
(`time_s`, counted once for recursive calls), the self time (`self_s`,
the inclusive time minus that of wrapped calls nested inside) and the
number of `lp.solve` calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("lp", "polytope", "family", "covering", "asymmetry", "lattice",
          "cubes", "balls", "scenarios", "cli")
LP = "lp.solve"


@dataclass
class Stat:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    lp_calls: int = 0
    depth: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []     # child time of each open call
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"nonsep.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}         # id(original) -> wrapper
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{name}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in vars(obj).items():
                        if isinstance(raw, staticmethod) and not meth.startswith("_"):
                            wrapped = self._wrap(f"{name}.{meth}", raw.__func__)
                            self._patch(obj, meth, staticmethod(wrapped))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, key: str, fn):
        self.stats.setdefault(key, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[key]
            lp = self.stats.get(LP)
            lp_before = lp.calls if lp else 0
            outer = st.depth == 0
            st.depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if outer:
                    st.time_s += dt
                    st.lp_calls += (lp.calls if lp else 0) - lp_before

        return wrapper
