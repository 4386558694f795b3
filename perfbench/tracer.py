"""Per-layer tracing from outside the package.

The tracer rebinds the listed public functions of each cpnkit layer in
every ``cpnkit.*`` namespace that holds them, and the ``numpy.linalg``
entry points that cpnkit calls, with wrappers that record a span per
call.  Spans nest on one stack, so a layer's self time is its duration
minus the time covered by the spans it caused.  Spans are folded into
per-name totals as they close, which keeps memory flat over the
hundreds of thousands of calls a suite pass makes.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer -> public functions timed at that layer boundary
LAYER_FUNCTIONS = {
    "maps": ("is_completely_n_positive", "check_hermitian_symmetry",
             "flatten", "cpn_distance"),
    "dilation": ("dilate", "verify_dilation", "dilate_from_gram",
                 "unitary_equivalence"),
    "radon": ("sample_unit_interval", "compress", "intertwiner",
              "rn_operator", "order_equivalence_check"),
    "structure": ("commutant", "is_pure", "is_extreme",
                  "nonextreme_decomposition", "are_disjoint",
                  "extension_witness"),
    "linalg": ("spectral_norm", "nullspace", "commutant_basis_of",
               "solve_sandwich"),
    "towers": ("evaluate_continuous_map",),
    "serialize": ("cpn_map_from_json", "cpn_map_to_json", "dilation_to_json"),
    "cli": ("main",),
}

# kernel metric name -> numpy.linalg entry point
KERNELS = {"svd": "svd", "eigh": "eigh", "eigvalsh": "eigvalsh",
           "lstsq": "lstsq", "norm2": "norm"}

ROOT = "pass"


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(x) for x in obj)
    return 0


def _is_norm2(args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2


class Tracer:
    """Span stack plus per-name totals; install() and uninstall() rebind."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_seconds, is_kernel]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, bytes]
        self.attribution: dict[tuple[str, str], list] = {}  # (kernel, span) -> [calls, self_s, bytes]
        self.min_self_s = 0.0
        self.roots: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _close(self, frame, end: float, nbytes: int) -> None:
        name, start, child, is_kernel = frame
        dur = end - start
        self_s = dur - child
        self.min_self_s = min(self.min_self_s, self_s)
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += self_s
        st[2] += dur
        st[3] += nbytes
        if is_kernel:
            owner = next((f[0] for f in reversed(self.stack) if not f[3]), ROOT)
            at = self.attribution.setdefault((name, owner), [0, 0.0, 0])
            at[0] += 1
            at[1] += self_s
            at[2] += nbytes

    def _wrap_function(self, fn, name: str):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0, False]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end, 0)
        return traced

    def _wrap_kernel(self, fn, name: str):
        stack = self.stack
        only_ord2 = name == "kernel.norm2"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_ord2 and not _is_norm2(args, kwargs):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0, True]
            stack.append(frame)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                nbytes = sum(_array_bytes(a) for a in args) + _array_bytes(out)
                self._close(frame, end, nbytes)
        return traced

    def root(self, fn, *args, **kwargs):
        """Run fn under a root span; returns (result, root record)."""
        frame = [ROOT, time.perf_counter(), 0.0, False]
        self.stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, end, 0)
            rec = {"duration_s": end - frame[1], "children_s": frame[2]}
            self.roots.append(rec)
        return out, rec

    # -- rebinding ---------------------------------------------------------
    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        cpn_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "cpnkit" or n.startswith("cpnkit."))]
        for layer, fns in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(f"cpnkit.{layer}")
            for fn in fns:
                original = getattr(mod, fn)
                self._rebind(cpn_modules, original,
                             self._wrap_function(original, f"{layer}.{fn}"))
        linalg_modules = [np.linalg]
        inner = sys.modules.get("numpy.linalg._linalg")
        if inner is not None:
            linalg_modules.append(inner)
        for metric, entry in KERNELS.items():
            original = getattr(np.linalg, entry)
            self._rebind(linalg_modules, original,
                         self._wrap_kernel(original, f"kernel.{metric}"))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------
    def report(self) -> dict:
        def entry(name):
            calls, self_s, total_s, nbytes = self.stats.get(name, (0, 0.0, 0.0, 0))
            return {"calls": calls, "self_s": self_s, "total_s": total_s,
                    "computed_mb": nbytes / 1e6}
        functions = {name: entry(name) for name in function_names()}
        kernels = {k: entry(f"kernel.{k}") for k in KERNELS}
        attribution = {}
        for (kernel, owner), (calls, self_s, nbytes) in sorted(self.attribution.items()):
            attribution.setdefault(kernel.split(".", 1)[1], {})[owner] = {
                "calls": calls, "self_s": self_s, "computed_mb": nbytes / 1e6}
        traced_self = sum(st[1] for name, st in self.stats.items() if name != ROOT)
        return {"functions": functions, "kernels": kernels,
                "attribution": attribution, "roots": self.roots,
                "traced_self_s": traced_self, "min_self_s": self.min_self_s}
