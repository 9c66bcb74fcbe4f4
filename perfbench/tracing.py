"""In-memory tracing of the iswaves layers, installed from outside the package.

`Tracer.install()` replaces every public function of every iswaves module
with a timing wrapper, at each name under which an iswaves module holds it
(so `iswaves.solvers.apply_table` is wrapped as well as
`iswaves.spectral.apply_table`).  It also wraps the foreign calls the layers
make: `numpy.fft` transforms and `scipy.sparse.linalg.lgmres` as imported
by `iswaves.solvers`, plus the `advance` method of the evolution steppers.

Two kinds of record are kept:

* spans, one per call, with name, parent span, start, end and whether the
  call raised; lgmres spans also carry the matvec count and exit code;
* aggregates for the leaf calls that run hundreds of thousands of times per
  operation (every `spectral` function and every FFT): call count and total
  seconds per (parent span, name).

Both stay in memory while the workload runs and are written out at the end.
Wrappers only observe: arguments and results are passed through unchanged,
which the benchmark checks by comparing traced and untraced outputs byte for
byte.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "params",
    "spectral",
    "functionals",
    "solvers",
    "kernels",
    "evolution",
    "config",
    "cli",
)
FFT_NAMES = ("rfft", "irfft", "fft", "ifft")
# layers whose calls are aggregated instead of recorded one by one
LEAF_PREFIXES = ("spectral.", "numpy.fft.")
# what a span or an aggregate records about its arguments
SIZE_OF = {"spectral.apply_table": lambda args: int(args[1].shape[0])}
EXTRA_OF = {
    "evolution.advance": lambda args: {"n": 2 * (int(args[1].shape[-1]) - 1)},
    "kernels.kernel_fft_oracle": lambda args: {"n": int(args[0].table.size)},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [id, parent, name, t0, t1, raised, extra]
        self.stack = [0]
        # (parent span, name, array length or None) -> [calls, seconds]
        self.leaf: dict[tuple[int, str, int | None], list] = defaultdict(lambda: [0, 0.0])
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open_span(self, name: str, extra: dict | None = None) -> list:
        rec = [len(self.spans) + 1, self.stack[-1], name, time.perf_counter(), None, False, extra]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close_span(self, rec: list, raised: bool = False) -> None:
        rec[4] = time.perf_counter()
        rec[5] = raised
        self.stack.pop()

    def _span_wrapper(self, name: str, fn, extra_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer.open_span(name, extra_of(args) if extra_of else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close_span(rec, raised=True)
                raise
            tracer.close_span(rec)
            return out

        return traced

    def _leaf_wrapper(self, name: str, fn, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                size = size_of(args) if size_of else None
                cell = tracer.leaf[(tracer.stack[-1], name, size)]
                cell[0] += 1
                cell[1] += time.perf_counter() - t0

        return traced

    def _lgmres_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(A, b, *args, **kwargs):
            if not tracer.active:
                return fn(A, b, *args, **kwargs)
            extra = {"matvecs": 0, "maxiter": kwargs.get("maxiter")}
            inner = A.matvec

            def matvec(v):
                extra["matvecs"] += 1
                return inner(v)

            # lgmres reads A.matvec once; an instance attribute shadows the
            # method for this call only
            A.matvec = matvec
            rec = tracer.open_span("solvers.lgmres", extra)
            try:
                x, info = fn(A, b, *args, **kwargs)
            except BaseException:
                tracer.close_span(rec, raised=True)
                raise
            finally:
                del A.matvec
            extra["info"] = int(info)
            tracer.close_span(rec)
            return x, info

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        import numpy
        import scipy.sparse.linalg

        mods = [importlib.import_module(f"iswaves.{m}") for m in MODULES]
        package = importlib.import_module("iswaves")
        wrappers: dict[object, object] = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    if name.startswith(LEAF_PREFIXES):
                        wrappers[obj] = self._leaf_wrapper(name, obj, SIZE_OF.get(name))
                    else:
                        wrappers[obj] = self._span_wrapper(name, obj, EXTRA_OF.get(name))
        wrappers[scipy.sparse.linalg.lgmres] = self._lgmres_wrapper(scipy.sparse.linalg.lgmres)
        for mod in [package, *mods]:
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and not attr.startswith("__") and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for fname in FFT_NAMES:
            fft = getattr(numpy.fft, fname)
            self._patch(numpy.fft, fname, self._leaf_wrapper(f"numpy.fft.{fname}", fft))
        evolution = mods[MODULES.index("evolution")]
        for cls in (evolution.Etdrk4Stepper, evolution.ImexBdf2Stepper):
            self._patch(
                cls,
                "advance",
                self._span_wrapper(
                    "evolution.advance", cls.__dict__["advance"], EXTRA_OF["evolution.advance"]
                ),
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        leaf = [[parent, name, size, n, s] for (parent, name, size), (n, s) in self.leaf.items()]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "leaf": leaf}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

IO_SPANS = {
    "config.load_config",
    "config.write_json",
    "config.write_meta",
    "solvers.save_branch",
    "solvers.load_branch",
}
IO_LEAVES = {"spectral.pair_to_csv", "spectral.pair_from_csv"}
CONTINUATIONS = {"solvers.continue_in_c", "solvers.continue_in_mu2"}


def _nearest(spans, start: int, stop: int, pred) -> dict[int, int]:
    """For each span id in [start, stop], the nearest ancestor-or-self
    satisfying pred (0 when there is none).  Parents precede children."""
    out = {0: 0}
    for rec in spans[start - 1 : stop]:
        out[rec[0]] = rec[0] if pred(rec) else out.get(rec[1], 0)
    return out


def pass_metrics(tracer: Tracer, root: int) -> tuple[dict, dict, dict]:
    """Per-layer counts and times of the subtree of span `root` (one pass),
    and per operation [lgmres calls at maxiter, lgmres calls, executions]."""
    spans = tracer.spans
    last = root
    inside = {root}
    for rec in spans[root:]:
        if rec[1] not in inside:
            break
        inside.add(rec[0])
        last = rec[0]
    sub = spans[root:last]
    dur = lambda rec: rec[4] - rec[3]  # noqa: E731
    by_name: dict[str, list] = defaultdict(list)
    for rec in sub:
        by_name[rec[2]].append(rec)
    leaves = [(p, n, size, c, s) for (p, n, size), (c, s) in tracer.leaf.items() if p in inside]
    name_of = {rec[0]: rec[2] for rec in sub}
    name_of[root] = spans[root - 1][2]

    def spans_s(name):
        return sum(dur(r) for r in by_name.get(name, ()))

    def leaf_calls(pred):
        return sum(c for p, n, size, c, s in leaves if pred(p, n))

    def leaf_s(pred):
        return sum(s for p, n, size, c, s in leaves if pred(p, n))

    m: dict[str, float] = {}  # work counts, which must repeat exactly
    t: dict[str, float] = {}  # times and ratios of times

    lg = by_name.get("solvers.lgmres", [])
    m["solvers.lgmres.calls"] = len(lg)
    m["solvers.lgmres.matvecs"] = sum(r[6]["matvecs"] for r in lg)
    m["solvers.lgmres.maxiter_exits"] = sum(1 for r in lg if r[6].get("info", 0) > 0)
    # 1.0 when there is no call: no inner solve failed to converge
    converged = sum(1 for r in lg if r[6].get("info") == 0)
    m["solvers.lgmres.converged_frac"] = converged / len(lg) if lg else 1.0
    t["solvers.lgmres.s"] = spans_s("solvers.lgmres")
    newton = by_name.get("solvers.newton_solve", [])
    m["solvers.newton_solve.calls"] = len(newton)
    m["solvers.newton_solve.failed"] = sum(1 for r in newton if r[5])
    t["solvers.newton_solve.s"] = spans_s("solvers.newton_solve")
    steps = [r for r in newton if name_of.get(r[1]) in CONTINUATIONS]
    m["solvers.continuation.steps_accepted"] = sum(1 for r in steps if not r[5])
    m["solvers.continuation.steps_rejected"] = sum(1 for r in steps if r[5])
    t["solvers.solve_bfd_reduced.s"] = spans_s("solvers.solve_bfd_reduced")
    t["solvers.petviashvili_ground_state.s"] = spans_s("solvers.petviashvili_ground_state")

    is_fft = lambda p, n: n.startswith("numpy.fft.")  # noqa: E731
    m["spectral.fft_calls"] = leaf_calls(is_fft)
    t["spectral.fft.s"] = leaf_s(is_fft)
    for short in ("apply_table", "symmetrize_even", "make_multiplier", "zcothz"):
        full = f"spectral.{short}"
        m[f"{full}.calls"] = leaf_calls(lambda p, n: n == full)
        t[f"{full}.s"] = leaf_s(lambda p, n: n == full)
    per_n: dict[int, list] = defaultdict(lambda: [0, 0.0])
    for p, n, size, c, s in leaves:
        if n == "spectral.apply_table":
            per_n[size][0] += c
            per_n[size][1] += s
    for size, (c, s) in sorted(per_n.items()):
        t[f"spectral.apply_table.us_per_call.n{size}"] = 1e6 * s / c

    adv = by_name.get("evolution.advance", [])
    runs = by_name.get("evolution.run", [])
    m["evolution.steps"] = len(adv)
    t["evolution.advance.s"] = spans_s("evolution.advance")
    adv_n: dict[int, list] = defaultdict(lambda: [0, 0.0])
    for r in adv:
        adv_n[r[6]["n"]][0] += 1
        adv_n[r[6]["n"]][1] += dur(r)
    for size, (c, s) in sorted(adv_n.items()):
        t[f"evolution.advance.us_per_step.n{size}"] = 1e6 * s / c
    run_of = _nearest(spans, root, last, lambda rec: rec[2] == "evolution.run")
    adv_ids = {r[0] for r in adv}
    run_fft = leaf_calls(lambda p, n: is_fft(p, n) and run_of.get(p, 0) != 0)
    step_fft = leaf_calls(lambda p, n: is_fft(p, n) and p in adv_ids)
    m["evolution.fft_calls_per_step"] = run_fft / len(adv) if adv else 0.0
    m["evolution.stepper_fft_calls_per_step"] = step_fft / len(adv) if adv else 0.0
    run_s = spans_s("evolution.run")
    t["evolution.run.s"] = run_s
    t["evolution.monitor.s"] = run_s - t["evolution.advance.s"] if runs else 0.0
    t["evolution.monitor_frac"] = t["evolution.monitor.s"] / run_s if runs else 0.0

    for fn in ("hamiltonian_H", "energy_E", "quadratic_form_check"):
        full = f"functionals.{fn}"
        m[f"{full}.calls"] = len(by_name.get(full, []))
        t[f"{full}.s"] = spans_s(full)

    oracle = by_name.get("kernels.kernel_fft_oracle", [])
    m["kernels.kernel_fft_oracle.calls"] = len(oracle)
    t["kernels.kernel_fft_oracle.s"] = spans_s("kernels.kernel_fft_oracle")
    # computed, not measured: the float64 symbol read, the complex128
    # transform and the float64 values written, per point
    m["kernels.kernel_fft_oracle.bytes_computed"] = sum(32 * r[6]["n"] for r in oracle)
    # the closed forms the oracle is checked against: quadratures, plateaus
    # and the K3 eigen-series
    t["kernels.quadrature.s"] = sum(
        dur(r)
        for r in sub
        if r[2].startswith("kernels.kernel_K") and not name_of[r[1]].startswith("kernels.kernel_K")
    )

    t["params.s"] = sum(
        dur(r)
        for r in sub
        if r[2].startswith("params.") and not name_of[r[1]].startswith("params.")
    )
    io_of = _nearest(spans, root, last, lambda rec: rec[2] in IO_SPANS)
    t["cli.io.s"] = sum(
        dur(r) for r in sub if r[2] in IO_SPANS and io_of.get(r[1], 0) == 0
    ) + leaf_s(lambda p, n: n in IO_LEAVES and io_of.get(p, 0) == 0)

    op_of = _nearest(spans, root, last, lambda rec: rec[2].startswith("op."))
    stalls: dict[str, list] = {}
    for rec in sub:
        if rec[2].startswith("op."):
            stalls.setdefault(rec[2][3:], [0, 0, 0])[2] += 1
    for r in lg:
        cell = stalls[name_of[op_of[r[0]]][3:]]
        cell[0] += r[6].get("info", 0) > 0
        cell[1] += 1
    return m, t, stalls
