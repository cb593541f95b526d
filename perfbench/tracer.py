"""Span tracer that wraps twistorlab's public functions from outside the package.

Each wrapped function (a *layer boundary*) records one span per call: name,
start, end, parent span and thread.  Counts are taken at the same
boundaries: metric evaluation points, FD stencil points, distinct bundle
points and FD sweeps per bundle point, and ``ComplexForm`` constructions.

Wrapping rebinds the name in every loaded ``twistorlab.*`` module that binds
it (``levi_civita`` is imported by name into ``twistor``,
``curvature_analysis`` and ``cli``), and methods are patched on their class,
so no call path inside the program bypasses a span.  Span state is kept per
thread and registered under a lock, so the ``cli._parallel_map`` workers of
``verify`` are attributed to their own threads.
"""

import functools
import sys
import threading
import time
from typing import Dict, List

import numpy as np

# (module, attribute path) for every traced boundary; a class entry traces
# construction (its __init__).  The layer is the module name.
TRACED = (
    ("manifold", "HermitianSurface.metric"),
    ("manifold", "DiffBackend.partial"),
    ("manifold", "adapted_frame"),
    ("manifold", "builtin"),
    ("connection", "christoffel"),
    ("connection", "levi_civita"),
    ("connection", "omega_tilde_coord"),
    ("connection", "gauduchon"),
    ("connection", "direct_curvature"),
    ("curvature_analysis", "condition_flags"),
    ("exterior", "wedge"),
    ("exterior", "substitute"),
    ("twistor", "condition_report"),
    ("twistor", "CoframeSweep"),
    ("twistor", "CoframeSweep.dK"),
    ("twistor", "twistor_coframe"),
    ("twistor", "coframe_rows"),
    ("twistor", "dK_formula"),
    ("twistor", "balanced_defect_formula"),
    ("twistor", "nijenhuis_oracle"),
    ("twistor", "lambda_zero_crossing"),
    ("flag", "appendix_table"),
    ("cli", "main"),
    ("cli", "dump_json"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


class _Thread:
    """Open-span stack, finished spans and counters of one thread."""

    def __init__(self):
        self.thread = threading.current_thread()
        self.ident = threading.get_ident()
        self.seq = 0
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        self.reset()

    def reset(self):
        self.spans: List[tuple] = []
        self.metric_points = 0
        self.stencil_points = 0
        self.forms_built = 0
        self.sweeps = 0
        self.point_keys = set()
        self.bundle_keys = set()


class Tracer:
    """Installs spans on the TRACED boundaries; ``drain`` collects one op.

    A finished span is the tuple ``(id, name, start, end, parent_id, thread,
    self_s, metric_points, outermost)``.  Ids are ``(thread, sequence)``
    pairs; ``metric_points`` counts metric evaluation points inside the span;
    ``outermost`` is false when a span of the same name is already open on
    its thread (the nested FD-of-FD ``partial`` calls), so inclusive totals
    sum over outermost spans only.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._patches: List[tuple] = []

    # -- per-thread state -------------------------------------------------

    def _thread(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    @staticmethod
    def _enter(st: _Thread, name: str) -> None:
        parent = st.stack[-1][3] if st.stack else None
        depth = st.depth.get(name, 0)
        st.depth[name] = depth + 1
        st.seq += 1
        st.stack.append([name, time.perf_counter(), 0.0, (st.ident, st.seq),
                         parent, st.metric_points, depth == 0])

    @staticmethod
    def _exit(st: _Thread) -> None:
        end = time.perf_counter()
        name, start, child, sid, parent, points0, outermost = st.stack.pop()
        st.depth[name] -= 1
        dur = end - start
        if st.stack:
            st.stack[-1][2] += dur
        st.spans.append((sid, name, start, end, parent, st.ident, dur - child,
                         st.metric_points - points0, outermost))

    # -- counters taken at the boundaries --------------------------------

    @staticmethod
    def _count_metric(st, args):
        points = np.asarray(args[1], dtype=float).reshape(-1, 4).tolist()   # metric(self, x)
        st.metric_points += len(points)     # a batched (N, 4) call counts N
        st.point_keys.update(map(tuple, points))

    @staticmethod
    def _count_partial(st, args):
        st.stencil_points += 4 if args[0].order == 4 else 2

    @staticmethod
    def _count_sweep(st, args):
        # CoframeSweep.__init__(self, M, conn, z) and nijenhuis_oracle(i, M, conn, z)
        M, conn, z = args[1:4]
        t, _ = sys.modules["twistorlab.twistor"].normalize_connection(conn)
        st.sweeps += 1
        st.bundle_keys.add((M.name, tuple(sorted(M.params.items())), t,
                            tuple(z.chart_coordinates().tolist())))

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._thread()
            tracer._enter(st, name)
            try:
                if count is not None:
                    count(st, args)
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st)
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every TRACED boundary; ``uninstall`` restores the originals."""
        import twistorlab.cli  # noqa: F401  (loads every twistorlab module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twistorlab" or n.startswith("twistorlab."))]
        counters = {
            "manifold.HermitianSurface.metric": self._count_metric,
            "manifold.DiffBackend.partial": self._count_partial,
            "twistor.CoframeSweep": self._count_sweep,
            "twistor.nijenhuis_oracle": self._count_sweep,
        }
        for (mod, path), name in zip(TRACED, SPAN_NAMES):
            home = sys.modules[f"twistorlab.{mod}"]
            owner_name, _, attr = path.rpartition(".")
            count = counters.get(name)
            if owner_name:                      # a method, patched on its class
                owner = getattr(home, owner_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], count))
                continue
            orig = getattr(home, attr)
            if isinstance(orig, type):          # a class: trace construction
                self._patch(orig, "__init__", self._wrap(name, orig.__dict__["__init__"], count))
                continue
            traced = self._wrap(name, orig, count)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._patch(m, attr, traced)

        form = sys.modules["twistorlab.exterior"].ComplexForm
        init = form.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            tracer._thread().forms_built += 1
            init(*args, **kwargs)
        self._patch(form, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def drain(self) -> dict:
        """Spans and counters since the last drain, over all threads.

        Call between ops, when no traced call is open on any thread.
        """
        with self._lock:
            threads = list(self._threads)
        out = {"spans": [], "metric_points": 0, "stencil_points": 0,
               "forms_built": 0, "sweeps": 0, "point_keys": set(), "bundle_keys": set()}
        for st in threads:
            out["spans"].extend(st.spans)
            for key in ("metric_points", "stencil_points", "forms_built", "sweeps"):
                out[key] += getattr(st, key)
            out["point_keys"] |= st.point_keys
            out["bundle_keys"] |= st.bundle_keys
            st.reset()
        with self._lock:    # finished pool workers hold nothing more
            self._threads = [st for st in self._threads if st.thread.is_alive()]
        return out
