"""Spans and counters around the public entry points of each multiaxial layer.

The tracer patches each wrapped callable wherever a ``multiaxial.*`` module
binds it (module attributes for functions, the defining class for methods),
records one span per call in memory and restores the originals on
``uninstall``.  A layer's self time is its spans' duration minus the time
their child spans cover, so nested layers are not counted twice.

Private helpers and per-cell functions (``orbit_cells.boundary``,
``Shape`` methods) are deliberately not wrapped: their call counts are in
the millions and the wrapper would swamp what it measures.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


def _orders_in(counters, args, result):
    counters["abelian.from_orders.orders_in"] += len(args[1])


def _partitions(counters, args, result):
    counters["grassmannian.partitions"] += len(result)


def _complex_size(counters, args, result):
    counters["orbit_cells.cells"] += result.total_cells()
    counters["orbit_cells.dense_entries"] += sum(
        result.cell_count(p - 1) * result.cell_count(p) for p in result.degrees()
    )


def _snf(counters, args, result):
    matrix = args[0]
    counters["homology.snf.entries"] += len(matrix) * len(matrix[0]) if matrix else 0
    counters["homology.snf.rank"] += len(result)


def _checks(counters, args, result):
    counters["verification.checks"] += len(result.results)
    counters["verification.checks_failed"] += result.failed


# (layer module, qualified name in that module, counter hook or None)
SPANNED = (
    ("abelian", "FGAbelianGroup.from_orders", _orders_in),
    ("abelian", "FGAbelianGroup.__post_init__", None),
    ("abelian", "FGAbelianGroup.direct_sum", None),
    ("abelian", "FGAbelianGroup.embeds_in", None),
    ("grassmannian", "enumerate_box_partitions", _partitions),
    ("grassmannian", "count_A_B", None),
    ("grassmannian", "count_a_b", None),
    ("grassmannian", "grassmannian_betti", None),
    ("orbit_cells", "enumerate_shapes", None),
    ("orbit_cells", "build_chain_complex", _complex_size),
    ("orbit_cells", "orbit_space_dimension", None),
    ("homology", "smith_normal_form", _snf),
    ("homology", "rank_mod2", None),
    ("homology", "integral_homology", None),
    ("homology", "mod2_homology", None),
    ("homology", "ChainComplex.__init__", None),
    ("homology", "ChainComplex.permute_generators", None),
    ("l_homology", "relative_l_homology", None),
    ("l_homology", "relative_l_homology_oracle", None),
    ("l_homology", "reduced_l_homology", None),
    ("l_homology", "reduced_l_homology_oracle", None),
    ("l_homology", "assemble_l_homology", None),
    ("l_homology", "basepoint_correction", None),
    ("l_homology", "verify_collapse", None),
    ("structure_set", "compute_structure_set", None),
    ("structure_set", "suspension_report", None),
    ("structure_set", "normalize", None),
    ("verification", "run_verification", _checks),
    ("cli", "main", None),
)

# Called once per degree from several loops: counted, but no span, so the
# copy it makes stays in the caller's self time (the d^2 check included).
COUNTED = (("homology", "ChainComplex.boundary_matrix"),)

LAYERS = (
    "abelian", "grassmannian", "orbit_cells", "homology", "l_homology",
    "structure_set", "verification", "cli",
)

# Spans whose self time is reported on its own, by metric prefix.
NAMED_SPANS = {
    "abelian.FGAbelianGroup.from_orders": "abelian.from_orders",
    "homology.smith_normal_form": "homology.snf",
    "homology.rank_mod2": "homology.rank_mod2",
    "homology.ChainComplex.__init__": "homology.complex_init",
}

COUNTERS = (
    "abelian.from_orders.orders_in",
    "grassmannian.partitions",
    "orbit_cells.cells",
    "orbit_cells.dense_entries",
    "homology.snf.entries",
    "homology.snf.rank",
    "homology.boundary_matrix.calls",
    "verification.checks",
    "verification.checks_failed",
    "cli.stdout_bytes",
)

ROOT = "bench.job"


class Tracer:
    """Records spans (name, start, end, parent span, job) in flat arrays.

    A verify_grid pass makes about a million spans, so they are kept as
    columns rather than objects; a span's job is its root span's job.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.jobs: dict[int, int] = {}  # root span index -> job id
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._plan: list[tuple] | None = None
        self._root = self._span(ROOT, lambda fn, *args: fn(*args), None)

    def _span(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, starts, ends = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters
        clock = time.perf_counter
        # from_orders takes any iterable; a list keeps its length countable
        listify = hook is _orders_in

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if listify and not hasattr(args[1], "__len__"):
                args = (args[0], list(args[1]), *args[2:])
            index = len(starts)
            name_of.append(name_id)
            parent.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self, module: str, qualname: str, make) -> list[tuple]:
        """(owner, attribute, original, wrapper) for each place to patch.

        A name the program no longer defines yields nothing, so its metrics
        read zero instead of the benchmark failing.
        """
        mod = sys.modules.get(f"multiaxial.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                return []
            if isinstance(raw, classmethod):
                return [(owner, attr, raw, classmethod(make(raw.__func__)))]
            return [(owner, attr, raw, make(raw))]
        original = getattr(mod, attr, None)
        if original is None:
            return []
        wrapper = make(original)
        return [
            (other, binding, original, wrapper)
            for name, other in list(sys.modules.items())
            if other is not None
            and (name == "multiaxial" or name.startswith("multiaxial."))
            for binding, value in vars(other).items()
            if value is original
        ]

    def install(self):
        """Patch the wrappers in; they are built on the first call."""
        if self._plan is None:
            self._plan = []
            for module, qualname, hook in SPANNED:
                name = f"{module}.{qualname}"
                self._plan += self._bindings(
                    module, qualname, lambda fn: self._span(name, fn, hook)
                )
            for module, qualname in COUNTED:
                name = f"{module}.{qualname.rpartition('.')[2]}"
                self._plan += self._bindings(
                    module, qualname, lambda fn: self._count(name, fn)
                )
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def run(self, job_id: int, fn, *args):
        """Call fn under a root span that ties its child spans to one job."""
        self.jobs[len(self.start)] = job_id
        return self._root(fn, *args)

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        starts, ends = self.start, self.end
        own = array("d", (e - s for s, e in zip(starts, ends)))
        for index, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= ends[index] - starts[index]
        return own

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced passes."""
        totals = dict.fromkeys(
            [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s")]
            + [f"{prefix}.self_s" for prefix in NAMED_SPANS.values()]
            + ["homology.snf.calls"],
            0,
        )
        calls = [0] * len(self.names)
        own_by_name = [0.0] * len(self.names)
        for name_id, own in zip(self.name_of, self.self_times()):
            calls[name_id] += 1
            own_by_name[name_id] += own
        for name, count, own in zip(self.names, calls, own_by_name):
            if name == ROOT:
                continue  # the harness's own share of each job
            layer = name.partition(".")[0]
            totals[f"{layer}.calls"] += count
            totals[f"{layer}.self_s"] += own
            prefix = NAMED_SPANS.get(name)
            if prefix is not None:
                totals[f"{prefix}.self_s"] += own
                if prefix == "homology.snf":
                    totals["homology.snf.calls"] += count
        totals.update(self.counters)
        return {key: value / passes for key, value in totals.items()}

    def write(self, path: str):
        """Gzipped JSON lines: a header naming the spans, then one line per
        span, [name, start_ns, end_ns, parent, job], times from the first."""
        t0 = self.start[0] if self.start else 0.0
        job = array("l", [-1]) * len(self.start)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i, (name_id, p) in enumerate(zip(self.name_of, self.parent)):
                job[i] = self.jobs[i] if p < 0 else job[p]
                start_ns = round((self.start[i] - t0) * 1e9)
                end_ns = round((self.end[i] - t0) * 1e9)
                fh.write(f"[{name_id},{start_ns},{end_ns},{p},{job[i]}]\n")
