"""Layer timing from outside the library, by wrapping its public functions.

poplaw's modules bind their dependencies with ``from .x import f``, so a
function object can be reached under its name from several modules. While a
`Tracer` is installed, each listed function is replaced, in every loaded
``poplaw`` module and in the benchmark's own `workloads` module, by a wrapper
that records a span; `restore` puts the originals back.

Spans nest on a stack. The benchmark opens a root span around each operation,
and wrappers record only inside one, so checks run outside operations leave
no trace. A span's self time is its duration minus the time its child spans
cover. Wrappers of the functions in `KEEP` also save their arguments and
result, and `drain` derives the counters from those after the operation's
timer has stopped, so that counting adds no time to any span.
"""

import math
import sys
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "simplex.solve_equalities": ("poplaw.simplex", "solve_equalities"),
    "mps.mps_decompose": ("poplaw.mps", "mps_decompose"),
    "mps.decomposition_lp": ("poplaw.mps", "decomposition_lp"),
    "mps.verify_decomposition": ("poplaw.mps", "verify_decomposition"),
    "measures.law_expected_measure": ("poplaw.measures", "law_expected_measure"),
    "measures.barycenter": ("poplaw.measures", "barycenter"),
    "measures.mix_laws": ("poplaw.measures", "mix_laws"),
    "feasibility.check_feasible": ("poplaw.feasibility", "check_feasible"),
    "feasibility.base_law": ("poplaw.feasibility", "base_law"),
    "product.multinomial_law": ("poplaw.product", "multinomial_law"),
    "product.binary_product_feasible_quantile": (
        "poplaw.product",
        "binary_product_feasible_quantile",
    ),
    "structures.synthesize": ("poplaw.structures", "synthesize"),
    "structures.expand_scheme": ("poplaw.structures", "expand_scheme"),
    "structures.induced_population_law": ("poplaw.structures", "induced_population_law"),
    "structures.bayes_posterior": ("poplaw.structures", "bayes_posterior"),
    "structures.simulate": ("poplaw.structures", "simulate"),
    "polarization.search_max_polarization": (
        "poplaw.polarization",
        "search_max_polarization",
    ),
    "polarization.max_polarization": ("poplaw.polarization", "max_polarization"),
    "jsonio.decode": ("workloads", "decode_problem"),
    "jsonio.encode": ("workloads", "encode_result"),
}

SOLVE = "simplex.solve_equalities"
KEEP = {
    SOLVE,
    "mps.decomposition_lp",
    "feasibility.check_feasible",
    "product.multinomial_law",
    "structures.expand_scheme",
    "structures.induced_population_law",
    "structures.simulate",
    "polarization.search_max_polarization",
}


def _bits(values):
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _kernel_entries(structure):
    return sum(len(profiles) for profiles in structure.kernel)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span timing and counters for the functions in SPANS, across passes."""

    def __init__(self):
        self.stack = []
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.pending = []
        self.unattributed_s = 0.0
        # times scaled to the reference host speed, and the raw totals so far
        self.scaled_s = dict.fromkeys(SPANS, 0.0)
        self.scaled_unattributed_s = 0.0
        self._mark = dict(self.self_s)
        self._mark_unattributed = 0.0
        self.counts = {
            "simplex.farkas": 0,
            "simplex.entry_bits_max": 0,
            "mps.lp.rows_max": 0,
            "mps.lp.cols_max": 0,
            "mps.lp.cells": 0,
            "mps.lp.nonzero": 0,
            "mps.route.mean_mismatch": 0,
            "mps.route.quantile": 0,
            "mps.route.lp": 0,
            "product.multinomial_law.atoms": 0,
            "structures.expand_scheme.profiles": 0,
            "structures.induced_population_law.profiles": 0,
            "polarization.search.pairs": 0,
            "structures.simulate.samples": 0,
        }
        self._patched = []

    def _wrap(self, name, func):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        pending = self.pending if name in KEEP else None

        def span(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            solves = calls[SOLVE]
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
            if pending is not None:
                pending.append((name, args, kwargs, result, calls[SOLVE] - solves))
            return result

        return span

    def install(self):
        """Replace every listed function wherever a loaded module bound it."""
        originals = {}
        for name, (module, attr) in SPANS.items():
            func = getattr(sys.modules[module], attr)
            originals[id(func)] = (func, self._wrap(name, func))
        for modname, module in list(sys.modules.items()):
            if modname != "workloads" and modname.split(".")[0] != "poplaw":
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def restore(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def run_op(self, op, *args):
        """Time one operation inside a root span; returns (result, seconds)."""
        frame = [0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = op(*args)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            self.unattributed_s += elapsed - frame[0]
        return result, elapsed

    def rescale(self, factor):
        """Scale the span times recorded since the previous call by `factor`."""
        for name, value in self.self_s.items():
            self.scaled_s[name] += (value - self._mark[name]) * factor
        self._mark = dict(self.self_s)
        self.scaled_unattributed_s += (self.unattributed_s - self._mark_unattributed) * factor
        self._mark_unattributed = self.unattributed_s

    def drain(self):
        """Derive counters from the saved arguments and results of one operation."""
        c = self.counts
        for name, args, kwargs, result, solves in self.pending:
            if name == SOLVE:
                vector = result.solution if result.feasible else result.farkas
                if not result.feasible:
                    c["simplex.farkas"] += 1
                c["simplex.entry_bits_max"] = max(c["simplex.entry_bits_max"], _bits(vector))
            elif name == "mps.decomposition_lp":
                rows = result[0]
                width = len(rows[0]) if rows else 0
                c["mps.lp.rows_max"] = max(c["mps.lp.rows_max"], len(rows))
                c["mps.lp.cols_max"] = max(c["mps.lp.cols_max"], width)
                c["mps.lp.cells"] += len(rows) * width
                c["mps.lp.nonzero"] += sum(1 for row in rows for v in row if v)
            elif name == "feasibility.check_feasible":
                if type(result.certificate).__name__ == "MeanMismatch":
                    c["mps.route.mean_mismatch"] += 1
                elif solves:
                    c["mps.route.lp"] += 1
                else:
                    c["mps.route.quantile"] += 1
            elif name == "product.multinomial_law":
                c["product.multinomial_law.atoms"] += len(result.atoms)
            elif name == "structures.expand_scheme":
                c["structures.expand_scheme.profiles"] += _kernel_entries(result)
            elif name == "structures.induced_population_law":
                c["structures.induced_population_law.profiles"] += _kernel_entries(args[0])
            elif name == "structures.simulate":
                c["structures.simulate.samples"] += _arg(args, kwargs, 1, "samples", 0)
            elif name == "polarization.search_max_polarization":
                n = args[0]
                signals = _arg(args, kwargs, 2, "signals_per_agent", 2)
                denominator = _arg(args, kwargs, 3, "denominator", 4)
                profiles = signals**n
                vectors = math.comb(denominator + profiles - 1, profiles - 1)
                c["polarization.search.pairs"] += vectors * vectors
        self.pending.clear()

    def metrics(self, passes, overhead_frac):
        """Per-layer metrics as (value, unit), per pass over the workload's inputs.

        Times are the scaled ones; call `rescale` after the last operation.
        """
        c = self.counts
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = (self.scaled_s[name] / passes, "s")
        for name in (SOLVE, "structures.bayes_posterior"):
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        for name in (
            "simplex.farkas",
            "mps.lp.cells",
            "mps.route.mean_mismatch",
            "mps.route.quantile",
            "mps.route.lp",
            "product.multinomial_law.atoms",
            "structures.expand_scheme.profiles",
            "structures.induced_population_law.profiles",
            "polarization.search.pairs",
        ):
            out[name] = (c[name] / passes, "count")
        out["simplex.entry_bits_max"] = (c["simplex.entry_bits_max"], "bits")
        out["mps.lp.rows_max"] = (c["mps.lp.rows_max"], "count")
        out["mps.lp.cols_max"] = (c["mps.lp.cols_max"], "count")
        out["mps.lp.nonzero_ratio"] = (_ratio(c["mps.lp.nonzero"], c["mps.lp.cells"]), "ratio")
        routes = c["mps.route.mean_mismatch"] + c["mps.route.quantile"] + c["mps.route.lp"]
        out["mps.quantile_hit_ratio"] = (_ratio(c["mps.route.quantile"], routes), "ratio")
        out["polarization.search.pairs_per_s"] = (
            _ratio(c["polarization.search.pairs"], self.scaled_s["polarization.search_max_polarization"]),
            "1/s",
        )
        out["structures.simulate.samples_per_s"] = (
            _ratio(c["structures.simulate.samples"], self.scaled_s["structures.simulate"]),
            "1/s",
        )
        out["trace.unattributed_s"] = (self.scaled_unattributed_s / passes, "s")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
