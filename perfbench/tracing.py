"""Per-layer tracing of mlqtasep from outside the package.

Tracer.install rebinds public functions of each layer (core, poly, chains,
solve, verify, sim, cli) to timing wrappers.  A name bound with
``from .x import y`` lives on in every importing module, so each wrapper
replaces the original in every mlqtasep module namespace that holds it.

Two kinds of wrapped call:

* span functions record one span (name, start, end, parent span) each; the
  spans stay in memory and are written out when the run ends;
* hot functions, called hundreds of thousands of times per run, only add to
  their call count and busy time, so that memory stays flat.

Both kinds charge their duration to the enclosing call, so self time (busy
time minus the time covered by wrapped children) is exact for every name.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer module, public function, hot); a hot function is called too often
# to keep a span per call
TARGETS = (
    ("core", "enumerate_mlqs", True),
    ("core", "ringing_transition", True),
    ("core", "bully_projection", True),
    ("chains", "build_tasep_chain", False),
    ("chains", "build_fm_chain", False),
    ("chains", "build_coupe_chain", False),
    ("solve", "master_residual", False),
    ("solve", "residual_at_point", False),
    ("solve", "stationary_solve", False),
    ("solve", "check_lumpability", False),
    ("solve", "lump", False),
    ("solve", "irreducible", False),
    ("verify", "run_suites", False),
    ("sim", "gillespie_run", False),
    ("sim", "compare_to_exact", False),
    ("cli", "main", False),
)

# verify.<suite> span per check function, named like the report's suite
SUITES = {
    "check_fm3_theorem": "fm3",
    "check_three_species_lemma": "fm3-lemma",
    "check_fm1_theorem": "fm1",
    "check_partition_function": "zpart",
    "check_main_conjecture": "main",
    "check_lw_normalization_and_positivity": "lw",
    "check_identity_count": "identity",
    "check_uniform_stationarity": "uniform",
    "check_coupe_theorem": "coupe",
}


class _Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Wrappers, spans and counters of one traced workload process."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.counts = {
            "chains.states": 0,
            "chains.transitions": 0,
            "poly.LaurentPoly.created": 0,
            "solve.stationary_solve.max_states": 0,
            "solve.stationary_solve.max_coeff_bits": 0,
            "sim.events": 0,
            "verify.reports": 0,
        }
        self.missing: list[str] = []
        # each open call: [time covered by wrapped children, enclosing span index]
        self._stack: list[list] = [[0.0, -1]]

    def install(self) -> "Tracer":
        for layer in ("core", "poly", "chains", "solve", "verify", "sim", "cli"):
            importlib.import_module(f"mlqtasep.{layer}")
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "mlqtasep" or name.startswith("mlqtasep.")
        ]
        for layer, attr, hot in TARGETS:
            self._rebind(modules, layer, attr, f"{layer}.{attr}", hot)
        for attr, suite in SUITES.items():
            self._rebind(modules, "verify", attr, f"verify.{suite}", False)
        poly = sys.modules["mlqtasep.poly"].LaurentPoly
        poly.eval = self._wrapper("poly.LaurentPoly.eval", poly.eval, True)
        original_init = poly.__init__
        counts = self.counts

        def counting_init(self, *args, **kwargs):
            counts["poly.LaurentPoly.created"] += 1
            original_init(self, *args, **kwargs)

        poly.__init__ = counting_init
        return self

    def _rebind(self, modules, layer: str, attr: str, name: str, hot: bool):
        """Replace the function in every module namespace that holds it."""
        original = getattr(sys.modules[f"mlqtasep.{layer}"], attr, None)
        if original is None:
            self.missing.append(f"{layer}.{attr}")
            return
        wrapper = self._wrapper(name, original, hot)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrapper(self, name: str, fn, hot: bool):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        count = self._counter(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent[1]])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame[0]
                parent[0] += elapsed
                if not hot:
                    spans[frame[1]][1:3] = (start, end)
            if count is not None:
                count(result, args)
            return result

        return traced

    def _counter(self, name: str):
        counts = self.counts
        if name.startswith("chains.build_"):
            def count(chain, args):
                counts["chains.states"] += len(chain.states)
                counts["chains.transitions"] += len(chain.transitions)
            return count
        if name == "solve.stationary_solve":
            def count(weights, args):
                counts["solve.stationary_solve.max_states"] = max(
                    counts["solve.stationary_solve.max_states"], len(args[0].states)
                )
                counts["solve.stationary_solve.max_coeff_bits"] = max(
                    counts["solve.stationary_solve.max_coeff_bits"],
                    max(abs(v).bit_length() for v in weights),
                )
            return count
        if name == "sim.gillespie_run":
            def count(emp, args):
                counts["sim.events"] += emp.events
            return count
        if name.startswith("verify.") and name != "verify.run_suites":
            def count(report, args):
                counts["verify.reports"] += 1
            return count
        return None

    def metrics(self) -> dict[str, float]:
        """Per-layer figures, named as in BENCHMARK.json, without units."""
        def stat(name):
            return self.stats.get(name) or _Stat()

        out: dict[str, float] = {}
        for name in (
            "core.bully_projection",
            "core.ringing_transition",
            "core.enumerate_mlqs",
            "poly.LaurentPoly.eval",
            "solve.master_residual",
            "solve.stationary_solve",
        ):
            out[f"{name}.calls"] = stat(name).calls
            out[f"{name}.busy_s"] = stat(name).busy
        states = self.counts["chains.states"]
        out["core.bully_projection.per_state"] = (
            stat("core.bully_projection").calls / states if states else 0.0
        )
        out["chains.build_fm_chain.busy_s"] = stat("chains.build_fm_chain").busy
        out["chains.build_fm_chain.self_s"] = stat("chains.build_fm_chain").self_time
        for name in (
            "chains.build_coupe_chain",
            "chains.build_tasep_chain",
            "solve.check_lumpability",
            "solve.lump",
            "solve.irreducible",
            "solve.residual_at_point",
            "sim.gillespie_run",
            "sim.compare_to_exact",
        ):
            out[f"{name}.busy_s"] = stat(name).busy
        for suite in SUITES.values():
            out[f"verify.{suite}.busy_s"] = stat(f"verify.{suite}").busy
        out["cli.main.self_s"] = stat("cli.main").self_time
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index (-1: none)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
