"""Measurement hooks installed into an imported gsf from outside.

Nothing here edits gsf's files.  A hook replaces a public function or method
with a wrapper that times the call.  gsf binds functions with
`from ... import`, so a function is replaced in every gsf module that holds
it; otherwise calls through the other bindings would go unseen.

`SetupClock` is the only hook of an untraced run: it times the Gf and
FieldTower constructions (a handful per command) and keeps the towers for
the output checks.  `Tracer` records one span per call of every hooked
function; spans stay in memory until the worker writes them out, together
with what one span costs, measured on a no-op in the same process.

Stdlib only, so that importing this module does not import numpy.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

perf = time.perf_counter


def _gsf_modules():
    return [m for name, m in sys.modules.items() if name == "gsf" or name.startswith("gsf.")]


def rebind(module, name: str, make, only=None) -> None:
    """Replace `module.name` by `make(original)` in every gsf module binding it.

    `only` restricts the replacement to the listed modules.
    """
    orig = getattr(module, name)
    wrapped = make(orig)
    for m in only if only is not None else _gsf_modules():
        if getattr(m, name, None) is orig:
            setattr(m, name, wrapped)


def rebind_method(cls, name: str, make) -> None:
    setattr(cls, name, make(cls.__dict__[name]))


class SetupClock:
    """Wall time spent in outermost Gf / FieldTower constructions."""

    def __init__(self, gsf):
        self.seconds = 0.0
        self.towers = []
        self._depth = 0
        ffield = gsf.ffield
        rebind_method(ffield.Gf, "__init__", self._timed)
        rebind_method(ffield.FieldTower, "__init__", self._timed)

    def _timed(self, init):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            self._depth += 1
            t0 = perf()
            try:
                init(obj, *args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += perf() - t0
            if hasattr(obj, "frobenius_mats"):
                self.towers.append(obj)

        return wrapper


def capture_certificates(gsf) -> list[str]:
    """Keep every certificate text `Certificate.to_json` produces."""
    texts: list[str] = []

    def make(to_json):
        @functools.wraps(to_json)
        def wrapper(cert):
            text = to_json(cert)
            texts.append(text)
            return text

        return wrapper

    rebind_method(gsf.decomp.Certificate, "to_json", make)
    return texts


# span names are "<layer>.<what>"; the layer is gsf's module name
_VERIFIERS = ["verify_global", "verify_rank_laws", "refine_A1_2k", "refine_Ai_mod2",
              "refine_A1_pow4", "verify_full_refined", "min_rank_lower_bound"]
_SEARCHES = ["exhaustive_search", "greedy_search", "construct_regular_rep_subspace",
             "construct_symmetric_witness", "block_construction"]


# about 20 ms in all, after the timed command and outside every span
CAL_CALLS, CAL_BLOCKS = 2000, 7


class Tracer:
    """Spans as [name, start, end, parent index] plus a few counters."""

    def __init__(self, gsf):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        ff, la, fs, dc, ex = gsf.ffield, gsf.exactla, gsf.formspace, gsf.decomp, gsf.extremal

        rebind_method(ff.FieldTower, "__init__", self._span("ffield.tower"))
        rebind_method(ff.Gf, "__init__", self._span("ffield.gf", rename=self._gf_name))
        rebind(ff, "find_irreducible", self._span("ffield.find_irreducible"))
        rebind(ff, "is_irreducible", self._span("ffield.is_irreducible"))

        rebind(la, "rank_many", self._span("exactla.rank_many", after=self._count_batch))
        for name in ["rref", "rank", "kernel", "is_direct_sum", "eigenspace_of_power"]:
            rebind(la, name, self._span(f"exactla.{name}"))

        rebind(fs, "rank_profile", self._span("formspace.rank_profile", after=self._count_forms))
        # min_rank_lower_bound enters the census engine below rank_profile
        rebind(fs, "_profile_from_grams", self._span("formspace.rank_profile", after=self._count_forms),
               only=[dc])
        for name in ["family", "gram_basis", "gram"]:
            rebind(fs, name, self._span(f"formspace.{name}"))

        for name in _VERIFIERS:
            rebind(dc, name, self._span("decomp.verify"))
        rebind_method(dc.Certificate, "to_json", self._span("decomp.to_json"))
        rebind_method(dc.Certificate, "to_dict", self._span("decomp.to_json"))

        for name in _SEARCHES:
            rebind(ex, name, self._span("extremal.search"))

        rebind(gsf.cli, "main", self._span("cli.main"))

    @staticmethod
    def _gf_name(gf) -> str:
        return "ffield.gf_tables" if getattr(gf, "s", 1) > 1 else "ffield.gf"

    def _count_batch(self, args, result) -> None:
        mats = args[1]
        ndim = getattr(mats, "ndim", None)
        batch = (mats.shape[0] if ndim == 3 else 1) if ndim is not None else len(mats)
        self.counters["ranks_computed"] += batch
        if any(self.spans[k][0] == "formspace.rank_profile" for k in self._stack):
            self.counters["profile_ranks"] += batch

    def _count_forms(self, args, result) -> None:
        self.counters["forms_certified"] += result.total

    def _span(self, name, after=None, rename=None):
        spans, stack = self.spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                rec = [name, perf(), 0.0, stack[-1] if stack else -1]
                spans.append(rec)
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf()
                    stack.pop()
                if rename is not None:
                    rec[0] = rename(args[0])
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def span_cost(self) -> float:
        """Seconds one span adds to a call, measured on a no-op in this process.

        Median over CAL_BLOCKS blocks of CAL_CALLS calls of the wrapped minus
        the bare time per call.  Call it with no span open; the calibration
        spans are dropped.
        """
        calls, blocks = CAL_CALLS, CAL_BLOCKS

        def noop():
            return None

        wrapped = self._span("trace.calibrate")(noop)
        keep = len(self.spans)
        costs = []
        for _ in range(blocks):
            t0 = perf()
            for _ in range(calls):
                noop()
            t1 = perf()
            for _ in range(calls):
                wrapped()
            t2 = perf()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[keep:]
        costs.sort()
        return costs[blocks // 2]

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "span_cost_s": self.span_cost()}


LAYERS = ["ffield", "exactla", "formspace", "decomp", "extremal", "cli"]


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced command from its spans and counters."""
    spans = trace["spans"]
    counters = trace["counters"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    self_by_name: Counter = Counter()
    incl_by_name: Counter = Counter()
    calls: Counter = Counter()
    for k, (name, start, end, parent) in enumerate(spans):
        self_t = (end - start) - child_time[k]
        self_by_layer[name.split(".")[0]] += self_t
        self_by_name[name] += self_t
        calls[name] += 1
        if not _has_ancestor(spans, parent, name):
            incl_by_name[name] += end - start

    ranks = counters.get("ranks_computed", 0)
    rank_many_s = incl_by_name["exactla.rank_many"]
    rank_many_calls = calls["exactla.rank_many"]
    forms = counters.get("forms_certified", 0)
    m = {
        "ffield.tower_s": incl_by_name["ffield.tower"],
        "ffield.find_irreducible_s": incl_by_name["ffield.find_irreducible"],
        "ffield.irreducible_tests": calls["ffield.is_irreducible"],
        "ffield.gf_tables_s": incl_by_name["ffield.gf_tables"],
        "exactla.rank_many_s": rank_many_s,
        "exactla.rank_many_calls": rank_many_calls,
        "exactla.ranks_computed": ranks,
        "exactla.ranks_per_s": ranks / rank_many_s if rank_many_s else 0.0,
        "exactla.batch_mean": ranks / rank_many_calls if rank_many_calls else 0.0,
        "exactla.rref_s": incl_by_name["exactla.rref"],
        "exactla.rref_calls": calls["exactla.rref"],
        "exactla.eigenspace_s": incl_by_name["exactla.eigenspace_of_power"],
        "formspace.rank_profile_s": incl_by_name["formspace.rank_profile"],
        "formspace.rank_profile_self_s": self_by_name["formspace.rank_profile"],
        "formspace.family_s": incl_by_name["formspace.family"],
        "formspace.gram_basis_s": incl_by_name["formspace.gram_basis"],
        "decomp.verify_s": incl_by_name["decomp.verify"],
        "decomp.ranks_per_form": counters.get("profile_ranks", 0) / forms if forms else 0.0,
        "decomp.to_json_s": incl_by_name["decomp.to_json"],
        "extremal.search_s": incl_by_name["extremal.search"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.span_cost_s"] = len(spans) * trace["span_cost_s"]
    return m


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
