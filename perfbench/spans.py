"""Span tracing of supercat's public functions, from outside the package.

Each traced function is replaced, in every supercat module that binds it,
by a wrapper that records one span: (item, span id, parent span, name,
start, end) plus a small verdict for the few functions whose result feeds a
ratio.  The package imports names with ``from .schmidt import kron``, so
patching only the defining module would miss every call made inside the
package.  Spans live in flat arrays in memory and are written out when the
run ends; self time and counts are derived from them afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array

#: module -> public functions traced, in metric order
TRACED = {
    "schmidt": ("make_schmidt", "kron", "majorizes", "prefix_sums", "entropy",
                "binary_entropy", "schmidt_rank"),
    "catalysis": ("is_catalyst", "rank2_catalyst_interval", "max_catalyst_entropy",
                  "returned_rank_bound", "probe_two_level"),
    "supercatalysis": ("gmax_given_c", "bound_gmax", "tilde_gmax_sweep"),
    "oracle": ("grid_catalyst_interval", "grid_gmax_rank2"),
    "cli": ("main",),
}
LABELS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
LABEL_ID = {name: i for i, name in enumerate(LABELS)}
MODULES = list(TRACED)

#: results turned into a 0/1 verdict on the span
VERDICTS = {
    "catalysis.is_catalyst": lambda r: r is True,
    "supercatalysis.gmax_given_c": lambda r: getattr(r, "method", None) == "grid-approximate",
    "supercatalysis.bound_gmax": lambda r: r > 1.0,
}

NOTE = ("single-threaded program: no layer waits on another, so busy time is self time "
        "and no wait metric exists")


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.labels = array("b")
        self.verdicts = array("b")
        self.item_first_span = []   # span index where each item begins
        self._stack = []
        self._restore = []

    def begin_item(self):
        self.item_first_span.append(len(self.starts))

    def _wrap(self, label: str, fn):
        starts, ends, parents = self.starts, self.ends, self.parents
        labels, verdicts, stack = self.labels, self.verdicts, self._stack
        lid = LABEL_ID[label]
        verdict = VERDICTS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            labels.append(lid)
            verdicts.append(-1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if verdict is not None:
                verdicts[sid] = 1 if verdict(result) else 0
            return result

        return traced

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "supercat" or name.startswith("supercat."))]
        for home, fns in TRACED.items():
            home_mod = sys.modules.get(f"supercat.{home}")
            for fn_name in fns:
                original = getattr(home_mod, fn_name, None)
                if original is None:
                    continue  # function removed or renamed: reported as 0 calls
                wrapper = self._wrap(f"{home}.{fn_name}", original)
                for mod in mods:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._restore.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write every span as one tab-separated line."""
        bounds = self.item_first_span + [len(self.starts)]
        with open(path, "w") as f:
            f.write("item\tspan\tparent\tname\tstart_s\tend_s\tverdict\n")
            for item, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for i in range(lo, hi):
                    f.write(f"{item}\t{i}\t{self.parents[i]}\t{LABELS[self.labels[i]]}\t"
                            f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.verdicts[i]}\n")

    def summarize(self, n_items: int, sweep_points: int) -> tuple:
        """(metrics, total root span seconds): per-item calls and self time
        per function, plus the derived counters."""
        n = len(self.starts)
        starts, ends, parents, labels = self.starts, self.ends, self.parents, self.labels
        nl = len(LABELS)
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        calls, self_s, true_count = [0] * nl, [0.0] * nl, [0] * nl
        root_time = 0.0
        oracle_ids = {LABEL_ID[f"oracle.{f}"] for f in TRACED["oracle"]}
        is_cat, maj = LABEL_ID["catalysis.is_catalyst"], LABEL_ID["schmidt.majorizes"]
        gmax = LABEL_ID["supercatalysis.gmax_given_c"]
        sweep = LABEL_ID["supercatalysis.tilde_gmax_sweep"]
        in_oracle = bytearray(n)    # span lies inside an oracle span
        oracle_calls = probes = sweep_gmax = sweeps = 0
        for i in range(n):
            lab, p = labels[i], parents[i]
            dur = ends[i] - starts[i]
            calls[lab] += 1
            self_s[lab] += dur - child_time[i]
            if self.verdicts[i] == 1:
                true_count[lab] += 1
            if p < 0:
                root_time += dur
                continue
            if in_oracle[p] or labels[p] in oracle_ids:
                in_oracle[i] = 1
                # a probe is one membership or feasibility test
                if lab == is_cat or (lab == maj and labels[p] != is_cat):
                    probes += 1
            if lab in oracle_ids and not in_oracle[i]:
                oracle_calls += 1
            if lab == gmax and labels[p] == sweep:
                sweep_gmax += 1
            if lab == sweep:
                sweeps += 1
        m = {}
        for lid, name in enumerate(LABELS):
            m[f"{name}.calls"] = (calls[lid] / n_items, "count")
            m[f"{name}.self_ms"] = (1e3 * self_s[lid] / n_items, "ms")

        def ratio(lid):
            return true_count[lid] / calls[lid] if calls[lid] else 0.0

        m["catalysis.is_catalyst.hit_ratio"] = (ratio(is_cat), "ratio")
        m["supercatalysis.gmax_given_c.grid_ratio"] = (ratio(gmax), "ratio")
        m["supercatalysis.bound_gmax.above_one_ratio"] = (
            ratio(LABEL_ID["supercatalysis.bound_gmax"]), "ratio")
        m["supercatalysis.tilde_gmax_sweep.refine_calls"] = (
            (sweep_gmax - sweeps * sweep_points) / n_items, "count")
        m["oracle.probes_per_call"] = (probes / oracle_calls if oracle_calls else 0.0, "count")
        for mod in MODULES:
            mod_self = sum(self_s[LABEL_ID[f"{mod}.{f}"]] for f in TRACED[mod])
            m[f"{mod}.self_share"] = (mod_self / root_time if root_time else 0.0, "ratio")
        return m, root_time
