"""Per-layer spans and counts, recorded from outside the program.

The layers are the specmul modules ``cli``, ``asm``, ``groups``, ``linalg``,
``constructions`` and ``circle``.  ``Tracer.install`` wraps public functions
and methods of each module, in every specmul module namespace that holds
them: ``asm`` and ``groups`` do ``from .linalg import matmul``, so patching
``specmul.linalg.matmul`` alone would miss their calls.  A span has a name,
a start, an end and a parent; counts are kept at the same wrappers.
``circle`` gets counts only, because a timer per point operation would cost
more than the operation.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter


def _after_matmul(counts, args, result):
    from specmul.linalg import Dense

    a, b = args[0], args[1]
    # a Dense product of two structured factors: exactness was lost
    if (isinstance(result, Dense) and not isinstance(a, Dense)
            and not isinstance(b, Dense)):
        counts["linalg.dense_fallbacks"] += 1


def _after_close(counts, args, result):
    counts["groups.elements"] += result.order


def _after_cayley(counts, args, result):
    # computed, not measured: the n x n int64 table
    counts["groups.cayley_bytes"] += args[0].order ** 2 * 8


# (module, attribute path, span name, hook run on the result)
SPANS = [
    ("specmul.cli", "main", "cli.main", None),
    ("specmul.asm", "measure_asm", "asm.measure", None),
    ("specmul.asm", "measure_asm_sampled", "asm.measure", None),
    ("specmul.asm", "measure_sub", "asm.measure", None),
    ("specmul.asm", "pair_defect", "asm.pair_defect", None),
    ("specmul.asm", "pair_sub_defect", "asm.pair_defect", None),
    ("specmul.asm", "AsmReport.to_json_dict", "asm.to_json", None),
    ("specmul.groups", "close", "groups.close", _after_close),
    ("specmul.groups", "GroupClosure.cayley_table", "groups.cayley", _after_cayley),
    ("specmul.linalg", "matmul", "linalg.matmul", _after_matmul),
    ("specmul.linalg", "Diagonal.spectrum", "linalg.spectrum", None),
    ("specmul.linalg", "MonomialCycle.spectrum", "linalg.spectrum", None),
    ("specmul.linalg", "BlockDiag.spectrum", "linalg.spectrum", None),
    ("specmul.linalg", "Dense.spectrum", "linalg.spectrum", None),
    ("specmul.linalg", "eigensolve_dense", "linalg.eig", None),
    ("specmul.linalg", "matrix_from_json", "linalg.from_json", None),
    ("specmul.constructions", "sample_tadpole", "constructions.sample", None),
    ("specmul.constructions", "sr_sample", "constructions.sample", None),
    ("specmul.constructions", "tadpole", "constructions.build", None),
    ("specmul.constructions", "miller_moreno", "constructions.build", None),
    ("specmul.constructions", "default_miller_moreno", "constructions.build", None),
    ("specmul.constructions", "cycle_matrix", "constructions.build", None),
]

# (module, attribute path, counter name)
COUNTS = [
    ("specmul.circle", "UnitPoint.__mul__", "circle.point_muls"),
    ("specmul.circle", "UnitPoint.__post_init__", "circle.points_created"),
]

# metric -> span name: total time of the outermost spans of that name
_INCLUSIVE = {
    "asm.to_json_s": "asm.to_json",
    "groups.close_s": "groups.close",
    "groups.cayley_s": "groups.cayley",
    "linalg.matmul_s": "linalg.matmul",
    "linalg.spectrum_s": "linalg.spectrum",
    "linalg.eig_s": "linalg.eig",
    "linalg.from_json_s": "linalg.from_json",
    "constructions.sample_s": "constructions.sample",
    "constructions.build_s": "constructions.build",
    "asm.measure_s": "asm.measure",
    "asm.pair_defect_s": "asm.pair_defect",
}

# metric -> span name: number of outermost spans of that name
_CALLS = {
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.spectrum_calls": "linalg.spectrum",
    "constructions.sample_calls": "constructions.sample",
    "asm.pair_defect_calls": "asm.pair_defect",
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a module function or class method."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if outer else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def _timed(self, name, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
            return
        # a function: replace it in every specmul namespace that imported it
        for mod in _specmul_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self) -> int:
        """Wrap every target; return the number of names patched."""
        self.spans.clear()
        self.counts.clear()
        for module, path, name, after in SPANS:
            owner, attr, original = _resolve(module, path)
            self._patch(owner, attr, original, self._timed(name, original, after))
        for module, path, name in COUNTS:
            owner, attr, original = _resolve(module, path)
            self._patch(owner, attr, original, self._counted(name, original))
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, wall: float, output_bytes: int) -> tuple:
        """Per-layer metrics of the one call recorded, and the share of
        ``wall`` (the call's wall time measured outside the spans) that the
        self times of all spans fail to account for.  Those self times sum to
        the root span's inclusive time, so the share grows only with spans
        recorded outside the call and wrapper cost outside the root."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time = Counter()
        inclusive = Counter()
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name] += end - start - covered[i]
            # recursive calls (matmul of blocks, spectra of blocks) count once
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                inclusive[name] += end - start
                calls[name] += 1

        out = {k: inclusive[v] for k, v in _INCLUSIVE.items()}
        out.update({k: calls[v] for k, v in _CALLS.items()})
        for key in ("groups.elements", "groups.cayley_bytes",
                    "linalg.dense_fallbacks", "circle.point_muls",
                    "circle.points_created"):
            out[key] = self.counts[key]
        out["cli.main_s"] = inclusive["cli.main"]
        out["cli.self_s"] = self_time["cli.main"]
        out["cli.output_bytes"] = output_bytes
        out["asm.self_s"] = self_time["asm.measure"]
        return out, abs(sum(self_time.values()) - wall) / wall


def _specmul_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "specmul" or name.startswith("specmul.")]


def median_metrics(rows: list) -> dict:
    """Median of each metric over the traced calls."""
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
