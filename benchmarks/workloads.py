"""The benchmark's workloads: inputs made from a seed, argv, and the checks.

Each workload is one ``specmul measure`` invocation.  The program sees only
the argv built here and, for ``dense-exhaustive``, a generator file written
here; everything random is drawn from the benchmark seed.  The checks use
facts that hold for every seed (closed forms from the paper, and the worst
pair re-derived through the public single-pair functions), so a failed check
means a wrong result, never an unlucky input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# Worker count of the timed calls: the CLI default on a 2-core machine.
WORKERS = 2

# How far a float result may sit from its closed form or its re-derivation.
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    full: dict
    smoke: dict
    argv: Callable[[dict, int, Path], list]
    check: Callable[[dict, dict], list]

    def pair_total(self, size: dict) -> int:
        if "pairs" in size:
            return size["pairs"]
        return (size["p"] * size["q"]) ** 2


def _sampling_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(0, 2**31 - 1))


def _mm_level(size: dict) -> Fraction:
    """(q-1)/(2pq): the level of the default Miller-Moreno group."""
    p, q = size["p"], size["q"]
    return Fraction(q - 1, 2 * p * q)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL


def _reproduce_asm(report: dict) -> list:
    """Re-derive the worst pair through the public ``pair_defect``."""
    from specmul.asm import pair_defect
    from specmul.linalg import matrix_from_json

    worst = report["worst"]
    a = matrix_from_json(worst["matrix_a"])
    b = matrix_from_json(worst["matrix_b"])
    again = pair_defect(a, b, with_matrices=False)
    if report["epsilon_exact"] is not None:
        if again.defect_exact != Fraction(report["epsilon_exact"]):
            return [f"worst pair re-derives to {again.defect_exact}, "
                    f"report says {report['epsilon_exact']}"]
    elif not _close(again.defect, report["epsilon"]):
        return [f"worst pair re-derives to {again.defect!r}, "
                f"report says {report['epsilon']!r}"]
    return []


def _dense_entries(m: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in m["entries"]])


def _reproduce_sub(report: dict) -> list:
    """Re-derive the worst pair through the public ``pair_sub_defect``, on the
    dense matrices the report carries (the eigensolver, not the closed form)."""
    from specmul.asm import pair_sub_defect

    worst = report["worst"]
    again = pair_sub_defect(_dense_entries(worst["matrix_a"]),
                            _dense_entries(worst["matrix_b"]))
    if not _close(again.defect, report["epsilon"]):
        return [f"worst pair re-derives to {again.defect!r}, "
                f"report says {report['epsilon']!r}"]
    return []


def _expect(report: dict, key: str, value) -> list:
    if report[key] != value:
        return [f"{key} is {report[key]!r}, expected {value!r}"]
    return []


# ---------------------------------------------------------------------------
# mm-exhaustive

def _mm_argv(size: dict, seed: int, workdir: Path) -> list:
    # The instance is fixed: an exhaustive run of a builtin has no random input.
    return ["measure", "--builtin", "miller-moreno", "--p", str(size["p"]),
            "--q", str(size["q"]), "--deterministic"]


def _mm_check(size: dict, report: dict) -> list:
    n = size["p"] * size["q"]
    level = _mm_level(size)
    problems = _expect(report, "epsilon_exact",
                       f"{level.numerator}/{level.denominator}")
    problems += _expect(report, "pair_total", n * n)
    return problems + _reproduce_asm(report)


# ---------------------------------------------------------------------------
# dense-exhaustive

def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dense_argv(size: dict, seed: int, workdir: Path) -> list:
    """Write the Miller-Moreno generators, conjugated by a seeded random
    unitary into plain dense matrices, and point ``--spec`` at them."""
    from specmul.constructions import default_miller_moreno, miller_moreno
    from specmul.linalg import Dense

    gens = miller_moreno(default_miller_moreno(size["p"], size["q"]))
    u = _haar_unitary(np.random.default_rng(seed), gens[0].dim)
    spec = {"generators": [
        Dense(u @ g.to_dense() @ u.conj().T, unitary=True).to_json_dict()
        for g in gens]}
    path = workdir / f"dense-{size['p']}-{size['q']}-{seed}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return ["measure", "--spec", str(path), "--deterministic"]


def _dense_check(size: dict, report: dict) -> list:
    n = size["p"] * size["q"]
    problems = []
    # conjugation changes no spectrum, so the level is the structured one
    if not _close(report["epsilon"], float(_mm_level(size))):
        problems.append(f"epsilon {report['epsilon']!r} is not "
                        f"{_mm_level(size)} within {FLOAT_TOL}")
    problems += _expect(report, "group_order", n)
    problems += _expect(report, "pair_total", n * n)
    return problems + _reproduce_asm(report)


# ---------------------------------------------------------------------------
# tadpole-sampled

def _tadpole_argv(size: dict, seed: int, workdir: Path) -> list:
    return ["measure", "--builtin", "tadpole", "--p", str(size["p"]),
            "--pairs", str(size["pairs"]), "--seed", str(_sampling_seed(seed)),
            "--deterministic"]


def _tadpole_check(size: dict, report: dict) -> list:
    ceiling = 1.0 / (2 * size["p"] ** 2)
    problems = []
    if report["epsilon"] > ceiling + FLOAT_TOL:
        problems.append(f"epsilon {report['epsilon']!r} exceeds the tadpole "
                        f"ceiling 1/(2p^2) = {ceiling!r}")
    problems += _expect(report, "pair_total", size["pairs"])
    return problems + _reproduce_asm(report)


# ---------------------------------------------------------------------------
# sr-sampled

def _sr_argv(size: dict, seed: int, workdir: Path) -> list:
    return ["measure", "--builtin", "sr", "--r", repr(size["r"]),
            "--pairs", str(size["pairs"]), "--seed", str(_sampling_seed(seed)),
            "--deterministic"]


def _sr_check(size: dict, report: dict) -> list:
    r = size["r"]
    ceiling = 4 * r * r / (1 - r * r) ** 2
    problems = []
    if report["epsilon"] > ceiling:
        problems.append(f"epsilon {report['epsilon']!r} exceeds "
                        f"4r^2/(1-r^2)^2 = {ceiling!r}")
    problems += _expect(report, "pair_total", size["pairs"])
    return problems + _reproduce_sub(report)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mm-exhaustive",
        full={"p": 13, "q": 157},
        smoke={"p": 3, "q": 7},
        argv=_mm_argv,
        check=_mm_check,
    ),
    Workload(
        name="dense-exhaustive",
        full={"p": 7, "q": 43},
        smoke={"p": 3, "q": 7},
        argv=_dense_argv,
        check=_dense_check,
    ),
    Workload(
        name="tadpole-sampled",
        full={"p": 5, "pairs": 5000},
        smoke={"p": 5, "pairs": 64},
        argv=_tadpole_argv,
        check=_tadpole_check,
    ),
    Workload(
        name="sr-sampled",
        full={"r": 0.5, "pairs": 12000},
        smoke={"r": 0.5, "pairs": 64},
        argv=_sr_argv,
        check=_sr_check,
    ),
)}
