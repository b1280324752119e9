"""Command-line front end.

One binary, five subcommands:

* ``measure``  — defect measurement of a builtin family or a generator file
* ``qset``     — admissible prime enumeration for a level below 1/(2p)
* ``verify``   — named property suites with a pass/fail verdict
* ``plotdata`` — unit-circle point sets of a saved report, as CSV
* ``build``    — emit a construction's matrices as JSON

Exit codes: 0 success, 1 usage or configuration error, 2 a requested
assertion or verified property failed (the evidence is still printed).

JSON output wraps the payload as ``{"config": ..., "report": ...}`` plus a
``generated_at`` timestamp that ``--deterministic`` suppresses; with a fixed
seed the deterministic output is byte-identical across runs and worker
counts.  Rational quantities appear both as ``"num/den"`` strings and as
decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from .asm import (
    AsmReport,
    DEFAULT_BINS,
    _arc_defects,
    _chord_defects,
    _eig_from_json,
    conversion_check,
    measure_asm,
    measure_asm_sampled,
    measure_sub,
)
from .circle import (
    ONE,
    UnitPoint,
    _frac_str,
    _point_to_json,
    arg_distance,
    chord_distance,
)
from .constructions import (
    QSetParams,
    SrParams,
    TadpoleParams,
    _cmul,
    _tadpole_cases,
    adversarial_case4_pair,
    cycle_matrix,
    default_miller_moreno,
    is_prime,
    miller_moreno,
    mm_gap_analysis,
    q_set,
    random_det1_diagonal,
    spectrum_dck,
    sr_ratio_bound,
    sr_sampler,
    tadpole,
    tadpole_identity,
    tadpole_mul,
    tadpole_sampler,
)
from .errors import MalformedJsonError, SpecmulError, _loading, _typed
from .groups import DEFAULT_BUDGET, close
from .linalg import (
    Diagonal,
    MonomialCycle,
    general_spectrum,
    match_spectra,
    matrix_from_json,
    matrix_to_json,
)

BUILTINS = ("q8", "cyclic", "tadpole", "miller-moreno", "sr")
VERIFY_CHECKS = ("lemma-spectrum", "tadpole-closure", "tadpole-bound",
                 "mm-gap", "sr-bound", "conversions")
BUILD_TARGETS = ("q8", "cyclic", "tadpole-pair", "miller-moreno")

# qset scans every prime up to the cutoff; past this it needs an explicit cap
CUTOFF_GUARD = 5000

# verify lemma-spectrum eigensolves p dense p x p matrices a trial, so a run
# costs about trials * p^4; runs at this bound take about 30 s (2 vCPUs):
# 26.7 s at p = 53 and the default 100 trials, 32.4 s at p = 101 and 7
LEMMA_WORK_MAX = 8 * 10**8


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; our contract reserves 2 for
    property violations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_workers() -> int:
    env = os.environ.get("SPECMUL_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _fraction_or_float(s: str):
    """A finite level: a fraction ``num/den``, kept exact, or a decimal."""
    num, slash, den = s.partition("/")
    try:
        if slash and int(den) == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {s!r}")
        level = Fraction(s) if slash else float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction num/den or a decimal, not {s!r}") from None
    if not math.isfinite(level):
        raise argparse.ArgumentTypeError(f"expected a finite level, not {s!r}")
    return level


def _count(s: str, least: int = 0) -> int:
    """A number of trials, pairs, samples or workers, written in decimal
    digits, at least ``least``."""
    if not s.isdecimal() or int(s) < least:
        raise argparse.ArgumentTypeError(
            f"expected a count of {least} or more, not {s!r}")
    return int(s)


def _sig12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# output plumbing

def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "out", "format") or v is None or callable(v):
            continue
        if isinstance(v, Fraction):
            v = _frac_str(v)
        cfg[k] = v
    return cfg


def _write_text(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, payload: Optional[dict],
          human: Optional[str] = None,
          csv_text: Optional[str] = None) -> None:
    """Write the rendering ``--format`` asks for; ``payload`` may be None
    when that format's own text is given."""
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        wrapper = {"config": _config_dict(args), "report": payload}
        if not args.deterministic:
            wrapper["generated_at"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        _write_text(args, json.dumps(wrapper, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        if csv_text is None:
            raise SpecmulError(
                "this command has no CSV rendering; use --format json")
        _write_text(args, csv_text)
    else:
        _write_text(args, (human if human is not None
                           else json.dumps(payload, sort_keys=True, indent=2)) + "\n")


def _human_report(rep: AsmReport) -> str:
    lines = [f"kind: {rep.kind} ({rep.mode}, {rep.bound} bound)"]
    if rep.epsilon_exact is not None:
        f = rep.epsilon_exact
        lines.append(f"epsilon_star: {_frac_str(f)}"
                     f" (= {_sig12(float(f))}, exact)")
    else:
        lines.append(f"epsilon_star: {_sig12(rep.epsilon)}")
    if rep.group_order is not None:
        lines.append(f"group order: {rep.group_order}")
    lines.append(f"pairs: {rep.pair_total}")
    if rep.seed is not None:
        lines.append(f"seed: {rep.seed}")
    if rep.gamma_convention:
        lines.append(f"gamma convention: {rep.gamma_convention} eigenvalues")
    if rep.worst is not None:
        lines.append(f"worst pair: {list(rep.worst.pair)}")
    return "\n".join(lines)


def _report_csv(rep: AsmReport) -> str:
    lines = ["i,j,defect"]
    for i, j, d in rep.pair_rows or ():
        lines.append(f"{i},{j},{d!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# measure

def _q8_generators():
    i_mat = Diagonal((UnitPoint.exact(1, 4), UnitPoint.exact(3, 4)))
    j_mat = MonomialCycle((ONE, UnitPoint.exact(1, 2)), 1)
    return [i_mat, j_mat]


def cmd_measure(args: argparse.Namespace) -> int:
    workers, bins = args.workers, args.bins
    collect = args.collect_pairs or args.format == "csv"
    if args.builtin == "tadpole":
        if args.pairs is None:
            raise SpecmulError(
                "the tadpole family is continuous; give --pairs to sample")
        sampler = tadpole_sampler(args.p, exact=args.exact)
        report = measure_asm_sampled(sampler, args.pairs, args.seed,
                                     workers=workers, bins=bins,
                                     collect_pairs=collect)
    elif args.builtin == "sr":
        if args.pairs is None:
            raise SpecmulError(
                "the rank-one semigroup is continuous; give --pairs to sample")
        sampler = sr_sampler(SrParams(args.r, args.dim))
        report = measure_sub(sampler, pair_count=args.pairs, seed=args.seed,
                             workers=workers, bins=bins, collect_pairs=collect)
    else:  # a finite group: close it and scan every pair
        if args.pairs is not None:
            raise SpecmulError("--pairs applies to sampled builtins only")
        if args.spec:
            with open(args.spec, encoding="utf-8") as fh, _loading(args.spec):
                gens = [matrix_from_json(g)
                        for g in _typed(json.load(fh), "generators", list)]
        elif args.builtin == "q8":
            gens = _q8_generators()
        elif args.builtin == "cyclic":
            gens = [cycle_matrix(args.p)]
        else:  # miller-moreno
            gens = miller_moreno(default_miller_moreno(args.p, args.q))
        closure = close(gens, max_elements=args.max_elements)
        report = measure_asm(closure, bins=bins, collect_pairs=collect)

    # only the rendering asked for: with every pair each one is megabytes
    fmt = args.format
    _emit(args, report.to_json_dict() if fmt == "json" else None,
          human=_human_report(report) if fmt == "human" else None,
          csv_text=_report_csv(report) if fmt == "csv" else None)
    if args.assert_le is not None:
        level = report.epsilon
        threshold = args.assert_le
        if isinstance(threshold, Fraction) and report.epsilon_exact is not None:
            ok = report.epsilon_exact <= threshold
        else:
            ok = level <= float(threshold)
        if not ok:
            print(f"assertion failed: epsilon_star = {_sig12(level)} "
                  f"> {threshold}", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# qset

def cmd_qset(args: argparse.Namespace) -> int:
    eps = args.eps if isinstance(args.eps, Fraction) else Fraction(repr(args.eps))
    params = QSetParams(args.p, eps)
    if params.cutoff > CUTOFF_GUARD:
        print(f"warning: cutoff 1/(2 delta) = {params.cutoff} is large; "
              f"the scan is capped at --q-max", file=sys.stderr)
        if args.q_max is None:
            print("error: give an explicit --q-max for a level this close "
                  "to 1/(2p)", file=sys.stderr)
            return 1
    result = q_set(params, q_max=args.q_max)
    payload = result.to_json_dict()

    csv_lines = ["q,member,witness"]
    for q, ok, w in result.verdicts:
        ws = "" if w is None else _frac_str(w)
        csv_lines.append(f"{q},{int(ok)},{ws}")
    human = [
        f"p = {params.p}, epsilon = {_frac_str(eps)}"
        f" (= {_sig12(float(eps))})",
        f"delta = {_frac_str(params.delta)},"
        f" cutoff = {params.cutoff}",
        f"members: {list(result.members)}",
    ]
    _emit(args, payload, human="\n".join(human),
          csv_text="\n".join(csv_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify

# Pairs drawn per batch by ``verify tadpole-bound`` and ``sr-bound``: the
# blocks bound memory and read one rng stream in turn, each as one batch,
# so the draws depend on the block size.
VERIFY_BLOCK = 4096


def _verify_lemma_spectrum(args) -> tuple[bool, dict]:
    p = args.p
    if args.trials * p**4 > LEMMA_WORK_MAX:
        raise SpecmulError(
            f"lemma-spectrum checks trials * p^4 up to {LEMMA_WORK_MAX}")
    if not is_prime(p):
        raise SpecmulError("p must be prime")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    bad = None
    for t in range(args.trials):
        d = random_det1_diagonal(p, rng, exact=(t % 2 == 0))
        for k in range(p):
            closed = spectrum_dck(d, k, p)
            m = MonomialCycle(d, k).to_dense()
            eig = np.angle(general_spectrum(m)) / (2.0 * math.pi) % 1.0
            mism = match_spectra(closed.angles(), eig)
            worst = max(worst, mism)
            if mism > args.tol and bad is None:
                bad = {"k": k, "mismatch": mism,
                       "d": [_point_to_json(x) for x in d]}
    return bad is None, {
        "p": p, "trials": args.trials, "tol": args.tol,
        "max_mismatch": worst, "counterexample": bad,
    }


def _restricted_tadpole_generators(p: int) -> list[TadpoleParams]:
    xi = UnitPoint.exact(1, p * p)
    ones = (ONE,) * p
    zeros = (0,) * (p - 1)
    gens = [
        TadpoleParams(p, ones, 1, zeros),
        TadpoleParams(p, (xi, xi.conj()) + (ONE,) * (p - 2), 0, zeros),
    ]
    for j in range(p - 1):
        a = tuple(1 if i == j else 0 for i in range(p - 1))
        gens.append(TadpoleParams(p, ones, 0, a))
    return gens


def _param_key(t: TadpoleParams):
    return (tuple((x.angle.num, x.angle.den) for x in t.d), t.k, t.a)


def _param_closure_count(gens: list[TadpoleParams], budget: int) -> int:
    """Breadth-first closure in parameter space; the oracle for the matrix
    closure's order."""
    ident = tadpole_identity(gens[0].p)
    seen = {_param_key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tadpole_mul(e, g)
                k = _param_key(h)
                if k not in seen:
                    seen.add(k)
                    nxt.append(h)
                    if len(seen) > budget:
                        raise SpecmulError("parameter closure exceeds budget")
        frontier = nxt
    return len(seen)


def _verify_tadpole_closure(args) -> tuple[bool, dict]:
    p = args.p
    if not is_prime(p):
        raise SpecmulError("p must be prime")
    # the restricted group has p^(3p-2) elements; beyond p=3 it busts any
    # sensible budget.  p^k >= 2^k exceeds the budget once k passes its bit
    # length, so the power is never built past that
    if p ** min(3 * p - 2, args.max_elements.bit_length()) > args.max_elements:
        raise SpecmulError(
            f"restricted closure would have {p}^{3 * p - 2} elements; "
            f"over the --max-elements budget")
    pgens = _restricted_tadpole_generators(p)
    closure = close([tadpole(g) for g in pgens], max_elements=args.max_elements)
    if not closure.complete:
        raise SpecmulError("closure hit the element budget; raise --max-elements")
    oracle = _param_closure_count(pgens, args.max_elements)
    inv = closure.inverses()
    inv_ok = bool(np.array_equal(inv[inv], np.arange(closure.order)))
    ok = closure.complete and closure.order == oracle and inv_ok
    return ok, {
        "p": p,
        "order": closure.order,
        "parameter_count": oracle,
        "complete": closure.complete,
        "inverses_present": inv_ok,
    }


def _verify_tadpole_bound(args) -> tuple[bool, dict]:
    p = args.p
    bound = Fraction(1, 2 * p * p)
    rng = np.random.default_rng(args.seed)
    max_defect = 0.0
    bad = None
    float_tol = float(bound) + args.tol
    for lo in range(0, args.pairs, VERIFY_BLOCK):
        drawn = tadpole_sampler(p).batch(rng, min(VERIFY_BLOCK, args.pairs - lo))
        vals = _arc_defects(*drawn.spectra())
        max_defect = max(max_defect, float(vals.max()))
        hits = np.flatnonzero(vals > float_tol)
        if hits.size and bad is None:
            t = int(hits[0])
            bad = {"defect": float(vals[t]), "a": drawn.params(t, 0).to_json_dict(),
                   "b": drawn.params(t, 1).to_json_dict()}
    # case 4 (diagonal product of non-diagonal factors) may reach the bound,
    # every other case has defect 0
    exact_pairs = min(args.pairs, 2000)
    drawn = tadpole_sampler(p, exact=True).batch(rng, exact_pairs)
    nums = _arc_defects(*drawn.spectra(), drawn.scale)
    cases = _tadpole_cases(*drawn.k.T, p)
    fails = np.flatnonzero(np.where(cases == 4, nums > int(bound * drawn.scale),
                                    nums != 0))
    if fails.size and bad is None:
        t = int(fails[0])
        bad = {"case": int(cases[t]),
               "defect": _frac_str(Fraction(int(nums[t]), drawn.scale)),
               "a": drawn.params(t, 0).to_json_dict(),
               "b": drawn.params(t, 1).to_json_dict()}
    return bad is None, {
        "p": p,
        "bound": _frac_str(bound),
        "sampled_pairs": args.pairs,
        "max_defect": max_defect,
        "exact_pairs": exact_pairs,
        "exact_cases": {str(c): int((cases == c).sum()) for c in (1, 2, 3, 4)},
        "counterexample": bad,
    }


def _verify_mm_gap(args) -> tuple[bool, dict]:
    rep = mm_gap_analysis(default_miller_moreno(args.p, args.q))
    count_ok = rep.distinct_products <= rep.product_bound
    chain_ok = rep.root_distance >= rep.root_distance_lower_bound
    evidence = rep.to_json_dict()
    evidence["count_ok"] = count_ok
    evidence["root_distance_ok"] = chain_ok
    return count_ok and chain_ok, evidence


def _verify_sr_bound(args) -> tuple[bool, dict]:
    sampler = sr_sampler(SrParams(args.r, args.dim))
    bound = sr_ratio_bound(args.r)
    rng = np.random.default_rng(args.seed)
    cross_checks = min(args.samples, 500)
    max_ratio = 0.0
    max_cross = 0.0
    bad = None
    for lo in range(0, args.samples, VERIFY_BLOCK):
        count = min(VERIFY_BLOCK, args.samples - lo)
        drawn = sampler.batch(rng, count)
        alpha, beta, gamma = drawn.eigenvalues()
        chord = _chord_defects(alpha, beta, gamma)
        quot = gamma / _cmul(alpha, beta)
        ratio = np.hypot(quot.real - 1.0, quot.imag)
        max_ratio = max(max_ratio, float(ratio.max()))
        split = np.abs(chord - ratio) > 1e-10
        hits = np.flatnonzero(split | (ratio > bound))
        if hits.size and bad is None:
            t = int(hits[0])
            bad = ({"chord": float(chord[t]), "ratio": float(ratio[t]), "sample": lo + t}
                   if split[t] else
                   {"ratio": float(ratio[t]), "bound": bound, "sample": lo + t})
        for t in range(min(count, cross_checks - lo)):
            a, b = drawn.pair(t)
            eigs = general_spectrum(a.matrix() @ b.matrix())
            dense_gamma = eigs[int(np.argmax(np.abs(eigs)))]
            max_cross = max(max_cross, float(abs(dense_gamma - gamma[t])))
    ok = bad is None and max_ratio <= bound and max_cross <= 1e-8
    return ok, {
        "r": args.r,
        "samples": args.samples,
        "bound": bound,
        "max_ratio": max_ratio,
        "dense_cross_checks": cross_checks,
        "max_dense_gap": max_cross,
        "counterexample": bad,
    }


def _verify_conversions(args) -> tuple[bool, dict]:
    rng = np.random.default_rng(args.seed)
    pts = [UnitPoint.exact(t, 60) for t in range(60)]
    pairs = [(a, b) for a in pts for b in pts]
    sampled = rng.random((args.trials, 2))
    pairs.extend(
        (UnitPoint.approx(float(u)), UnitPoint.approx(float(v)))
        for u, v in sampled)
    worst_lo = 0.0
    worst_hi = 0.0
    bad = None
    for a, b in pairs:
        chord = chord_distance(a, b)
        mid = 2.0 * math.pi * float(arg_distance(a, b))
        hi = math.pi * chord
        worst_lo = max(worst_lo, chord - mid)
        worst_hi = max(worst_hi, mid - hi)
        if (chord > mid + 1e-12 or mid > hi + 1e-12) and bad is None:
            bad = {"a": a.turns, "b": b.turns, "chord": chord, "two_pi_arg": mid}
    sub_b, asm_b = conversion_check(Fraction(1, 18))
    return bad is None, {
        "pairs": len(pairs),
        "max_lower_slack": worst_lo,
        "max_upper_slack": worst_hi,
        "example_level": "1/18",
        "implied_sub_level": sub_b,
        "implied_asm_level": _frac_str(asm_b),
        "counterexample": bad,
    }


# The count each sampling check draws; at 0 it would check nothing.
# ``conversions`` still checks its exact grid at ``--trials 0``.
_VERIFY_COUNTS = {"lemma-spectrum": "trials", "tadpole-bound": "pairs",
                  "sr-bound": "samples"}

_VERIFY_TABLE = {
    "lemma-spectrum": _verify_lemma_spectrum,
    "tadpole-closure": _verify_tadpole_closure,
    "tadpole-bound": _verify_tadpole_bound,
    "mm-gap": _verify_mm_gap,
    "sr-bound": _verify_sr_bound,
    "conversions": _verify_conversions,
}


def cmd_verify(args: argparse.Namespace) -> int:
    count = _VERIFY_COUNTS.get(args.check)
    if count and not getattr(args, count):
        raise SpecmulError(f"--{count} 0 leaves {args.check} nothing to check")
    ok, evidence = _VERIFY_TABLE[args.check](args)
    payload = {"check": args.check, "pass": ok, "evidence": evidence}
    human = [f"{args.check}: {'pass' if ok else 'FAIL'}"]
    for k, v in evidence.items():
        if k != "counterexample" or v is not None:
            human.append(f"  {k}: {v}")
    _emit(args, payload, human="\n".join(human))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# plotdata

def _angle_row(p: dict) -> tuple[float, int]:
    with _loading(f"eigenvalue {p!r}"):
        z = _eig_from_json(p)
    if isinstance(z, complex):
        return UnitPoint.from_complex(z).turns, 0
    return z.turns, int(z.is_exact)


def _report_part(parent: dict, key: str, kind: type, default):
    """``parent[key]`` if it is a ``kind``, ``default`` if absent or null."""
    return default if parent.get(key) is None else _typed(parent, key, kind)


def cmd_plotdata(args: argparse.Namespace) -> int:
    with open(args.report, encoding="utf-8") as fh, _loading(args.report):
        data = json.load(fh)
        if not isinstance(data, dict):
            raise MalformedJsonError(f"{args.report}: expected a JSON object")
        if isinstance(data.get("report"), dict):
            data = data["report"]
        worst = _report_part(data, "worst", dict, {})
        spectra = _report_part(worst, "spectra", dict, {})
        sa, sb, sab = (_report_part(spectra, k, list, []) for k in ("a", "b", "ab"))
        witness = _report_part(worst, "witness", dict, {})
    lines = ["set_name,angle,exact"]
    for name, pts in (("sigma_a", sa), ("sigma_b", sb), ("sigma_ab", sab)):
        for p in pts:
            ang, ex = _angle_row(p)
            lines.append(f"{name},{_sig12(ang)},{ex}")
    prods = set()
    for pa in sa:
        for pb in sb:
            (ta, ea), (tb, eb) = _angle_row(pa), _angle_row(pb)
            prods.add((round((ta + tb) % 1.0, 12), ea and eb))
    for ang, ex in sorted(prods):
        lines.append(f"product,{_sig12(ang)},{int(ex)}")
    for name in ("gamma", "alpha", "beta"):
        p = witness.get(name)
        if p is not None:
            ang, ex = _angle_row(p)
            lines.append(f"witness_{name},{_sig12(ang)},{ex}")
    _write_text(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# build

def cmd_build(args: argparse.Namespace) -> int:
    if args.what == "q8":
        gens = _q8_generators()
        payload = {"construction": "q8",
                   "generators": [matrix_to_json(g) for g in gens]}
    elif args.what == "cyclic":
        payload = {"construction": "cyclic", "p": args.p,
                   "generators": [matrix_to_json(cycle_matrix(args.p))]}
    elif args.what == "tadpole-pair":
        pa, pb = adversarial_case4_pair(args.p, k=args.k)
        payload = {
            "construction": "tadpole-pair",
            "p": args.p,
            "k": args.k,
            "params": {"a": pa.to_json_dict(), "b": pb.to_json_dict()},
            "generators": [matrix_to_json(tadpole(pa)),
                           matrix_to_json(tadpole(pb))],
        }
    else:  # miller-moreno
        params = default_miller_moreno(args.p, args.q)
        x, y = miller_moreno(params)
        payload = {
            "construction": "miller-moreno",
            "p": args.p,
            "q": args.q,
            "n": params.n,
            "theta_exponents": [list(r) for r in params.theta_exponents],
            "generators": [matrix_to_json(x), matrix_to_json(y)],
        }
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_output_opts(p: argparse.ArgumentParser, formats=("json", "csv", "human")):
    p.add_argument("--format", choices=formats, default="json",
                   help="output rendering (default json)")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specmul",
                     description="spectral submultiplicativity measurements")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    m = sub.add_parser("measure", help="measure a family's defect level")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTINS)
    src.add_argument("--spec", metavar="FILE",
                     help="JSON file with a \"generators\" list")
    m.add_argument("--p", type=int, default=3)
    m.add_argument("--q", type=int, default=7)
    m.add_argument("--r", type=float, default=0.5)
    m.add_argument("--dim", type=int, default=4,
                   help="matrix dimension for the rank-one family")
    m.add_argument("--pairs", type=int, help="sample this many pairs")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--exact", action="store_true",
                   help="sample tadpole angles on the exact grid")
    m.add_argument("--max-elements", type=int, default=DEFAULT_BUDGET)
    m.add_argument("--workers", type=lambda s: _count(s, least=1),
                   default=_default_workers(),
                   help="process count of sampled runs only; exhaustive "
                        "runs use one process")
    m.add_argument("--bins", type=lambda s: _count(s, least=1),
                   default=DEFAULT_BINS)
    m.add_argument("--collect-pairs", action="store_true",
                   help="include every pair's defect in the report")
    m.add_argument("--assert-le", type=_fraction_or_float, metavar="EPS",
                   help="exit 2 unless epsilon_star <= EPS")
    _add_output_opts(m)
    m.set_defaults(func=cmd_measure)

    qs = sub.add_parser("qset", help="enumerate admissible primes")
    qs.add_argument("--p", type=int, required=True)
    qs.add_argument("--eps", type=_fraction_or_float, required=True,
                    help="level as a fraction like 1/8 (preferred) or decimal")
    qs.add_argument("--q-max", type=int)
    _add_output_opts(qs)
    qs.set_defaults(func=cmd_qset)

    v = sub.add_parser("verify", help="run a named property suite")
    v.add_argument("check", choices=VERIFY_CHECKS)
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--q", type=int, default=7)
    v.add_argument("--r", type=float, default=0.5)
    v.add_argument("--dim", type=int, default=4)
    v.add_argument("--trials", type=_count, default=100)
    v.add_argument("--pairs", type=_count, default=10000)
    v.add_argument("--samples", type=_count, default=100000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--max-elements", type=int, default=DEFAULT_BUDGET)
    _add_output_opts(v, formats=("json", "human"))
    v.set_defaults(func=cmd_verify)

    pd = sub.add_parser("plotdata", help="report JSON -> unit-circle CSV")
    pd.add_argument("report", help="a report file written by measure")
    pd.add_argument("--out", metavar="FILE")
    pd.set_defaults(func=cmd_plotdata)

    b = sub.add_parser("build", help="emit a construction's matrices as JSON")
    b.add_argument("what", choices=BUILD_TARGETS)
    b.add_argument("--p", type=int, default=3)
    b.add_argument("--q", type=int, default=7)
    b.add_argument("--k", type=int, default=1)
    _add_output_opts(b, formats=("json", "human"))
    b.set_defaults(func=cmd_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpecmulError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
