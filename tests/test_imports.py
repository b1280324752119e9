"""Every import in the package's modules is used or exported, every
private definition and every parameter is read, and one module decides what
malformed input is.

A name a module imports must appear in its code (a string annotation
counts) or in its ``__all__``; otherwise the import is dead.  A private
function, class or method must be read somewhere in the package outside
its own definition; a helper kept only for tests belongs in ``tests/``.
Which exceptions of a JSON reader mean malformed input is decided once, by
``errors._loading``; no other module catches them itself.  Every module's
``__all__`` is the recorded public API.  The modules are read as syntax
trees, so nothing is imported or executed.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specmul"


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _with_string_annotations(tree: ast.AST) -> list:
    """``tree`` and the parsed string annotations inside it."""
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return trees


def _used(tree: ast.Module) -> set:
    """Names the code reads, with those inside string annotations."""
    return {node.id for t in _with_string_annotations(tree) for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            return set(ast.literal_eval(node.value))
    return set()


MODULES = sorted(PACKAGE.glob("*.py"))


def test_modules_found():
    assert {"asm.py", "groups.py", "linalg.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree) | _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST) -> Counter:
    """How often each name is read: as a name, an attribute or an import."""
    refs = Counter()
    for t in _with_string_annotations(tree):
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
    return refs


def _private_defs(tree: ast.Module) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, _DEFS)
            and node.name.startswith("_") and not node.name.endswith("__")]


def test_no_dead_private_code():
    trees = {m.name: ast.parse(m.read_text(encoding="utf-8")) for m in MODULES}
    refs = sum((_references(t) for t in trees.values()), Counter())
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in trees.items() for node in _private_defs(tree)
            # reads inside its own body (recursion) do not keep it alive
            if refs[node.name] <= _references(node)[node.name]]
    assert not dead, f"private definitions never read: {dead}"


def _unread_parameters(tree: ast.Module):
    """``line name(parameter)`` of each parameter of a function or method,
    ``self`` and ``cls`` aside, that its body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            yield from (f"{node.lineno} {node.name}({name})" for name in params
                        if name not in ("self", "cls") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    """A parameter the body never reads is a knob that does nothing."""
    unread = list(_unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    assert not unread, f"{path.name}: parameters never read {unread}"


# The sorted ``__all__`` of every module that defines one: the public API.
# A change here is a change of the API, made on purpose and recorded.
PUBLIC_API = {
    "__init__.py": [
        "AsmReport", "BlockDiag", "ClosureRefusedError",
        "ConvergenceFailureError", "DEFAULT_ANGLE_TOL", "DEFAULT_BUDGET",
        "Dense", "DeterminantNotOneError", "Diagonal",
        "DimensionMismatchError", "GroupClosure", "Histogram",
        "IncompleteClosureError", "InvalidParamsError", "MillerMorenoParams",
        "MmGapReport", "MonomialCycle", "NonUnitaryError", "ONE", "PairDefect",
        "PrimeMismatchError", "QSetParams", "QSetResult", "RationalAngle",
        "SpecmulError", "Spectrum", "SrElement", "SrParams", "TadpoleParams",
        "UMatrix", "UnitPoint", "ZeroSpectralRadiusError",
        "adversarial_case4_pair", "arg_distance", "block_diag", "centre",
        "chord_distance", "close", "closure_from_json", "closure_to_json",
        "conversion_check", "cycle_matrix", "default_miller_moreno",
        "eigensolve_dense", "general_spectrum", "identity_like",
        "is_irreducible", "is_prime", "match_spectra", "matmul",
        "matrix_from_json", "matrix_to_json", "measure_asm",
        "measure_asm_sampled", "measure_sub", "miller_moreno",
        "mm_gap_analysis", "monomial_cycle", "nearest_root_of_unity",
        "pair_defect", "pair_sub_defect", "points_equal", "primes_up_to",
        "q_set", "quotient_order_mod_centre", "random_det1_diagonal",
        "sample_tadpole", "spectral_radius", "spectrum_dck", "sr_pair_gamma",
        "sr_ratio_bound", "sr_sample", "sr_sampler", "tadpole", "tadpole_case",
        "tadpole_identity", "tadpole_inverse", "tadpole_mul", "tadpole_sampler",
    ],
    "asm.py": [
        "AsmReport", "Histogram", "PairDefect", "conversion_check",
        "measure_asm", "measure_asm_sampled", "measure_sub", "pair_defect",
        "pair_sub_defect",
    ],
    "circle.py": [
        "DEFAULT_ANGLE_TOL", "ONE", "RationalAngle", "UnitPoint",
        "arg_distance", "chord_distance", "nearest_root_of_unity",
        "points_equal",
    ],
    "constructions.py": [
        "MillerMorenoParams", "MmGapReport", "QSetParams", "QSetResult",
        "SrElement", "SrParams", "TadpoleParams", "adversarial_case4_pair",
        "cycle_matrix", "default_miller_moreno", "is_prime", "miller_moreno",
        "mm_gap_analysis", "primes_up_to", "q_set", "random_det1_diagonal",
        "sample_tadpole", "spectrum_dck", "sr_pair_gamma", "sr_ratio_bound",
        "sr_sample", "sr_sampler", "tadpole", "tadpole_case",
        "tadpole_identity", "tadpole_inverse", "tadpole_mul", "tadpole_sampler",
    ],
    "groups.py": [
        "GroupClosure", "centre", "close", "closure_from_json",
        "closure_to_json", "is_irreducible", "quotient_order_mod_centre",
    ],
    "linalg.py": [
        "BlockDiag", "Dense", "Diagonal", "KEY_TOL", "MODULUS_TOL",
        "MonomialCycle", "Spectrum", "UMatrix", "UNITARITY_TOL", "block_diag",
        "eigensolve_dense", "general_spectrum", "identity_like",
        "match_spectra", "matmul", "matrix_from_json", "matrix_to_json",
        "monomial_cycle", "spectral_radius",
    ],
}


def test_public_api_is_pinned():
    """Every module's ``__all__`` is the one recorded in ``PUBLIC_API``."""
    api = {m.name: sorted(names) for m in MODULES
           if (names := _exported(ast.parse(m.read_text(encoding="utf-8"))))}
    assert api == PUBLIC_API


# What a reader raises on malformed input; only errors.py turns these into
# ``MalformedJsonError``.
READER_ERRORS = {"KeyError", "TypeError", "OverflowError", "ZeroDivisionError"}
POLICY_MODULE = "errors.py"


def _caught(handler: ast.ExceptHandler) -> set:
    """The exception names an ``except`` clause lists (a bare one lists none)."""
    if handler.type is None:
        return set()
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(handler.type)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_reader_errors_are_caught_only_in_errors():
    stray = [f"{m.name}:{node.lineno} catches {sorted(_caught(node) & READER_ERRORS)}"
             for m in MODULES if m.name != POLICY_MODULE
             for node in ast.walk(ast.parse(m.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler) and _caught(node) & READER_ERRORS]
    assert not stray, f"malformed-input policy outside {POLICY_MODULE}: {stray}"


def test_the_policy_module_catches_them():
    tree = ast.parse((PACKAGE / POLICY_MODULE).read_text(encoding="utf-8"))
    caught = set().union(*(_caught(node) for node in ast.walk(tree)
                           if isinstance(node, ast.ExceptHandler)))
    assert READER_ERRORS | {"RecursionError", "ValueError"} <= caught
