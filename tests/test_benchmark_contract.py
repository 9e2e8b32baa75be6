"""The benchmark harness in perfbench/ reaches into bsroots by name; every such name exists.

`perfbench/tracer.py` wraps the functions and methods its TARGETS list, and
`perfbench/record.py` imports names from the package and subclasses
`RegularJumpEngine`.  A rename in `src/bsroots` that misses one of them breaks
the benchmark while every other test passes, so both files are loaded here
(read, never changed) and their names resolved against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from bsroots import rings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, stem: str):
    """Execute perfbench/<stem>.py as a fresh module, undone when the test ends."""
    name = f"perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # record.py prepends src/
    spec.loader.exec_module(module)
    return module


def _owners(module, path: str) -> list:
    """What the tracer patches for `path`: a `*` owner is every class that defines the name."""
    owner_name, _, attr = path.rpartition(".")
    if owner_name == "*":
        return [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and attr in vars(cls)
        ]
    owner = getattr(module, owner_name, None) if owner_name else module
    return [owner] if owner is not None and attr in vars(owner) else []


def test_every_tracer_target_resolves(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    missing = [
        f"{metric}: bsroots.{module_name}.{path}"
        for metric, module_name, path in tracer.TARGETS
        if not _owners(importlib.import_module(f"bsroots.{module_name}"), path)
    ]
    assert missing == []


def test_record_imports_and_subclasses_the_package(monkeypatch):
    record = _load(monkeypatch, "record")
    for name in ("poly_root_coefficients", "_detect_limit", "cartier_threshold"):
        assert callable(getattr(record, name)), name
    assert issubclass(record.RawRootEngine, rings.RegularJumpEngine)


def test_record_routes_run_on_exponent_tuples(monkeypatch):
    # record.py reads `terms`, `leading_monomial()` and `monomial_key` as
    # exponent tuples, builds polynomials from tuple dicts and compares
    # canonical labels of its own ideals.
    record = _load(monkeypatch, "record")
    pres = rings.PolynomialRingPresentation(5, ("x", "y"))
    a = pres.parse_ideal("x^2+y^3, x*y")
    assert record.RawRootEngine(a).jump_set(1) == rings.RegularJumpEngine(a).jump_set(1)
    nu = record.raw_nu(
        ["nu", "--ring", "poly p=5 vars=x", "--ideal", "x", "--cideal", "x^3", "--levels", "2"]
    )
    assert nu == {1: 3 * 5 - 1, 2: 3 * 25 - 1}
