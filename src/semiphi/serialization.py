"""JSON interchange for every record kind.

Complex scalars are serialized as ``[re, im]`` pairs and matrices as
row-major nested arrays of those pairs; the formats are unambiguous and
language-neutral.  Problem files carry a schema version, a kind tag, the
payload, and optional tolerance overrides.  See docs/schemas.md.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

# Read at call time, so that a reader runs only the layer of its record kind.
from . import cpmaps, extension, modules
from .algebra import BlockAlgebra
from .numerics import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "SchemaError",
    "SCHEMA_VERSION",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "module_to_json",
    "module_from_json",
    "cp_map_to_json",
    "cp_map_from_json",
    "module_map_to_json",
    "module_map_from_json",
    "tolerance_from_json",
    "load_problem",
    "dump_report",
]

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    """A JSON document does not match its declared record kind."""


def matrix_to_json(m: np.ndarray) -> list:
    arr = np.asarray(m, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def matrix_from_json(data: Any, where: str = "matrix") -> np.ndarray:
    """Read a complex matrix written as rows of ``[re, im]`` pairs.

    Every entry must be exactly two numbers; ``[]`` is the 0x0 matrix and a
    list of empty rows an ``r x 0`` one.  Anything else (ragged rows, a
    string, ``null`` or an object in place of a number) raises
    :class:`SchemaError` naming ``where``.
    """
    bad = f"{where}: expected nested [re, im] pairs"
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged rows
        raise SchemaError(bad) from None
    if arr.dtype.kind not in "biuf":  # a string, null or object for a number
        raise SchemaError(bad)
    if arr.size == 0 and arr.ndim in (1, 2):
        return np.zeros(arr.shape if arr.ndim == 2 else (0, 0), dtype=complex)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError(bad)
    # The view pairs each (re, im) into one complex entry, bit for bit.
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _matrices_from_json(data: Any, where: str, shape: tuple[int, int] | None = None) -> tuple:
    """Read a list of matrices; an empty one becomes zeros of ``shape`` when
    that is given."""
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list of matrices")
    mats = [matrix_from_json(m, f"{where}[{i}]") for i, m in enumerate(data)]
    if shape is not None:
        mats = [m if m.size else np.zeros(shape, dtype=complex) for m in mats]
    return tuple(mats)


def algebra_to_json(a: BlockAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def algebra_from_json(data: Any, where: str = "algebra") -> BlockAlgebra:
    try:
        return BlockAlgebra(tuple(int(b) for b in data["blocks"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected {{'blocks': [n1, ...]}}") from exc


def module_to_json(e: modules.ConcreteModule) -> dict:
    return {
        "algebra": algebra_to_json(e.algebra),
        "row_dim": e.row_dim,
        "basis": [matrix_to_json(b) for b in e.basis],
    }


def module_from_json(data: Any, where: str = "module") -> modules.ConcreteModule:
    try:
        algebra = algebra_from_json(data["algebra"], f"{where}.algebra")
        row_dim = int(data["row_dim"])
        raw = data["basis"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected algebra/row_dim/basis") from exc
    basis = _matrices_from_json(raw, f"{where}.basis", (row_dim, algebra.ambient_dim))
    return modules.ConcreteModule(algebra, row_dim, basis)


def cp_map_to_json(phi: cpmaps.CPMap) -> dict:
    return {
        "algebra": algebra_to_json(phi.domain),
        "target_dim": phi.target_dim,
        "values_on_units": [matrix_to_json(v) for v in phi.values],
    }


def cp_map_from_json(data: Any, where: str = "phi") -> cpmaps.CPMap:
    try:
        algebra = algebra_from_json(data["algebra"], f"{where}.algebra")
        target_dim = int(data["target_dim"])
        raw = data["values_on_units"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected algebra/target_dim/values_on_units") from exc
    return cpmaps.CPMap(algebra, target_dim, _matrices_from_json(raw, f"{where}.values_on_units"))


def module_map_to_json(phi_map: extension.ModuleMap) -> dict:
    return {
        "domain": module_to_json(phi_map.domain),
        "h1_dim": phi_map.h1_dim,
        "h2_dim": phi_map.h2_dim,
        "values": [matrix_to_json(v) for v in phi_map.values],
    }


def module_map_from_json(data: Any, where: str = "Phi") -> extension.ModuleMap:
    try:
        domain = module_from_json(data["domain"], f"{where}.domain")
        h1 = int(data["h1_dim"])
        h2 = int(data["h2_dim"])
        raw = data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected domain/h1_dim/h2_dim/values") from exc
    return extension.ModuleMap(domain, h1, h2, _matrices_from_json(raw, f"{where}.values", (h2, h1)))


def tolerance_from_json(data: Any) -> ToleranceProfile:
    """A problem file's ``tolerance`` object; each missing part, or the whole
    object when ``data`` is None, is that of ``DEFAULT_TOL``."""
    if data is None:
        return DEFAULT_TOL
    try:
        return ToleranceProfile(
            abs_tol=float(data.get("abs_tol", DEFAULT_TOL.abs_tol)),
            rel_tol=float(data.get("rel_tol", DEFAULT_TOL.rel_tol)),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError("tolerance: expected finite nonnegative {'abs_tol': ..., 'rel_tol': ...}") from exc


def load_problem(path: str) -> dict:
    """Parse and version-check a problem file; raises SchemaError on any
    structural defect with a location hint."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno}, col {exc.colno}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema_version {version!r}")
    if "payload" not in doc or not isinstance(doc["payload"], dict):
        raise SchemaError(f"{path}: missing payload object")
    return doc


def dump_report(report: dict) -> str:
    def default(obj):
        if isinstance(obj, np.ndarray):
            return matrix_to_json(obj)
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        raise TypeError(f"cannot serialize {type(obj)!r}")

    return json.dumps(report, indent=2, default=default)
