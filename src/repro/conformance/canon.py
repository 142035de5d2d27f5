"""Canonical value formatting for conformance artifacts.

Golden fixtures pin report *digests*, and a digest is only as stable as the
bytes underneath it. Two sources of churn are neutralized here, once, for
every renderer and fixture in the repository:

- **float repr noise** — goldens are compared across Python patch versions
  and platforms, so canonical floats are rounded to 12 significant digits
  (far above any real measurement precision, far below double noise) before
  serialization;
- **negative zero** — ``f"{-0.0:.3f}"`` renders ``-0.000``, and a sum that
  is exactly zero can carry either sign depending on evaluation order.
  Every canonical form normalizes ``-0.0`` to ``0.0``.

:func:`fmt_fixed` is the one fixed-point formatting helper report/CSV
renderers share (the "one canonical repr helper" of the conformance
contract); :func:`canon_jsonable` + :func:`digest` are what golden vectors
are built from.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from repro.utils.serialization import encode_json_canonical

#: Significant digits kept in canonical floats. IEEE doubles hold ~15.9;
#: trimming to 12 absorbs last-bit noise while preserving every digit the
#: paper's financial figures care about (cents on multi-million totals).
CANON_SIG_DIGITS = 12


def canon_float(value: float) -> float:
    """The canonical form of one float: 12 significant digits, no ``-0.0``.

    Non-finite values pass through unchanged (JSON encoders reject them
    loudly, which is the behavior we want for a corrupted report).
    """
    if not math.isfinite(value):
        return value
    rounded = float(f"{value:.{CANON_SIG_DIGITS}g}")
    # ``-0.0 == 0.0`` is True, so this also rewrites negative zero.
    return 0.0 if rounded == 0.0 else rounded


def fmt_fixed(value: float, places: int) -> str:
    """Fixed-point rendering with negative zero normalized away.

    The shared helper behind CSV/report float cells: ``fmt_fixed(-0.0, 3)``
    is ``"0.000"``, not ``"-0.000"`` — and so is ``fmt_fixed(-1e-12, 3)``,
    since a tiny negative value *rounds* to zero at any fixed precision.
    A total that flips sign-of-zero between runs (or platforms) cannot
    churn a golden digest.
    """
    rendered = f"{value:.{places}f}"
    if rendered.lstrip("-0.") == "" and rendered.startswith("-"):
        return rendered[1:]
    return rendered


#: Exact types the canonical form keeps as they are.
_LEAVES = frozenset((str, int, bool, type(None)))


def canon_jsonable(obj: Any) -> Any:
    """Recursively canonicalize a JSON-able tree.

    Floats are passed through :func:`canon_float`; dict keys are coerced to
    strings (JSON will anyway, but doing it here keeps the canonical form
    explicit); tuples become lists. Everything else must already be
    JSON-safe — this helper deliberately does not guess at dataclasses.

    Exact built-in types take the first branches, which test no subclass;
    a subclass takes the ``isinstance`` branches after them, to the same
    result.
    """
    kind = type(obj)
    if kind is dict:
        return {
            key if type(key) is str else str(key): (
                value if type(value) in _LEAVES else canon_jsonable(value)
            )
            for key, value in obj.items()
        }
    if kind is list or kind is tuple:
        return [
            item if type(item) in _LEAVES else canon_jsonable(item)
            for item in obj
        ]
    if kind is float:
        return canon_float(obj)
    if kind in _LEAVES:
        return obj
    if isinstance(obj, float):
        return canon_float(obj)
    if isinstance(obj, dict):
        return {str(key): canon_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon_jsonable(item) for item in obj]
    return obj


def canonical_json_bytes(obj: Any) -> bytes:
    """The canonical serialized form: sorted keys, compact separators.

    Raises:
        ValueError: for a NaN or infinite float.
    """
    return encode_json_canonical(canon_jsonable(obj)).encode("utf-8")


def digest(obj: Any) -> str:
    """Hex SHA-256 of the canonical serialization — the golden digest."""
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()
