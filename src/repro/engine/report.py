"""The unified result record every solver run produces.

A :class:`SolveReport` is frozen, picklable (it crosses process
boundaries in :mod:`repro.engine.runner`) and round-trips through JSON
exactly — fractional makespans are encoded as ``"num/den"`` strings, the
same convention :mod:`repro.io` uses for schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Mapping

from ..io import _frac_parse, _frac_str

__all__ = ["SolveReport", "STATUSES"]

#: Every status a run can end in. ``infeasible`` means the instance
#: admits no schedule (:class:`~repro.core.errors.InfeasibleInstanceError`
#: — or, for no-guarantee baselines, the heuristic dead-ended / produced a
#: schedule that failed validation); ``unsupported`` means the instance is
#: fine but this solver cannot handle it
#: (:class:`~repro.core.errors.UnsupportedInstanceError`, e.g. McNaughton
#: on a class-constrained instance) — batch consumers should *skip* such
#: reports, not count them as failures; ``error`` is an unexpected
#: failure.
STATUSES = ("ok", "timeout", "infeasible", "unsupported", "error")


def _num_str(x: Fraction | int | float | None) -> str | int | float | None:
    """Encode exactly: ints/floats stay as-is, fractions become "num/den"
    via the shared :mod:`repro.io` wire encoding."""
    if isinstance(x, Fraction):
        return _frac_str(x)
    return None if x is None else (float(x) if isinstance(x, float) else int(x))


def _num_parse(v: Any) -> Fraction | int | float | None:
    if v is None or isinstance(v, (int, float)):
        return v
    return _frac_parse(v)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of running one registered algorithm on one instance.

    ``certified_ratio`` is the *a posteriori* certificate
    ``makespan / guess`` (the guess is a certified reference value, see
    the registry docs); ``proven_ratio`` is the algorithm's theorem-level
    guarantee, carried along so reports are self-describing.
    """

    algorithm: str
    instance_digest: str
    instance_label: str = ""
    variant: str = ""
    status: str = "ok"
    makespan: Fraction | int | float | None = None
    guess: Fraction | int | float | None = None
    certified_ratio: float | None = None
    proven_ratio: str = ""          # "2", "7/3", "1+eps", "1 (exact)", "-"
    wall_time_s: float = 0.0
    validated: bool = False         # schedule checked by core.validation
    cached: bool = False            # served from the result cache
    error: str = ""
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        # shallow, in field order: dataclasses.asdict deep-copies every
        # value, and the values it would copy are immutable
        d = {name: getattr(self, name) for name in _FIELD_NAMES}
        d["makespan"] = _num_str(self.makespan)
        d["guess"] = _num_str(self.guess)
        d["extra"] = dict(self.extra)
        return d

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "SolveReport":
        d = dict(d)
        d["makespan"] = _num_parse(d.get("makespan"))
        d["guess"] = _num_parse(d.get("guess"))
        d["extra"] = dict(d.get("extra") or {})
        return SolveReport(**d)


_FIELD_NAMES = tuple(f.name for f in fields(SolveReport))
