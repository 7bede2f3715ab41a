"""Construction of run objects from JSON documents.

A config is checked for its shape here: every section must be an object
with no unknown and no missing keys, every array key must hold an array,
and outcomes must not be given as floats, which are ambiguous grid keys.
A section with variants names its variant in one field (a witness's and an
acceptance set's ``kind``, a plan's ``mode``) and holds exactly that
variant's keys, from one table per section (``check_variant``).
Each value is then handed as it is to the object or function that owns it,
which checks it (see ``finite_stats.check_integer`` and ``check_real``)
and raises DomainError if it is out of its domain.  Both errors exit 2.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .acceptance import AcceptanceSet, snap_to_grid
from .errors import SchemaError
from .inference import PriorPair
from .pmf import format_fraction
from .simulate import SimulationConfig
from .states import PRIOR_GRID_STEP, EntangledStateModel, TruncatedGaussianPrior, check_signs
from .witnesses import LinearWitness, QuadraticWitness, Witness
from .worst_case import SearchOptions

#: Each variant's required and optional keys, besides the field naming it.
WITNESS_KEYS = {
    "linear": ({"coefficients"}, {"constant"}),
    "quadratic": ({"settings"}, set()),
}
ACCEPTANCE_KEYS = {
    "threshold": ({"bound", "direction"}, {"gamma", "boundary"}),
    "explicit": ({"outcomes"}, {"gamma", "boundary"}),
}
PLAN_KEYS = {
    "sweep": ({"witness_kind", "budget", "entangled"}, set()),
    "optimize": (
        {"witness_kind", "budget", "max_settings", "min_validity", "framework", "entangled", "priors"},
        {"allow_unused_copies", "equal_allocation_only", "optimizer"},
    ),
}


def check_object(doc: Any, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")


def check_keys(doc: Mapping[str, Any], where: str, required: set[str], optional: set[str] = frozenset()):
    check_object(doc, where)
    unknown = set(doc) - required - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def check_variant(doc: Any, where: str, field: str, variants: Mapping, default: str | None = None) -> str:
    """The variant that ``doc``'s ``field`` names, ``default`` where the
    field is absent and a default is given; ``doc`` must then hold exactly
    that variant's keys, as ``variants`` maps it to (required, optional)."""
    check_object(doc, where)
    if field not in doc and default is None:
        raise SchemaError(f"{where}: missing keys {[field]}")
    variant = doc.get(field, default)
    if not isinstance(variant, str) or variant not in variants:
        raise SchemaError(f"{where}.{field}: expected one of {sorted(variants)}, got {variant!r}")
    required, optional = variants[variant]
    check_keys(doc, where, required, {field, *optional})
    return variant


def array(value: Any, where: str) -> list:
    """A JSON array, as the list it is; its items are checked by their owner."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array, got {value!r}")
    return value


def parse_witness(doc: Any, where: str = "witness") -> Witness:
    if check_variant(doc, where, "kind", WITNESS_KEYS) == "quadratic":
        return QuadraticWitness(doc["settings"])
    coefficients = array(doc["coefficients"], f"{where}.coefficients")
    return LinearWitness(coefficients, doc.get("constant", 0))


def parse_acceptance(doc: Any, grid: Sequence[Fraction], where: str = "acceptance") -> AcceptanceSet:
    kind = check_variant(doc, where, "kind", ACCEPTANCE_KEYS)
    gamma = doc.get("gamma", 0.0)
    boundary = None
    if "boundary" in doc:
        boundary = snap_to_grid(raw_outcome(doc["boundary"], f"{where}.boundary"), grid)
    if kind == "threshold":
        bound = snap_to_grid(raw_outcome(doc["bound"], f"{where}.bound"), grid)
        # describe() writes a randomized threshold's boundary, which is its bound.
        if boundary not in (None, bound):
            raise SchemaError(f"{where}.boundary: must be the threshold's bound {format_fraction(bound)}")
        return AcceptanceSet.threshold(bound, doc["direction"], gamma=gamma)
    outcomes = [
        snap_to_grid(raw_outcome(o, f"{where}.outcomes"), grid)
        for o in array(doc["outcomes"], f"{where}.outcomes")
    ]
    return AcceptanceSet.explicit(outcomes, gamma=gamma, boundary=boundary)


def raw_outcome(value: Any, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number or string outcome, got {value!r}")
    if isinstance(value, float):
        raise SchemaError(
            f"{where}: give outcomes as strings or integers; floats are ambiguous grid keys"
        )
    return value


def parse_entangled(doc: Any, where: str = "entangled") -> EntangledStateModel:
    # A purity beside a prior is an unknown key, not one of two sources.
    source = "prior" if isinstance(doc, Mapping) and "prior" in doc else "purity"
    check_keys(doc, where, set(), {source, "grid_step"})
    grid_step = doc.get("grid_step", PRIOR_GRID_STEP)
    if source == "purity":
        return EntangledStateModel(purity=doc.get("purity"), grid_step=grid_step)
    check_keys(doc["prior"], f"{where}.prior", {"mean", "std", "p_min"})
    return EntangledStateModel(prior=TruncatedGaussianPrior(**doc["prior"]), grid_step=grid_step)


def parse_priors(doc: Any, where: str = "priors") -> PriorPair:
    check_keys(doc, where, {"entangled"})
    return PriorPair(doc["entangled"])


def parse_optimizer(doc: Any, seed_override: int | None, where: str = "optimizer") -> SearchOptions:
    """``SearchOptions`` from an object keyed by its field names, which
    checks their values.  Only an absent section (``None``) means the
    defaults."""
    if doc is None:
        doc = {}
    check_keys(doc, where, set(), {f.name for f in fields(SearchOptions)})
    if seed_override is not None:
        doc = {**doc, "seed": seed_override}
    return SearchOptions(**doc)


def parse_simulation(doc: Any, seed_override: int | None) -> tuple[Witness, SimulationConfig]:
    """The witness and the run of a ``simulate`` config.  The seed comes
    from ``seed_override``, else the config, else 0; ``SimulationConfig``
    rejects out-of-range values, ``trials`` above ``MAX_TRIALS`` among
    them, with DomainError before any draw."""
    check_keys(doc, "config", {"witness", "correlations", "copies", "trials"}, {"seed"})
    witness = parse_witness(doc["witness"])
    correlations = array(doc["correlations"], "correlations")
    copies = array(doc["copies"], "copies")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    return witness, SimulationConfig(correlations, copies, doc["trials"], seed)


def parse_signs(doc: Mapping[str, Any], count: int, default: tuple[int, ...], where: str = "signs") -> tuple[int, ...]:
    if "signs" not in doc:
        return default
    return check_signs(array(doc["signs"], where), count)
