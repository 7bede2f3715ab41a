"""Schema validation and construction of run objects from JSON documents.

Every command's configuration is validated strictly: unknown keys are
rejected, required keys must be present, and values must have the right
types before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import fields
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .acceptance import AcceptanceSet, snap_to_grid
from .errors import SchemaError
from .inference import PriorPair
from .pmf import as_fraction
from .simulate import SimulationConfig
from .states import EntangledStateModel, TruncatedGaussianPrior
from .witnesses import LinearWitness, QuadraticWitness, Witness
from .worst_case import SearchOptions


def check_keys(doc: Mapping[str, Any], where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - required - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def number(doc: Mapping[str, Any], key: str, where: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise SchemaError(f"{where}.{key}: expected a finite number, got {value!r}")
    return float(value)


def boolean(doc: Mapping[str, Any], key: str, where: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def integer(doc: Mapping[str, Any], key: str, where: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def number_list(value: Any, where: str) -> list[float]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or not value:
        raise SchemaError(f"{where}: expected a nonempty array of numbers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SchemaError(f"{where}: expected numbers, got {item!r}")
        out.append(float(item))
    return out


def integer_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or not value:
        raise SchemaError(f"{where}: expected a nonempty array of integers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise SchemaError(f"{where}: expected integers, got {item!r}")
        out.append(item)
    return out


def rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number or fraction string, got {value!r}")
    try:
        return as_fraction(value)
    except Exception as exc:
        raise SchemaError(f"{where}: not a rational value: {value!r}") from exc


def parse_witness(doc: Any, where: str = "witness") -> Witness:
    check_keys(doc, where, {"kind"}, {"coefficients", "constant", "settings"})
    kind = doc["kind"]
    if kind == "linear":
        if "coefficients" not in doc:
            raise SchemaError(f"{where}: linear witness needs coefficients")
        coefficients = [
            rational(c, f"{where}.coefficients") for c in doc["coefficients"]
        ]
        constant = rational(doc.get("constant", 0), f"{where}.constant")
        return LinearWitness(coefficients, constant)
    if kind == "quadratic":
        if "settings" not in doc:
            raise SchemaError(f"{where}: quadratic witness needs settings")
        return QuadraticWitness(integer(doc, "settings", where))
    raise SchemaError(f"{where}.kind: expected 'linear' or 'quadratic', got {kind!r}")


def parse_acceptance(doc: Any, grid: Sequence[Fraction], where: str = "acceptance") -> AcceptanceSet:
    check_keys(doc, where, {"kind"}, {"bound", "direction", "outcomes", "gamma", "boundary"})
    gamma = 0.0
    if "gamma" in doc:
        gamma = number(doc, "gamma", where)
    kind = doc["kind"]
    if kind == "threshold":
        if "bound" not in doc or "direction" not in doc:
            raise SchemaError(f"{where}: threshold sets need bound and direction")
        if doc["direction"] not in ("accept_low", "accept_high"):
            raise SchemaError(f"{where}.direction: expected accept_low or accept_high")
        bound = snap_to_grid(raw_outcome(doc["bound"], f"{where}.bound"), grid)
        return AcceptanceSet.threshold(bound, doc["direction"], gamma=gamma)
    if kind == "explicit":
        if "outcomes" not in doc:
            raise SchemaError(f"{where}: explicit sets need outcomes")
        outcomes = [
            snap_to_grid(raw_outcome(o, f"{where}.outcomes"), grid) for o in doc["outcomes"]
        ]
        boundary = None
        if "boundary" in doc:
            boundary = snap_to_grid(raw_outcome(doc["boundary"], f"{where}.boundary"), grid)
        return AcceptanceSet.explicit(outcomes, gamma=gamma, boundary=boundary)
    raise SchemaError(f"{where}.kind: expected 'threshold' or 'explicit', got {kind!r}")


def raw_outcome(value: Any, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number or string outcome, got {value!r}")
    if isinstance(value, float):
        raise SchemaError(
            f"{where}: give outcomes as strings or integers; floats are ambiguous grid keys"
        )
    return value


def parse_entangled(doc: Any, where: str = "entangled") -> EntangledStateModel:
    check_keys(doc, where, set(), {"purity", "prior", "grid_step"})
    grid_step = number(doc, "grid_step", where) if "grid_step" in doc else 0.01
    if ("purity" in doc) == ("prior" in doc):
        raise SchemaError(f"{where}: give exactly one of purity and prior")
    if "purity" in doc:
        return EntangledStateModel(purity=number(doc, "purity", where), grid_step=grid_step)
    prior_doc = doc["prior"]
    check_keys(prior_doc, f"{where}.prior", {"mean", "std", "p_min"})
    prior = TruncatedGaussianPrior(
        mean=number(prior_doc, "mean", f"{where}.prior"),
        std=number(prior_doc, "std", f"{where}.prior"),
        p_min=number(prior_doc, "p_min", f"{where}.prior"),
    )
    return EntangledStateModel(prior=prior, grid_step=grid_step)


def parse_priors(doc: Any, where: str = "priors") -> PriorPair:
    check_keys(doc, where, {"entangled"})
    return PriorPair(number(doc, "entangled", where))


def parse_optimizer(doc: Any, seed_override: int | None, where: str = "optimizer") -> SearchOptions:
    """``SearchOptions`` from an object keyed by its field names.

    A field with an integer default takes an integer, the others a number;
    ``SearchOptions`` itself rejects out-of-range values with DomainError.
    Only an absent section (``None``) means the defaults.
    """
    if doc is None:
        doc = {}
    parsers = {
        f.name: integer if isinstance(f.default, int) else number for f in fields(SearchOptions)
    }
    check_keys(doc, where, set(), set(parsers))
    kwargs = {key: parsers[key](doc, key, where) for key in doc}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return SearchOptions(**kwargs)


def parse_simulation(doc: Any, seed_override: int | None) -> tuple[Witness, SimulationConfig]:
    """The witness and the run of a ``simulate`` config.  The seed comes
    from ``seed_override``, else the config, else 0; ``SimulationConfig``
    rejects out-of-range values, ``trials`` above ``MAX_TRIALS`` among
    them, with DomainError before any draw."""
    check_keys(doc, "config", {"witness", "correlations", "copies", "trials"}, {"seed"})
    witness = parse_witness(doc["witness"])
    correlations = number_list(doc["correlations"], "correlations")
    copies = integer_list(doc["copies"], "copies")
    trials = integer(doc, "trials", "config")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("seed: expected an integer")
    return witness, SimulationConfig(correlations, copies, trials, seed)


def parse_signs(doc: Mapping[str, Any], count: int, default: tuple[int, ...], where: str = "signs") -> tuple[int, ...]:
    if "signs" not in doc:
        return default
    signs = integer_list(doc["signs"], where)
    if len(signs) != count or any(s not in (-1, 1) for s in signs):
        raise SchemaError(f"{where}: expected {count} values of +/-1")
    return tuple(signs)
