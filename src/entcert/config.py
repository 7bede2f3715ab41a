"""Construction of run objects from JSON documents.

A config is checked for its shape here: every section must be an object
with no unknown and no missing keys, every array key must hold an array,
and outcomes must not be given as floats, which are ambiguous grid keys.
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
from .simulate import SimulationConfig
from .states import EntangledStateModel, TruncatedGaussianPrior, check_signs
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


def array(value: Any, where: str) -> list:
    """A JSON array, as the list it is; its items are checked by their owner."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array, got {value!r}")
    return value


def parse_witness(doc: Any, where: str = "witness") -> Witness:
    check_keys(doc, where, {"kind"}, {"coefficients", "constant", "settings"})
    kind = doc["kind"]
    if kind == "linear":
        if "coefficients" not in doc:
            raise SchemaError(f"{where}: linear witness needs coefficients")
        coefficients = array(doc["coefficients"], f"{where}.coefficients")
        return LinearWitness(coefficients, doc.get("constant", 0))
    if kind == "quadratic":
        if "settings" not in doc:
            raise SchemaError(f"{where}: quadratic witness needs settings")
        return QuadraticWitness(doc["settings"])
    raise SchemaError(f"{where}.kind: expected 'linear' or 'quadratic', got {kind!r}")


def parse_acceptance(doc: Any, grid: Sequence[Fraction], where: str = "acceptance") -> AcceptanceSet:
    check_keys(doc, where, {"kind"}, {"bound", "direction", "outcomes", "gamma", "boundary"})
    gamma = doc.get("gamma", 0.0)
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
            snap_to_grid(raw_outcome(o, f"{where}.outcomes"), grid)
            for o in array(doc["outcomes"], f"{where}.outcomes")
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
    if ("purity" in doc) == ("prior" in doc):
        raise SchemaError(f"{where}: give exactly one of purity and prior")
    grid_step = doc.get("grid_step", 0.01)
    if "purity" in doc:
        return EntangledStateModel(purity=doc["purity"], grid_step=grid_step)
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
