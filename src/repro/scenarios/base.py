"""Scenario base class, registry, and canonical-string parsing.

A :class:`Scenario` is one named, composable run condition — a network
fabric, a straggler rank, a perturbed link — that parameterizes any
app/protocol run.  Scenarios travel through the harness as *canonical
strings* (``"fat-tree"``, ``"straggler:factor=4.0,rank=1"``): the
string is what enters the :class:`~repro.harness.spec.RunSpec` content
hash, the sweep axis, the fault-schedule draw, and the result cache,
so two spellings of the same condition always hash alike.

This package imports only :mod:`repro.netmodel` — never the harness —
so the dependency arrow stays one-way: harness → scenarios → netmodel.
"""

from __future__ import annotations

import dataclasses
from abc import ABC
from dataclasses import dataclass

from ..netmodel import ModelParams, Topology
from ..netmodel import make_topology as _make_flat_topology

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioError",
    "canonical_scenario",
    "parse_scenario",
    "register_scenario",
    "resolve_scenario",
]


class ScenarioError(ValueError):
    """A scenario string or parameter set does not name a valid scenario."""


#: Registry: scenario name -> class.  Populated by ``@register_scenario``.
SCENARIOS: "dict[str, type[Scenario]]" = {}


def register_scenario(cls: "type[Scenario]") -> "type[Scenario]":
    """Class decorator adding ``cls`` to :data:`SCENARIOS` by its name."""
    if not cls.name:
        raise ScenarioError(f"{cls.__name__} has no scenario name")
    if cls.name in SCENARIOS:
        raise ScenarioError(f"duplicate scenario name {cls.name!r}")
    SCENARIOS[cls.name] = cls
    return cls


def _render(value) -> str:
    """Canonical text of one parameter value (``repr`` floats, so
    ``factor=4.0`` round-trips bit-exact)."""
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Scenario(ABC):
    """One composable run condition.

    Subclasses are frozen dataclasses whose fields all carry defaults;
    the canonical string serializes only non-default fields (sorted by
    name), so the default instance's canonical form is just the name.
    The three hooks cover everything a condition can perturb:

    * :meth:`make_topology` — choose the fabric (and rank placement).
    * :meth:`wrap_topology` — perturb per-message costs on top of it.
    * :meth:`compute_factors` — per-rank compute slowdown multipliers.
    """

    #: Registry key and canonical-string head.  Subclasses override.
    name = ""
    #: One-line catalog entry (README / CLI help).
    description = ""

    def canonical(self) -> str:
        """The canonical string this scenario parses back from."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={_render(value)}")
        if not parts:
            return self.name
        return self.name + ":" + ",".join(sorted(parts))

    # -- hooks --------------------------------------------------------- #

    def make_topology(
        self,
        nprocs: int,
        *,
        ppn: "int | None" = None,
        params: "ModelParams | None" = None,
    ) -> Topology:
        """Build the run's topology (default: the flat cluster)."""
        return _make_flat_topology(nprocs, ppn=ppn, params=params)

    def wrap_topology(self, topo: Topology, *, seed: int = 0) -> Topology:
        """Wrap the built topology with per-message perturbations.

        ``seed`` is the run's spec seed, so any injected noise is a
        pure function of the spec — deterministic and cache-stable.
        """
        return topo

    def compute_factors(self, nprocs: int) -> "tuple[float, ...] | None":
        """Per-rank compute-time multipliers, or ``None`` for all-1.0."""
        return None


def _coerce(cls: "type[Scenario]", name: str, raw: str):
    """Coerce a parsed parameter string to the field's default's type."""
    for f in dataclasses.fields(cls):
        if f.name == name:
            kind = type(f.default)
            try:
                return kind(raw)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"scenario {cls.name!r}: bad value for {name}={raw!r} "
                    f"(expected {kind.__name__}): {exc}"
                ) from None
    raise ScenarioError(
        f"scenario {cls.name!r} has no parameter {name!r}; expected one of "
        f"{sorted(f.name for f in dataclasses.fields(cls))}"
    )


def parse_scenario(text: str) -> Scenario:
    """``"name"`` or ``"name:k=v,k=v"`` -> a :class:`Scenario` instance."""
    body = text.strip()
    head, sep, argtext = body.partition(":")
    name = head.strip()
    cls = SCENARIOS.get(name)
    if cls is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        )
    kwargs = {}
    if sep:
        for item in argtext.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, raw = item.partition("=")
            if not eq:
                raise ScenarioError(
                    f"scenario {name!r}: expected k=v, got {item!r}"
                )
            kwargs[key.strip()] = _coerce(cls, key.strip(), raw.strip())
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario {body!r}: {exc}") from None


def resolve_scenario(
    value: "str | Scenario | None",
) -> "Scenario | None":
    """Anything a caller may hold -> a :class:`Scenario` instance (or
    ``None`` for the unperturbed run; ``""``/``"none"`` mean ``None``,
    so sweep axes can include the baseline cell)."""
    if value is None or isinstance(value, Scenario):
        return value
    text = str(value).strip()
    if not text or text.lower() == "none":
        return None
    return parse_scenario(text)


def canonical_scenario(value: "str | Scenario | None") -> "str | None":
    """The canonical string for ``value`` (``None`` stays ``None``)."""
    scenario = resolve_scenario(value)
    return None if scenario is None else scenario.canonical()
