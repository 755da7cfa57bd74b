"""Execution-backend selection for the simulation kernel.

The kernel runs ordinary blocking-style Python code under a virtual
clock, which requires *suspending* a simulated process mid-call-stack.
Three mechanisms implement that suspension:

* ``threads`` — one OS thread per process, raw-``Lock`` handoff pairs.
  This is the seed implementation and remains the differential
  reference: every other backend must reproduce its event schedule
  byte-for-byte (``Simulator.event_count`` is the fingerprint).
* ``greenlet`` — one greenlet per process, scheduler and processes
  share a single OS thread.  Control transfer is a userspace stack
  switch (no locks, no kernel involvement), and a large world stops
  costing one OS thread per rank.  Requires the optional ``greenlet``
  package; auto-selected when importable.
* ``inline`` — pure-stdlib same-thread-style scheduling: processes
  keep carrier threads, but the scheduler loop *migrates onto the
  blocked process's thread* (a baton protocol).  A process whose own
  wake event is next in virtual time resumes inline with **zero** lock
  operations and zero OS context switches; a cross-process transfer
  costs one lock handoff instead of two.  This is the fast backend on
  interpreters without greenlet.

Selection precedence (first match wins):

1. an explicit name: ``Simulator(backend=...)``, which is where
   ``ExperimentEngine(backend=...)`` / ``--backend`` arrive — the engine
   resolves the name once and passes it down as a plain argument
   (``execute`` -> ``launch_run`` -> ``Simulator``), in-process and in
   spawned workers alike, so parallel runs agree with serial;
2. the ``REPRO_SIM_BACKEND`` environment variable;
3. ``auto``: ``greenlet`` when importable, else ``threads``.

Every step accepts ``auto`` and the concrete names below; asking for
``greenlet`` explicitly when the package is missing is a loud error,
never a silent fallback.
"""

from __future__ import annotations

from ..util.osenv import env_value

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "available_backends",
    "greenlet_available",
    "resolve_backend",
]

#: Concrete backend names, in documentation order.
BACKENDS = ("threads", "greenlet", "inline")

#: Environment variable consulted when no explicit choice was made.
ENV_VAR = "REPRO_SIM_BACKEND"


def greenlet_available() -> bool:
    """True when the optional ``greenlet`` package is importable."""
    try:
        import greenlet  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """The concrete backends usable in this interpreter."""
    if greenlet_available():
        return BACKENDS
    return tuple(b for b in BACKENDS if b != "greenlet")


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to a concrete, validated name.

    Args:
        name: explicit request (``auto``/``threads``/``greenlet``/
            ``inline``) or ``None`` to fall through to the environment
            variable and then ``auto``.

    Returns:
        One of :data:`BACKENDS`.

    Raises:
        ValueError: unknown backend name (one read from the
            environment names the variable).
        ImportError: ``greenlet`` requested explicitly but not
            importable.
    """
    name = env_value(ENV_VAR, _check_name) if name is None else _check_name(name)
    if name is None or name == "auto":
        return "greenlet" if greenlet_available() else "threads"
    if name == "greenlet" and not greenlet_available():
        raise ImportError(
            "execution backend 'greenlet' was requested but the greenlet "
            "package is not installed; install greenlet or select "
            "'threads'/'inline' (REPRO_SIM_BACKEND / --backend)"
        )
    return name


def _check_name(name: str) -> str:
    if name != "auto" and name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; expected 'auto' or one of "
            + ", ".join(repr(b) for b in BACKENDS)
        )
    return name
