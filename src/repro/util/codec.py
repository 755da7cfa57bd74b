"""One codec for every document the harness writes or ships.

A document is a dataclass: :func:`encode` walks its fields down to
JSON-canonical python types and :func:`decode` rebuilds it from the
class's type hints.  What the hints cannot say — a field that never
travels, one written only when set, one spelled differently on the
wire, a validating constructor — is the class's ``__codec__``
:class:`Shape`; most classes need none.  Result-cache entries, oracle
check payloads and reports, the fuzz corpus and the content hashes
over all of them are this one walk, so a new field is one edit.

Anything wrong with a document's *shape* — a list where an object
belongs, a missing field that has no default, a tuple of the wrong
length — is a :class:`CodecError` (a ``ValueError``), which readers of
untrusted files treat as a miss.  Scalars pass through unchecked:
their validation belongs to the class (``Shape.build``), not the walk.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

__all__ = ["CodecError", "Shape", "decode", "encode"]

_SCALARS = (bool, int, float, str, type(None))
#: What a wrong-shaped document trips inside a compiled decoder.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


class CodecError(ValueError):
    """A document does not have the shape of the type it is decoded as."""


@dataclass(frozen=True)
class Shape:
    """What a dataclass's document does that its type hints do not say.
    Set as the class attribute ``__codec__``."""

    #: Fields that never travel (decode leaves them at their defaults).
    drop: tuple[str, ...] = ()
    #: Fields written only when truthy, so documents — and the content
    #: hashes over them — from before the field existed stay unchanged.
    when_set: tuple[str, ...] = ()
    #: field name -> document key, where the two differ.
    rename: Mapping[str, str] = field(default_factory=dict)
    #: Name of the classmethod that builds an instance from the decoded
    #: fields (keyword arguments) in place of the class itself: where
    #: validation of outside input lives.
    build: "str | None" = None


_NO_SHAPE = Shape()
_EXACT_SCALARS = frozenset(_SCALARS)
#: class -> ((field, key, written only when set, scalar by its hint), ...)
_PLANS: dict[type, tuple] = {}
#: type -> compiled decoder (None: the value passes through as it is).
_DECODERS: dict[Any, "Callable[[Any], Any] | None"] = {}


def encode(value: Any) -> Any:
    """Reduce ``value`` to JSON-canonical python types: dataclasses and
    dicts become dicts with ``str`` keys, sequences lists, numpy scalars
    python ones; anything else travels as its ``repr``.  A dataclass
    field hinted as a scalar is trusted to hold one."""
    cls = type(value)
    if cls in _EXACT_SCALARS:
        return value
    if cls is list or cls is tuple:
        return [encode(v) for v in value]
    plan = _PLANS.get(cls)
    if plan is not None:
        out = {}
        for name, key, when_set, scalar in plan:
            item = getattr(value, name)
            if item or not when_set:
                out[key] = item if scalar else encode(item)
        return out
    # The rare ones: numpy scalars, subclasses, a class not yet compiled.
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _compile_dataclass(cls)
        return encode(value)
    return repr(value)


def decode(tp: Any, data: Any) -> Any:
    """Rebuild a ``tp`` from its :func:`encode`\\ d form."""
    dec = _decoder(tp)
    try:
        return data if dec is None else dec(data)
    except _SHAPE_ERRORS as exc:
        raise CodecError(
            f"not a {getattr(tp, '__name__', tp)} document: {exc!r}"
        ) from exc


def _decoder(tp: Any) -> "Callable[[Any], Any] | None":
    """The decoder for ``tp``, compiled once: a closure per type, so
    decoding a document never looks at a type hint."""
    if tp in _DECODERS:
        return _DECODERS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _compile_dataclass(tp)  # registers itself, before its fields
    if tp is Any or tp in _SCALARS:
        dec = None
    elif origin in (typing.Union, types.UnionType):
        dec = _compile_optional(tp, args)
    elif tp in (list, tuple) or origin is list or args[1:] == (Ellipsis,):
        dec = _compile_sequence(origin or tp, _decoder(args[0]) if args else None)
    elif origin is tuple:
        dec = _compile_record([_decoder(arg) for arg in args])
    elif tp is dict or origin is dict:
        dec = _compile_mapping(*args)
    else:
        raise TypeError(f"codec: no decoder for annotation {tp!r}")
    _DECODERS[tp] = dec
    return dec


def _compile_dataclass(cls: type) -> Callable[[Any], Any]:
    """Both directions of one class: its decoder and its encode plan."""
    shape = getattr(cls, "__codec__", _NO_SHAPE)
    build = getattr(cls, shape.build) if shape.build else cls
    fields: list[tuple] = []
    absent = object()

    def dec(data):
        if type(data) is not dict:
            raise CodecError(
                f"{cls.__name__}: expected an object, got {type(data).__name__}"
            )
        get = data.get
        kwargs = {}
        for name, key, sub in fields:
            value = get(key, absent)
            if value is not absent:
                kwargs[name] = value if sub is None else sub(value)
        return build(**kwargs)

    # Registered before the fields compile: RunSpec.restart_of is a RunSpec.
    _DECODERS[cls] = dec
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        if f.name in shape.drop:
            continue
        key, hint = shape.rename.get(f.name, f.name), hints[f.name]
        sub = _decoder(hint)
        fields.append((f.name, key, sub))
        plan.append(
            (f.name, key, f.name in shape.when_set, sub is None and hint is not Any)
        )
    _PLANS[cls] = tuple(plan)
    return dec


def _compile_optional(tp: Any, args: tuple) -> "Callable[[Any], Any] | None":
    inner = [arg for arg in args if arg is not type(None)]
    if len(inner) != 1:
        raise TypeError(f"codec: only `X | None` unions decode, got {tp!r}")
    sub = _decoder(inner[0])
    if sub is None:
        return None
    return lambda data: None if data is None else sub(data)


def _compile_sequence(make: type, sub) -> Callable[[Any], Any]:
    """``list[T]`` / ``tuple[T, ...]`` (and the bare classes)."""

    def dec(data):
        if type(data) is not list:
            raise CodecError(f"expected a list, got {type(data).__name__}")
        return make(data) if sub is None else make([sub(v) for v in data])

    return dec


def _compile_record(subs: list) -> Callable[[Any], Any]:
    """``tuple[A, B]``: fixed length, a decoder per position."""

    def dec(data):
        if type(data) is not list or len(data) != len(subs):
            raise CodecError(f"expected a list of {len(subs)}, got {data!r}")
        return tuple(v if sub is None else sub(v) for sub, v in zip(subs, data))

    return dec


def _compile_mapping(key_type: Any = str, value_type: Any = Any) -> Callable[[Any], Any]:
    """``dict[K, V]``: JSON keys are strings, so ``K`` is ``str`` or ``int``."""
    if key_type not in (str, int):
        raise TypeError(f"codec: dict keys decode as str or int, not {key_type!r}")
    sub = _decoder(value_type)

    def dec(data):
        if type(data) is not dict:
            raise CodecError(f"expected an object, got {type(data).__name__}")
        if key_type is str and sub is None:
            return dict(data)
        return {key_type(k): v if sub is None else sub(v) for k, v in data.items()}

    return dec
