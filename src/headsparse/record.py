"""One type-checked JSON codec for the frozen config records.

A Record is a dataclass whose init fields are annotated with JSON-shaped
types: int, float, str, bool, `X | None`, `tuple[T, ...]` and other
Records.  `to_dict` writes them in field order, records as dicts and tuples
as lists.  `from_dict` checks every value against its annotation and raises
ConfigError naming the dotted key; range checks stay in each record's
`__post_init__`.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ConfigError

_EXPECTED = {int: "an int", float: "a number", str: "a string", bool: "a boolean"}


class Record:
    """Base of the config records: one to_dict/from_dict pair for all."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name))
                for f in dataclasses.fields(self) if f.init}

    @classmethod
    def from_dict(cls, d):
        return _decode(cls, d, "")


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _decode(tp, value, key: str):
    if isinstance(tp, type) and issubclass(tp, Record):
        return _decode_record(tp, value, key)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) and tp is not bool:
        ok = False
    elif tp is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise ConfigError(f"{key} must be {_EXPECTED[tp]}, got {value!r}")
    return float(value) if tp is float else value


def _decode_record(cls: type[Record], value, key: str) -> Record:
    if not isinstance(value, dict):
        raise ConfigError(f"{key or cls.__name__} must be an object, got {value!r}")
    fields = [f for f in dataclasses.fields(cls) if f.init]
    names = {f.name for f in fields}
    unknown = sorted(set(value) - names)
    if unknown:
        raise ConfigError(f"unknown config keys: {[_join(key, k) for k in unknown]}")
    missing = [f.name for f in fields if f.name not in value
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {[_join(key, k) for k in missing]}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _decode(hints[name], v, _join(key, name))
                  for name, v in value.items()})
