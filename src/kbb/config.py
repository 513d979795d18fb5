"""Flat key-value experiment configuration.

The format is a plain text file of ``key = value`` lines with ``#``
comments.  Sections are spelled with dotted keys (env.*, budget.*,
regressor.*, eval.*); lists are comma-separated.  There are no includes and
no nesting, so a config round-trips through the manifest verbatim.

Example::

    env.kind = circular
    env.n = 200
    env.gamma = 0.9
    env.seed = 1
    algos = vi,fvi,kbb
    seeds = 1,2,3
    budget.n_per_iter = 10000
    budget.max_iters = 10
    regressor.kind = tabular_mean
    eval.n_eval = 10000
    eval.seed = 99
    out_dir = runs/circ09
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Callable

from . import envs
from .algorithms import IterationBudget
from .regression import RegressorConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_flat", "build_env"]

ALGOS = ("vi", "fvi", "kbb")

# Each env.kind and its constructor.  A kind takes the env.* keys that its
# constructor's parameters name, and no others.
ENV_KINDS = {
    "random_tabular": envs.make_random_tabular,
    "circular": envs.make_circular_walk,
    "lqr": envs.make_lqr,
    "nonlinear": envs.make_nonlinear,
    "arch": envs.make_arch,
}


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the offending key."""


def parse_flat(text: str) -> dict:
    """Parse ``key = value`` lines into an ordered dict of strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"duplicate key: {key}")
        out[key] = value
    return out


_REQUIRED = object()


def _get(kv: dict, key: str, convert, default):
    if key not in kv:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return convert(kv[key])
    except Exception as exc:
        raise ConfigError(f"invalid value for key {key}: {kv[key]!r} ({exc})") from exc


def _to_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _to_list(s: str) -> list[str]:
    items = [p.strip() for p in s.split(",") if p.strip()]
    if not items:
        raise ValueError("expected a nonempty comma-separated list")
    return items


def _int_at_least(s: str, low: int) -> int:
    value = int(s)
    if value < low:
        raise ValueError(f"must be >= {low}")
    return value


def _unique(items: list) -> list:
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"repeated entry {item!r}")
    return items


def _one_of(s: str, choices, what: str) -> str:
    if s not in choices:
        raise ValueError(f"unknown {what} {s!r}")
    return s


@dataclass(frozen=True)
class _Key:
    """How one key is read: the ExperimentConfig field it fills, its parser
    and its default (_REQUIRED if it has none).  A key of a grouped field
    fills the entry named by its last dotted part, and an unset key with a
    None default stays out, so the group's own default applies."""

    field: str
    parse: Callable
    default: object = None


# Every key, once.  env.kind comes first: each env.* key after it is read
# only for the kinds that take it.
KEYS = {
    "env.kind": _Key("env_kind", lambda s: _one_of(s, ENV_KINDS, "environment kind"), _REQUIRED),
    "env.gamma": _Key("env_args", float, _REQUIRED),
    "env.seed": _Key("env_args", int, _REQUIRED),
    "env.n": _Key("env_args", int, _REQUIRED),
    "env.d": _Key("env_args", int, 5),
    "env.m": _Key("env_args", int, 3),
    "env.q": _Key("env_args", float, 0.5),
    "algos": _Key("algos", lambda s: _unique([_one_of(a, ALGOS, "algorithm") for a in _to_list(s)]), _REQUIRED),
    "seeds": _Key("seeds", lambda s: _unique([_int_at_least(x, 0) for x in _to_list(s)]), _REQUIRED),
    "budget.n_per_iter": _Key("budget", int),
    "budget.max_iters": _Key("budget", int, _REQUIRED),
    "budget.first_iter_multiplier": _Key("budget", int),
    "budget.shared_data": _Key("budget", _to_bool),
    "regressor.kind": _Key("regressor", str),
    "regressor.n_trees": _Key("regressor", int),
    "regressor.max_depth": _Key("regressor", int),
    "regressor.learning_rate": _Key("regressor", float),
    "regressor.min_leaf": _Key("regressor", int),
    "regressor.subsample": _Key("regressor", float),
    "eval.n_eval": _Key("eval_n", lambda s: _int_at_least(s, 1), 10_000),
    "eval.seed": _Key("eval_seed", lambda s: _int_at_least(s, 0), 0),
    "out_dir": _Key("out_dir", str, _REQUIRED),
}
# The grouped fields, filled entry by entry, and the type each is built as.
_GROUPS = {"env_args": dict, "budget": IterationBudget, "regressor": RegressorConfig}


@dataclass
class ExperimentConfig:
    env_kind: str
    env_args: dict
    algos: list
    seeds: list
    budget: IterationBudget
    regressor: RegressorConfig
    eval_n: int
    eval_seed: int
    out_dir: str
    source_text: str = ""

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kv = parse_flat(text)
        for key in kv:
            if key not in KEYS:
                raise ConfigError(f"unknown key: {key}")
        values: dict = {group: {} for group in _GROUPS}
        for key, spec in KEYS.items():
            name = key.rpartition(".")[2]
            if spec.field == "env_args":
                kind = values["env_kind"]
                if name not in inspect.signature(ENV_KINDS[kind]).parameters:
                    if key in kv:
                        raise ConfigError(f"{key}: not taken by environment kind {kind!r}")
                    continue
            value = _get(kv, key, spec.parse, spec.default)
            if spec.field not in _GROUPS:
                values[spec.field] = value
            elif value is not None:
                values[spec.field][name] = value
        for group, build in _GROUPS.items():
            try:
                values[group] = build(**values[group])
            except ValueError as exc:
                raise ConfigError(f"{group}: {exc}") from exc
        return cls(**values, source_text=text)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def resolved(self) -> dict:
        """Full settings after defaults; this is what the manifest stores."""
        out = {}
        for key, spec in KEYS.items():
            value = getattr(self, spec.field)
            if spec.field in _GROUPS:
                entries = value if isinstance(value, dict) else vars(value)
                name = key.rpartition(".")[2]
                if name not in entries:  # an env.* key the kind does not take
                    continue
                value = entries[name]
            out[key] = value
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_env(config: ExperimentConfig):
    """Instantiate the benchmark model named by the config; values the model
    rejects (say gamma = 1.5) raise ConfigError."""
    try:
        return ENV_KINDS[config.env_kind](**config.env_args)
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from exc
