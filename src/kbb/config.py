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
import json
from dataclasses import dataclass, field

from . import envs
from .algorithms import IterationBudget
from .regression import RegressorConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_flat", "build_env"]

ENV_KINDS = ("random_tabular", "circular", "lqr", "nonlinear", "arch")
ALGOS = ("vi", "fvi", "kbb")


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


def _get(kv: dict, key: str, convert, default=None, required: bool = False):
    if key not in kv:
        if required:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return convert(kv[key])
    except ConfigError:
        raise
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
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kv = parse_flat(text)
        known = {
            "env.kind", "env.n", "env.gamma", "env.seed", "env.d", "env.m", "env.q",
            "algos", "seeds",
            "budget.n_per_iter", "budget.max_iters", "budget.first_iter_multiplier",
            "budget.shared_data",
            "regressor.kind", "regressor.n_trees", "regressor.max_depth",
            "regressor.learning_rate", "regressor.min_leaf", "regressor.subsample",
            "eval.n_eval", "eval.seed", "out_dir",
        }
        for key in kv:
            if key not in known:
                raise ConfigError(f"unknown key: {key}")

        env_kind = _get(kv, "env.kind", str, required=True)
        if env_kind not in ENV_KINDS:
            raise ConfigError(f"env.kind: unknown environment kind {env_kind!r}")
        env_args = {
            "gamma": _get(kv, "env.gamma", float, required=True),
            "seed": _get(kv, "env.seed", int, required=True),
        }
        if env_kind in ("random_tabular", "circular"):
            env_args["n"] = _get(kv, "env.n", int, required=True)
        if env_kind == "lqr":
            env_args["d"] = _get(kv, "env.d", int, default=5)
            env_args["m"] = _get(kv, "env.m", int, default=3)
        if env_kind == "arch":
            env_args["d"] = _get(kv, "env.d", int, default=5)
            env_args["q"] = _get(kv, "env.q", float, default=0.5)

        algos = _get(kv, "algos", lambda s: _unique(_to_list(s)), required=True)
        for a in algos:
            if a not in ALGOS:
                raise ConfigError(f"algos: unknown algorithm {a!r}")
        seeds = _get(kv, "seeds", lambda s: _unique([_int_at_least(x, 0) for x in _to_list(s)]), required=True)

        try:
            budget = IterationBudget(
                n_per_iter=_get(kv, "budget.n_per_iter", int, default=10_000),
                max_iters=_get(kv, "budget.max_iters", int, required=True),
                first_iter_multiplier=_get(kv, "budget.first_iter_multiplier", int, default=4),
                shared_data=_get(kv, "budget.shared_data", _to_bool, default=True),
            )
        except ValueError as exc:
            raise ConfigError(f"budget: {exc}") from exc
        try:
            regressor = RegressorConfig(
                kind=_get(kv, "regressor.kind", str, default="boosted_trees"),
                n_trees=_get(kv, "regressor.n_trees", int, default=200),
                max_depth=_get(kv, "regressor.max_depth", int, default=3),
                learning_rate=_get(kv, "regressor.learning_rate", float, default=0.1),
                min_leaf=_get(kv, "regressor.min_leaf", int, default=5),
                subsample=_get(kv, "regressor.subsample", float, default=1.0),
            )
        except ValueError as exc:
            raise ConfigError(f"regressor: {exc}") from exc
        return cls(
            env_kind=env_kind,
            env_args=env_args,
            algos=algos,
            seeds=seeds,
            budget=budget,
            regressor=regressor,
            eval_n=_get(kv, "eval.n_eval", lambda s: _int_at_least(s, 1), default=10_000),
            eval_seed=_get(kv, "eval.seed", lambda s: _int_at_least(s, 0), default=0),
            out_dir=_get(kv, "out_dir", str, required=True),
            source_text=text,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def resolved(self) -> dict:
        """Full settings after defaults; this is what the manifest stores."""
        return {
            "env.kind": self.env_kind,
            **{f"env.{k}": v for k, v in self.env_args.items()},
            "algos": list(self.algos),
            "seeds": list(self.seeds),
            "budget.n_per_iter": self.budget.n_per_iter,
            "budget.max_iters": self.budget.max_iters,
            "budget.first_iter_multiplier": self.budget.first_iter_multiplier,
            "budget.shared_data": self.budget.shared_data,
            "regressor.kind": self.regressor.kind,
            "regressor.n_trees": self.regressor.n_trees,
            "regressor.max_depth": self.regressor.max_depth,
            "regressor.learning_rate": self.regressor.learning_rate,
            "regressor.min_leaf": self.regressor.min_leaf,
            "regressor.subsample": self.regressor.subsample,
            "eval.n_eval": self.eval_n,
            "eval.seed": self.eval_seed,
            "out_dir": self.out_dir,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_env(config: ExperimentConfig):
    """Instantiate the benchmark model named by the config; values the model
    rejects (say gamma = 1.5) raise ConfigError."""
    kind, args = config.env_kind, config.env_args
    try:
        if kind == "random_tabular":
            return envs.make_random_tabular(args["n"], args["gamma"], args["seed"])
        if kind == "circular":
            return envs.make_circular_walk(args["n"], args["gamma"], args["seed"])
        if kind == "lqr":
            return envs.make_lqr(args["d"], args["m"], args["gamma"], args["seed"])
        if kind == "nonlinear":
            return envs.make_nonlinear(args["gamma"], args["seed"])
        if kind == "arch":
            return envs.make_arch(args["d"], args["q"], args["gamma"], args["seed"])
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from exc
    raise ConfigError(f"env.kind: unknown environment kind {kind!r}")
