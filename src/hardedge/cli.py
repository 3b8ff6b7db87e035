"""Command-line entry point: configuration, orchestration, persistence.

Subcommands: ``simulate``, ``sample-kernel``, ``sample-equilibrium``,
``experiment <name>`` and ``kernel-table``.  Every run takes a JSON config
document plus ``--set key=value`` overrides and validates it against the
command's schema (unknown keys are rejected).  Every other command writes
one CSV file.  An experiment writes one ``report.json``: its name, the tool
version, statistics, thresholds, verdicts and ``passed``, and the fully
resolved config with the seed, the one record of the run's inputs.
Exit codes: 0 all verdicts pass, 2 an experiment verdict failed, 1 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import OmegaPlusPoint, OrderedConfig, SdeParams
from .equilibrium import inverse_bessel_kernel, inverse_laguerre_samples, laguerre_samples
from .errors import ConfigError, DomainError, HardedgeError
from .experiments import (
    bump_function,
    run_collision_bound,
    run_coupling_l2,
    run_equilibrium,
    run_hard_edge_density,
    run_intertwining,
    run_matrix_eigen_agreement,
    run_uniform_approx,
)
from .kernels import chain_samples
from .rng import RandomSource
from .sde import simulate

FLOAT_FMT = ".17g"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _coerce(value, kind, key):
    try:
        if isinstance(value, bool) != (kind == "bool"):
            raise ValueError  # JSON true/false is the bool kind and nothing else
        if kind == "float":
            out = float(value)
        elif kind == "int":
            out = int(value)
            if out != float(value):
                raise ValueError
        elif kind == "bool":
            out = value
        elif kind == "list":  # every list key holds numbers
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
            ):
                raise ValueError
            out = list(value)
        else:  # pragma: no cover
            raise AssertionError(kind)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        expected = "list of numbers" if kind == "list" else kind
        raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}") from None
    return out


def resolve_config(schema: dict, document: dict, context: str) -> dict:
    """Validate a config document against {key: (kind, default-or-None)}.

    Unknown keys are rejected; required keys (default marker REQUIRED) must
    be present.
    """
    unknown = set(document) - set(schema)
    if unknown:
        raise ConfigError(f"{context}: unknown config keys {sorted(unknown)}")
    resolved = {}
    for key, (kind, default) in schema.items():
        if key in document:
            value = document[key]
            resolved[key] = value if value is None and default is None else _coerce(value, kind, key)
        elif default is REQUIRED:
            raise ConfigError(f"{context}: missing required key {key!r}")
        else:
            resolved[key] = default
    return resolved


REQUIRED = object()


def _apply_overrides(document: dict, overrides: list[str]) -> dict:
    doc = dict(document)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return doc


def _load_config(args, keys: dict, context: str) -> dict:
    """Read --config, apply --set and resolve the result against a command's
    keys; every command also takes an optional integer seed."""
    path = args.config
    if path is None:
        doc = {}
    else:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON at line {exc.lineno}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
    schema = {"seed": ("int", None), **keys}
    return resolve_config(schema, _apply_overrides(doc, args.set), context)


def _nonnegative(value: int, key: str) -> int:
    if value < 0:
        raise ConfigError(f"{key} must be a nonnegative integer, got {value}")
    return value


def _resolve_seed(args, config: dict) -> int:
    """--seed, else the ``seed`` key, else 0."""
    if args.seed is not None:
        return _nonnegative(args.seed, "--seed")
    if config.get("seed") is not None:
        return _nonnegative(config["seed"], "seed")
    return 0


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), FLOAT_FMT) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# A command that writes one CSV file: make(cfg, rng) returns (file name,
# header, rows).
_Command = NamedTuple("_Command", [("help", str), ("keys", dict), ("make", Callable)])


def _simulate(cfg, rng):
    traj = simulate(
        OrderedConfig(cfg["initial"]),
        SdeParams(eta=cfg["eta"], rescaled=cfg["rescaled"]),
        cfg["dt"],
        cfg["save_times"],
        rng,
    )
    header = ["t"] + [f"x{i + 1}" for i in range(traj.n)]
    rows = ([t] + list(state.values) for t, state in zip(traj.times, traj.states))
    return "trajectory.csv", header, rows


def _sample_kernel(cfg, rng):
    samples = chain_samples(OrderedConfig(cfg["x"]), cfg["K"], cfg["n"], rng)
    return "samples.csv", [f"y{i + 1}" for i in range(cfg["K"])], samples


def _sample_equilibrium(cfg, rng):
    sampler = inverse_laguerre_samples if cfg["inverse"] else laguerre_samples
    samples = sampler(cfg["N"], cfg["eta"], cfg["n"], rng)
    return "samples.csv", [f"x{i + 1}" for i in range(cfg["N"])], samples


def _kernel_table(cfg, rng):
    grid = np.asarray([float(g) for g in cfg["grid"]])
    ok = grid.size and np.isfinite(grid).all() and (grid > 0).all() and (np.diff(grid) > 0).all()
    if not ok:
        raise ConfigError(f"grid must be finite, positive and increasing, got {grid.tolist()}")
    x, y = np.meshgrid(grid, grid, indexing="ij")
    rows = zip(x.ravel(), y.ravel(), inverse_bessel_kernel(cfg["eta"], x, y).ravel())
    return "kernel.csv", ["x", "y", "value"], rows


_COMMANDS = {
    "simulate": _Command(
        "integrate one path and save it",
        {
            "initial": ("list", REQUIRED),
            "eta": ("float", 0.0),
            "rescaled": ("bool", False),
            "dt": ("float", 1e-3),
            "save_times": ("list", REQUIRED),
        },
        _simulate,
    ),
    "sample-kernel": _Command(
        "draw chain-kernel samples",
        {
            "x": ("list", REQUIRED),
            "K": ("int", REQUIRED),
            "n": ("int", REQUIRED),
        },
        _sample_kernel,
    ),
    "sample-equilibrium": _Command(
        "draw equilibrium ensemble samples",
        {
            "N": ("int", REQUIRED),
            "eta": ("float", REQUIRED),
            "n": ("int", REQUIRED),
            "inverse": ("bool", True),
        },
        _sample_equilibrium,
    ),
    "kernel-table": _Command(
        "tabulate the inverse Bessel kernel",
        {
            "eta": ("float", REQUIRED),
            "grid": ("list", REQUIRED),
        },
        _kernel_table,
    ),
}


def _cmd(args) -> int:
    command = _COMMANDS[args.command]
    cfg = _load_config(args, command.keys, args.command)
    name, header, rows = command.make(cfg, RandomSource(_resolve_seed(args, cfg)))
    out = os.path.join(args.out, name)
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    return 0


class _Experiment(NamedTuple):
    """An experiment's config keys, with their CLI defaults, and its run_* function.

    ``built`` maps a run_* parameter to (builder, the keys it reads); every
    other key passes as the keyword argument of the same name.  ``threaded``
    is False for a run_* function that takes no ``threads``.
    """

    keys: dict
    run: Callable
    built: dict
    threaded: bool = True

    def pass_through(self) -> list[str]:
        read = {key for _, names in self.built.values() for key in names}
        return [key for key in self.keys if key not in read]

    def __call__(self, cfg: dict, rng: RandomSource, threads: int):
        kwargs = {key: cfg[key] for key in self.pass_through()}
        for param, (build, names) in self.built.items():
            kwargs[param] = build(*(cfg[key] for key in names))
        if self.threaded:
            kwargs["threads"] = threads
        return self.run(rng=rng, **kwargs)


def _geometric_family(sizes):
    if not all(float(m).is_integer() for m in sizes):
        raise DomainError(f"sizes must be whole numbers, got {sizes!r}")
    return [OrderedConfig(m * 0.5 ** np.arange(1, m + 1)) for m in map(int, sizes)]


def _bump(bump):
    if len(bump) != 2:
        raise DomainError(f"bump needs two entries [lo, hi], got {bump!r}")
    return bump_function(*(float(v) for v in bump))


def _omega(omega_xs, gamma):
    xs = np.asarray([float(v) for v in omega_xs])
    return OmegaPlusPoint(xs, float(xs.sum()) if gamma is None else gamma)


_FAMILY = (_geometric_family, ("sizes",))

# Keys are listed by hand, not read from the run_* signatures: several CLI
# defaults differ from the Python ones, and a benchmark may wrap the run_*
# names this module imports in signature-less functions.
_EXPERIMENTS = {
    "intertwining": _Experiment(
        {
            "x": ("list", REQUIRED),
            "t": ("float", REQUIRED),
            "eta": ("float", 0.0),
            "eta_corner_side": ("float", None),
            "n": ("int", REQUIRED),
            "dt": ("float", 5e-4),
            "n_perm": ("int", 500),
        },
        run_intertwining,
        {"x": (OrderedConfig, ("x",))},
    ),
    "uniform-approx": _Experiment(
        {
            "K": ("int", 1),
            "sizes": ("list", REQUIRED),
            "bump": ("list", [0.2, 0.8]),
            "n": ("int", REQUIRED),
            "threshold": ("float", 0.02),
        },
        run_uniform_approx,
        {"g": (_bump, ("bump",)), "config_family": _FAMILY},
    ),
    "equilibrium": _Experiment(
        {
            "N": ("int", REQUIRED),
            "eta": ("float", REQUIRED),
            "x0": ("list", None),
            "t_grid": ("list", REQUIRED),
            "n": ("int", REQUIRED),
            "dt": ("float", 1e-3),
            "n_perm": ("int", 300),
        },
        run_equilibrium,
        {"x0": (lambda x0: None if x0 is None else OrderedConfig(x0), ("x0",))},
    ),
    "coupling-l2": _Experiment(
        {
            "omega_xs": ("list", REQUIRED),
            "gamma": ("float", None),
            "N_list": ("list", REQUIRED),
            "T": ("float", REQUIRED),
            "dt": ("float", 2e-4),
            "eta": ("float", 0.0),
        },
        run_coupling_l2,
        {"omega_target": (_omega, ("omega_xs", "gamma"))},
        threaded=False,
    ),
    "collision-bound": _Experiment(
        {
            "sizes": ("list", REQUIRED),
            "delta": ("float", REQUIRED),
            "eps": ("float", REQUIRED),
            "t": ("float", REQUIRED),
            "n": ("int", REQUIRED),
            "eta": ("float", 0.0),
            "dt": ("float", 1e-3),
        },
        run_collision_bound,
        {"x_family": _FAMILY},
    ),
    "hard-edge-density": _Experiment(
        {
            "N": ("int", REQUIRED),
            "eta": ("float", REQUIRED),
            "n": ("int", REQUIRED),
            "bins": ("list", REQUIRED),
            "top": ("int", 3),
            "min_count": ("int", 100),
        },
        run_hard_edge_density,
        {},
    ),
    "matrix-eigen-agreement": _Experiment(
        {
            "N": ("int", REQUIRED),
            "eta": ("float", 0.0),
            "x0": ("list", REQUIRED),
            "t": ("float", REQUIRED),
            "n": ("int", REQUIRED),
            "dt": ("float", 1e-3),
        },
        run_matrix_eigen_agreement,
        {"x0": (OrderedConfig, ("x0",))},
    ),
}


def _cmd_experiment(args) -> int:
    name = args.name
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}")
    experiment = _EXPERIMENTS[name]
    cfg = _load_config(args, experiment.keys, f"experiment {name}")
    cfg["seed"] = _resolve_seed(args, cfg)
    report = experiment(cfg, RandomSource(cfg["seed"]), args.threads)
    out = os.path.join(args.out, "report.json")
    with open(out, "w") as fh:
        json.dump({**report.as_dict(), "config": cfg}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(report.summary())
    print(f"wrote {out}")
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardedge",
        description="Numerical laboratory for hard-edge eigenvalue diffusions",
    )
    parser.add_argument("--version", action="version", version=f"hardedge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=".", help="output directory")

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        common(p)
        p.set_defaults(func=_cmd)

    p_ex = sub.add_parser("experiment", help="run a named experiment")
    p_ex.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    common(p_ex)
    p_ex.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                      help="worker threads (results are identical for any value)")
    p_ex.set_defaults(func=_cmd_experiment)
    return parser


# Built once on import, with argparse's first gettext lookup, so that main
# only parses.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HardedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
