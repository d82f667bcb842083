"""Command-line front end.

Subcommands cover a single end-to-end run plus each standalone
computation; every run writes the artifacts it was asked for and a
manifest (resolved config, config hash, master seed, tool version,
file hashes) sufficient to reproduce the output.

Config files are flat ``key = value`` text with dotted sections::

    comb.f_r = 1e7
    grid.oversampling = 16
    noise.term = {alpha = 0, b = 1e-11}
    noise.term = {alpha = -2, b = 1e-1}

Flags override file values.  A key that neither sets keeps the default
of its :class:`~talbotsim.experiments.ExperimentConfig` field; ``_KEYS``
names each key once, with that field, the type of its value and its
flag.  A subcommand takes the flags of the keys its study reads
(``Study.keys``), and each flag sets the config key that ``--help``
shows as its metavar (``--f-r COMB.F_R``); a config file sets any key
for any study.
Exit codes: 0 success, 2 configuration error, 3 resource-budget
refusal, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .dispersion import KINDS
from .errors import BudgetError, ConfigError
from .experiments import STUDIES, ExperimentConfig, _human_bytes, dry_run, run_study
from .model import NoiseProfile, estimate_memory
from .synthesis import default_noise_profile

__all__ = ["parse_config", "experiment_config", "main"]


#: Every config key: the ExperimentConfig field it sets (``comb.*`` set
#: the comb's), the type of its value (``[type]`` for a comma list, a
#: tuple for one of those strings), and its flag and the flag's help, or
#: None for a key that only a config file sets.  ``noise.term`` lines add
#: up, one ``{alpha, b}`` term each.
_KEYS: dict[str, tuple[str | None, object, str | None, str | None]] = {
    "comb.f_r": ("f_r", float, "--f-r", "repetition rate, Hz"),
    "comb.lambda0": ("lambda0", float, "--lambda0", "center wavelength, m"),
    "comb.width": ("width", float, "--width", "comb width, Hz"),
    "grid.oversampling": ("oversampling", int, "--oversampling", "samples per carrier period"),
    "grid.t_sig": ("t_sig", float, "--t-sig", "time window, s"),
    "dispersion.kinds": ("kinds", [str], "--kinds", "comma list of kinds"),
    "dispersion.m": ("m", int, "--m", "upconversion factor"),
    "dispersion.table": ("table", str, "--table", "tabulated dispersion file"),  # empty: no table
    "noise.enabled": ("noise_enabled", bool, "--pure-tone", "noise.enabled = false"),
    "noise.term": ("noise", [dict], None, None),
    "noise.f_low": ("noise", float, None, None),  # 0 means "use the grid resolution df"
    "analysis.offsets": ("offsets", [float], "--offsets", "comma list, Hz"),
    "sweep.ratios": ("ratios", [int], "--ratios", "comma list of ratios"),
    "sweep.widths": ("widths", [float], "--widths", "comma list of comb widths, Hz"),
    "seeds.count": ("n_seeds", int, "--seeds", "seeds per sweep point"),
    "seeds.master": ("master_seed", int, "--seed", "master seed"),
    "run.out_dir": ("out_dir", str, "--out", "output directory"),
    "run.format": (None, ("csv", "csv+svg"), "--format", "artifact format (run.format)"),  # read here alone
    "run.memory_budget_bytes": ("memory_budget_bytes", int, "--memory-budget", "bytes"),
    "run.workers": ("workers", int, None, None),
}

#: The keys ``estimate-memory`` takes flags for: the budget, and the
#: grids, combs, offsets and seeds of the budgeted studies.
_ESTIMATE_KEYS = (
    "run.memory_budget_bytes", "comb.f_r", "comb.lambda0", "comb.width",
    "grid.oversampling", "grid.t_sig", "analysis.offsets", "seeds.count",
)

#: Each study's own arguments, which set no config key: name to argparse settings.
_ARGS = {
    "simulate": {
        "kind": {"default": "ideal", "choices": [*KINDS, "none"]},
        "points": {"type": int, "default": 120, "help": "spectrum points"},
        "jitter_band": {"help": "f_min:f_max, Hz"},
    },
    "dispersion-eval": {"kind": {"default": "ideal", "choices": list(KINDS)}},
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def experiment_config(values: dict) -> ExperimentConfig:
    """The ExperimentConfig that ``values`` (config key to value) set.

    A key that is not in ``values`` keeps ExperimentConfig's default.
    """
    comb, fields = {}, {}
    for key, value in values.items():
        name = _KEYS[key][0]
        if key.startswith("comb."):
            comb[name] = value
        elif name not in (None, "noise"):
            fields[name] = tuple(value) if isinstance(value, list) else value
    fields["table"] = fields.get("table") or None
    terms = values.get("noise.term")
    f_low = values.get("noise.f_low")
    t_sig = fields.get("t_sig", ExperimentConfig.t_sig)
    try:
        if (terms or f_low) and t_sig > 0:  # ExperimentConfig refuses any other t_sig
            # An f_low with no terms applies to the default profile's terms.
            terms = tuple((t["alpha"], t["b"]) for t in terms or ()) or default_noise_profile().terms
            fields["noise"] = NoiseProfile(terms=terms, f_low=f_low or 1.0 / t_sig)
        return ExperimentConfig(comb=replace(ExperimentConfig.comb, **comb), **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_scalar(token: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_list(text: str) -> list:
    return [_parse_scalar(part) for part in text.split(",") if part.strip()]


def _parse_value(token: str, where: str):
    token = token.strip()
    if token.startswith("{"):
        if not token.endswith("}"):
            raise ConfigError(f"{where}: unterminated inline table {token!r}")
        table = {}
        body = token[1:-1].strip()
        if body:
            for item in body.split(","):
                if "=" not in item:
                    raise ConfigError(f"{where}: expected 'name = value' inside {{...}}, got {item!r}")
                name, raw = item.split("=", 1)
                table[name.strip()] = _parse_scalar(raw)
        return table
    if "," in token:
        return _parse_list(token)
    return _parse_scalar(token)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce_one(key: str, kind, value, where: str):
    """``value`` as one value of ``kind``; ConfigError if it is not one."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where}: {key} must be {' or '.join(kind)}, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict) or set(value) != {"alpha", "b"}:
            raise ConfigError(
                f"{where}: {key} takes an inline table {{alpha = <num>, b = <num>}}, got {value!r}"
            )
        if not all(_is_number(value[f]) for f in ("alpha", "b")):
            raise ConfigError(f"{where}: {key} fields must be numbers")
        return value
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = _is_number(value) and (isinstance(value, int) or value.is_integer())
    elif kind is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ConfigError(f"{where}: {key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


def _coerce(key: str, value, where: str):
    kind = _KEYS[key][1]
    if isinstance(kind, list):
        items = value if isinstance(value, list) else [value]
        return [_coerce_one(key, kind[0], item, where) for item in items]
    return _coerce_one(key, kind, value, where)


def _read_config_file(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    out: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, rhs = line.split("=", 1)
        key = key.strip()
        where = f"{path}:{lineno}"
        if "{" in rhs and "}" not in rhs:
            raise ConfigError(f"{where}: unterminated inline table")
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        value = _coerce(key, _parse_value(rhs, where), where)
        if key == "noise.term":
            out.setdefault(key, []).extend(value)
        elif key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        else:
            out[key] = value
    return out


def parse_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """The config keys set by the file at ``path``, then by ``overrides``.

    Keys that neither sets are absent; :func:`experiment_config` gives
    them ExperimentConfig's defaults.
    """
    values = {} if path is None else _read_config_file(Path(path))
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        values[key] = _coerce(key, value, "override")
    return values


def _estimate_memory(cfg: ExperimentConfig) -> int:
    """Print the paper's storage figures for the grid, then the figure each
    study's guard predicts, and refuse, naming every study whose
    guard would refuse it.  Offsets a sweep would refuse are a config
    error here too."""
    for representation in ("full_band", "reduced"):
        n_bytes = estimate_memory(representation, cfg.comb, cfg.grid)
        print(f"storage, {representation}: {n_bytes} bytes ({_human_bytes(n_bytes)})")
    figures = dry_run(cfg)
    for name, n_bytes in figures.items():
        print(f"{name}: {n_bytes} bytes ({_human_bytes(n_bytes)})")
    over = [name for name, n_bytes in figures.items() if n_bytes > cfg.memory_budget_bytes]
    if over:
        raise BudgetError(
            f"{', '.join(over)} would refuse, over the budget of {_human_bytes(cfg.memory_budget_bytes, True)}",
            estimate_bytes=figures[over[0]],
        )
    return 0


def _jitter_band(text: str) -> tuple[float, float]:
    try:
        f_min, f_max = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"--jitter-band takes f_min:f_max in Hz, got {text!r}") from None
    return f_min, f_max


def _run_study(cfg: ExperimentConfig, render_svg: bool, args) -> int:
    study = STUDIES[args.command]
    study_args = {name: getattr(args, name) for name in study.args}
    if study_args.get("jitter_band") is not None:
        study_args["jitter_band"] = _jitter_band(study_args["jitter_band"])
    result, files = run_study(study.name, cfg, study_args, render_svg)
    if study.report is not None:
        print(study.report(result))
    print(f"wrote {len(files)} files to {cfg.out_dir}")
    return 0


def _add_flags(parser: argparse.ArgumentParser, keys, args: dict):
    """``--config``, the flag of each of ``keys`` that has one, and one
    for each of ``args``, the study's own arguments."""
    parser.add_argument("--config", help="config file (key = value lines)")
    for key in keys:
        _, kind, flag, help_text = _KEYS[key]
        if flag is None:
            continue
        if kind is bool:  # --pure-tone, the one such flag, turns its key off
            settings = {"action": "store_const", "const": False}
        elif isinstance(kind, tuple):
            settings = {"choices": kind}
        else:
            settings = {"type": _parse_list if isinstance(kind, list) else kind}
        # The dest is the config key the flag sets; --help shows it as the metavar.
        parser.add_argument(flag, dest=key, help=help_text, **settings)
    for name, settings in args.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **settings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: each
    ``parse_args`` call fills a namespace of its own.

    Each study in :data:`~talbotsim.experiments.STUDIES` is a subcommand
    whose flags are those of the config keys it reads; no flag may be
    abbreviated, so a flag one subcommand lacks is never read as a
    longer one it has (``--width`` as ``--widths``).
    """
    parser = argparse.ArgumentParser(
        prog="talbotsim",
        description="Phase-noise simulator for comb upconversion through dispersive elements",
    )
    parser.add_argument("--version", action="version", version=f"talbotsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for study in STUDIES.values():
        p = sub.add_parser(study.name, help=study.help, allow_abbrev=False)
        _add_flags(p, study.keys, {name: _ARGS[study.name][name] for name in study.args})
    p = sub.add_parser(
        "estimate-memory", help="the budget guard's figure per study, without running it", allow_abbrev=False
    )
    _add_flags(p, _ESTIMATE_KEYS, {})
    return parser


def _overrides_from_args(args) -> dict:
    """The config keys the flags of ``args`` set."""
    return {key: value for key, value in vars(args).items() if key in _KEYS and value is not None}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        values = parse_config(args.config, _overrides_from_args(args))
        cfg = experiment_config(values)
        if args.command == "estimate-memory":
            return _estimate_memory(cfg)
        return _run_study(cfg, values.get("run.format") == "csv+svg", args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
