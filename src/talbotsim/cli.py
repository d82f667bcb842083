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

Flags override file values, which override the documented defaults.
Exit codes: 0 success, 2 configuration error, 3 resource-budget
refusal, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import BudgetError, ConfigError
from .experiments import STUDIES, ExperimentConfig, run_study
from .model import CombSpec, NoiseProfile, estimate_memory

__all__ = ["CliConfig", "parse_config", "main"]


#: Documented defaults (desk scale).  Every configurable key appears here.
DEFAULTS: dict[str, object] = {
    "comb.f_r": 1e7,
    "comb.lambda0": 1550e-9,
    "comb.width": 1e9,
    "grid.oversampling": 16,
    "grid.t_sig": 2e-3,
    "dispersion.kinds": ["ideal", "linear", "constant"],
    "dispersion.m": 1,
    "dispersion.table": "",
    "noise.enabled": True,
    "noise.term": [],
    "noise.f_low": 0.0,  # 0 means "use the grid resolution df"
    "analysis.offsets": [1e4, 1e6],
    "sweep.ratios": [4, 8, 16, 32, 64],
    "sweep.widths": [1e8, 2e8, 5e8, 1e9, 2e9, 5e9, 1e10, 2e10],
    "seeds.count": 10,
    "seeds.master": 12345,
    "run.out_dir": "out",
    "run.format": "csv",
    "run.memory_budget_bytes": 1 << 30,
    "run.workers": 1,
}

_LIST_KEYS = {"dispersion.kinds", "analysis.offsets", "sweep.ratios", "sweep.widths"}
_ACCUMULATE_KEYS = {"noise.term"}


@dataclass
class CliConfig:
    """Resolved configuration of one CLI invocation."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def experiment_config(self) -> ExperimentConfig:
        v = self.values
        try:
            noise = None
            if v["noise.term"]:
                f_low = v["noise.f_low"] or 1.0 / v["grid.t_sig"]
                terms = tuple((t["alpha"], t["b"]) for t in v["noise.term"])
                noise = NoiseProfile(terms=terms, f_low=f_low)
            return ExperimentConfig(
                comb=CombSpec(f_r=v["comb.f_r"], lambda0=v["comb.lambda0"], width=v["comb.width"]),
                oversampling=int(v["grid.oversampling"]),
                t_sig=v["grid.t_sig"],
                kinds=tuple(v["dispersion.kinds"]),
                m=int(v["dispersion.m"]),
                table=Path(v["dispersion.table"]) if v["dispersion.table"] else None,
                noise=noise,
                noise_enabled=v["noise.enabled"],
                offsets=tuple(float(o) for o in v["analysis.offsets"]),
                ratios=tuple(int(r) for r in v["sweep.ratios"]),
                widths=tuple(float(w) for w in v["sweep.widths"]),
                n_seeds=int(v["seeds.count"]),
                master_seed=int(v["seeds.master"]),
                out_dir=Path(v["run.out_dir"]),
                memory_budget_bytes=int(v["run.memory_budget_bytes"]),
                workers=int(v["run.workers"]),
            )
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
        return [_parse_scalar(part) for part in token.split(",") if part.strip()]
    return _parse_scalar(token)


def _coerce(key: str, value, where: str):
    if key in _ACCUMULATE_KEYS:
        if not isinstance(value, dict) or set(value) != {"alpha", "b"}:
            raise ConfigError(
                f"{where}: {key} takes an inline table {{alpha = <num>, b = <num>}}, got {value!r}"
            )
        if not all(isinstance(value[f], (int, float)) and not isinstance(value[f], bool) for f in ("alpha", "b")):
            raise ConfigError(f"{where}: {key} fields must be numbers")
        return value
    default = DEFAULTS[key]
    if key in _LIST_KEYS:
        items = value if isinstance(value, list) else [value]
        elem = default[0] if default else None
        if isinstance(elem, str):
            if not all(isinstance(i, str) for i in items):
                raise ConfigError(f"{where}: {key} must be a list of names, got {value!r}")
            return [str(i) for i in items]
        try:
            return [float(i) for i in items]
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: {key} must be a list of numbers, got {value!r}") from None
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value == int(value):
            return int(value)
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    if not isinstance(value, str):
        raise ConfigError(f"{where}: {key} must be a string, got {value!r}")
    return value


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
        # Inline tables contain '=' too; re-join if the key has a brace.
        key = key.strip()
        where = f"{path}:{lineno}"
        if "{" in rhs and "}" not in rhs:
            raise ConfigError(f"{where}: unterminated inline table")
        if key not in DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        value = _parse_value(rhs, where)
        value = _coerce(key, value, where)
        if key in _ACCUMULATE_KEYS:
            out.setdefault(key, []).append(value)
        elif key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        else:
            out[key] = value
    return out


def parse_config(path: str | Path | None = None, overrides: dict | None = None) -> CliConfig:
    """Resolve defaults < config file < explicit overrides into a CliConfig."""
    values = {k: (list(v) if isinstance(v, list) else v) for k, v in DEFAULTS.items()}
    if path is not None:
        values.update(_read_config_file(Path(path)))
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"override: unknown key {key!r}")
        if key in _ACCUMULATE_KEYS:
            values[key] = [_coerce(key, v, "override") for v in value]
        else:
            values[key] = _coerce(key, value, "override")
    return CliConfig(values=values)


def _human_bytes(n: float) -> str:
    if n >= 2**30:
        return f"{n / 2**30:.1f} GiB"
    if n >= 2**20:
        return f"{n / 2**20:.1f} MiB"
    return f"{n:.0f} B"


def _estimate_memory(cli: CliConfig, args) -> int:
    cfg = cli.experiment_config()
    representation = {"full": "full_band", "reduced": "reduced"}[args.representation]
    n_bytes = estimate_memory(representation, cfg.comb, cfg.grid, args.bytes_per_sample)
    print(f"{representation}: {n_bytes} bytes ({_human_bytes(n_bytes)})")
    if n_bytes > cfg.memory_budget_bytes:
        raise BudgetError(
            f"estimate {_human_bytes(n_bytes)} exceeds the budget of "
            f"{_human_bytes(cfg.memory_budget_bytes)}",
            estimate_bytes=n_bytes,
        )
    return 0


def _jitter_band(text: str) -> tuple[float, float]:
    try:
        f_min, f_max = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"--jitter-band takes f_min:f_max in Hz, got {text!r}") from None
    return f_min, f_max


def _run_study(cli: CliConfig, args) -> int:
    cfg = cli.experiment_config()
    study = STUDIES[args.command]
    study_args = {name: getattr(args, name) for name in study.args}
    if study_args.get("jitter_band") is not None:
        study_args["jitter_band"] = _jitter_band(study_args["jitter_band"])
    result, files = run_study(study.name, cfg, study_args, cli["run.format"] == "csv+svg")
    if study.report is not None:
        print(study.report(result))
    print(f"wrote {len(files)} files to {cfg.out_dir}")
    return 0


#: Maps command-line flags onto config keys.
_FLAG_KEYS = {
    "f_r": "comb.f_r",
    "lambda0": "comb.lambda0",
    "width": "comb.width",
    "oversampling": "grid.oversampling",
    "t_sig": "grid.t_sig",
    "kinds": "dispersion.kinds",
    "offsets": "analysis.offsets",
    "ratios": "sweep.ratios",
    "widths": "sweep.widths",
    "seeds": "seeds.count",
    "seed": "seeds.master",
    "out": "run.out_dir",
    "format": "run.format",
    "memory_budget": "run.memory_budget_bytes",
    "table": "dispersion.table",
    "m": "dispersion.m",
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--format", choices=["csv", "csv+svg"], help="artifact format")
    parser.add_argument("--memory-budget", type=int, dest="memory_budget", help="bytes")
    parser.add_argument("--f-r", type=float, dest="f_r", help="repetition rate, Hz")
    parser.add_argument("--lambda0", type=float, help="center wavelength, m")
    parser.add_argument("--width", type=float, help="comb width, Hz")
    parser.add_argument("--oversampling", type=int, help="samples per carrier period")
    parser.add_argument("--t-sig", type=float, dest="t_sig", help="time window, s")
    parser.add_argument("--offsets", help="comma list of offsets, Hz")
    parser.add_argument("--seeds", type=int, help="seeds per sweep point")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotsim",
        description="Phase-noise simulator for comb upconversion through dispersive elements",
    )
    parser.add_argument("--version", action="version", version=f"talbotsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single run: synth, plan, superpose, spectrum CSV")
    _add_common(p)
    p.add_argument("--kind", default="ideal", choices=["ideal", "linear", "constant", "tabulated", "none"])
    p.add_argument("--pure-tone", action="store_true", dest="pure_tone")
    p.add_argument("--points", type=int, default=120, help="spectrum points")
    p.add_argument("--jitter-band", dest="jitter_band", help="f_min:f_max, Hz")
    p.add_argument("--table", help="tabulated dispersion file")

    p = sub.add_parser("sweep-oversampling", help="L vs oversampling ratio")
    _add_common(p)
    p.add_argument("--ratios", help="comma list of oversampling ratios")

    p = sub.add_parser("sweep-comb-width", help="L vs comb width per dispersion kind")
    _add_common(p)
    p.add_argument("--widths", help="comma list of comb widths, Hz")
    p.add_argument("--kinds", help="comma list of dispersion kinds")

    p = sub.add_parser("offsets-diff", help="per-line plan differences vs ideal")
    _add_common(p)
    p.add_argument("--widths", help="comma list of comb widths, Hz")

    p = sub.add_parser("dispersion-eval", help="tabulate a dispersion spec and its plan")
    _add_common(p)
    p.add_argument("--kind", default="ideal", choices=["ideal", "linear", "constant", "tabulated"])
    p.add_argument("--m", type=int, default=None, help="upconversion factor")
    p.add_argument("--table", help="tabulated dispersion file")

    p = sub.add_parser("estimate-memory", help="predict signal storage needs")
    _add_common(p)
    p.add_argument("--representation", default="reduced", choices=["full", "reduced"])
    p.add_argument("--bytes-per-sample", type=float, default=8, dest="bytes_per_sample")
    return parser


def _overrides_from_args(args) -> dict:
    overrides: dict[str, object] = {}
    for attr, key in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        if key in _LIST_KEYS and isinstance(value, str):
            value = [_parse_scalar(tok) for tok in value.split(",") if tok.strip()]
        overrides[key] = value
    if getattr(args, "pure_tone", False):
        overrides["noise.enabled"] = False
    if getattr(args, "width", None) is not None and "sweep.widths" not in overrides:
        # A single --width also narrows the sweep width list for offsets-diff.
        if getattr(args, "command", "") == "offsets-diff" and getattr(args, "widths", None) is None:
            overrides["sweep.widths"] = [args.width]
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cli = parse_config(args.config, _overrides_from_args(args))
        if args.command == "estimate-memory":
            return _estimate_memory(cli, args)
        return _run_study(cli, args)
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
