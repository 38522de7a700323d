"""Flat key=value run configuration with CLI overrides.

The file format is one `key = value` assignment per line, `#` comments and
blank lines ignored. Lists are comma separated; fractions like 1/3 are
accepted wherever a float is. serialize_config() emits every key, and
parse_config(serialize_config(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigurationError
from .sampler import ESCAPE_POLICIES

METHODS = ("plain", "overlap", "shift")


@dataclass(frozen=True)
class RunConfig:
    model: str = "ring"
    epsilon: float | None = None
    grid_lo: tuple[float, ...] = (-2.0, -2.0)
    grid_hi: tuple[float, ...] = (2.0, 2.0)
    grid_n: tuple[int, ...] = (256, 256)
    dt: float = 0.002
    samples: int = 10_000_000
    burn_in: int = 100_000
    chains: int = 16
    seed: int = 0
    inflate: int = 0
    initial: tuple[float, ...] | None = None
    on_escape: str = "error"
    blocks: tuple[int, ...] = (8, 8)
    method: str = "plain"
    iota: int = 1
    schedule: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0, 0.0)
    cg_rel_tol: float = 1e-10
    cg_max_iters: int = 0
    renormalize: bool = False


def _parse_float(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"bad fraction {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad number {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad integer {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"bad boolean {text!r}")


def _parse_floats(text: str):
    return tuple(_parse_float(tok) for tok in text.split(","))


def _parse_ints(text: str):
    return tuple(_parse_int(tok) for tok in text.split(","))


def _parse_optional_float(text: str):
    return None if text.strip().lower() == "none" else _parse_float(text)


def _parse_optional_floats(text: str):
    return None if text.strip().lower() == "none" else _parse_floats(text)


def _choice(name: str, options: tuple[str, ...]):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in options:
            raise ConfigurationError(f"{name} must be one of {options}, got {value!r}")
        return value

    return parse


def _show(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_KEYS: dict[str, tuple[str, object]] = {
    "model": ("model", str.strip),
    "epsilon": ("epsilon", _parse_optional_float),
    "grid.lo": ("grid_lo", _parse_floats),
    "grid.hi": ("grid_hi", _parse_floats),
    "grid.n": ("grid_n", _parse_ints),
    "sampler.dt": ("dt", _parse_float),
    "sampler.samples": ("samples", _parse_int),
    "sampler.burn_in": ("burn_in", _parse_int),
    "sampler.chains": ("chains", _parse_int),
    "sampler.seed": ("seed", _parse_int),
    "sampler.inflate": ("inflate", _parse_int),
    "sampler.initial": ("initial", _parse_optional_floats),
    "sampler.on_escape": ("on_escape", _choice("on_escape", ESCAPE_POLICIES)),
    "solver.blocks": ("blocks", _parse_ints),
    "solver.method": ("method", _choice("method", METHODS)),
    "solver.iota": ("iota", _parse_int),
    "solver.schedule": ("schedule", _parse_floats),
    "solver.cg_rel_tol": ("cg_rel_tol", _parse_float),
    "solver.cg_max_iters": ("cg_max_iters", _parse_int),
    "solver.renormalize": ("renormalize", _parse_bool),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def _apply(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    try:
        attr, parse = _KEYS[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown config key {key!r}; valid keys: {', '.join(sorted(_KEYS))}"
        ) from None
    return replace(cfg, **{attr: parse(raw)})


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Config built from assignments in text, on top of base or defaults."""
    cfg = base if base is not None else RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        cfg = _apply(cfg, key.strip(), raw.strip())
    return cfg


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """key=value strings (e.g. from repeated --set flags) applied in order."""
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        cfg = _apply(cfg, key.strip(), raw.strip())
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        key = _ATTR_TO_KEY[f.name]
        lines.append(f"{key} = {_show(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
