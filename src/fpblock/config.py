"""Flat key=value run configuration with CLI overrides.

The file format is one `key = value` assignment per line, `#` comments and
blank lines ignored. Lists are comma separated; fractions like 1/3 are
accepted wherever a float is. serialize_config() emits every key, and
parse_config(serialize_config(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

from .errors import ConfigurationError
from .grids import _check_block_counts, _check_shift_fractions
from .leastnorm import SolveOptions
from .repair import DEFAULT_SHIFT_SCHEDULE, METHODS
from .sampler import SamplerConfig


@dataclass(frozen=True)
class RunConfig:
    model: str = "ring"
    epsilon: float | None = None
    grid_lo: tuple[float, ...] = (-2.0, -2.0)
    grid_hi: tuple[float, ...] = (2.0, 2.0)
    grid_n: tuple[int, ...] = (256, 256)
    sampler: SamplerConfig = SamplerConfig(n_samples=10_000_000)
    inflate: int = 0
    blocks: tuple[int, ...] = (8, 8)
    method: str = "plain"
    iota: int = 1
    schedule: tuple[float, ...] = DEFAULT_SHIFT_SCHEDULE
    solve: SolveOptions = SolveOptions()
    renormalize: bool = False

    def __post_init__(self):
        # each field on its own, never against another: a later override may
        # still change the grid that the block counts must divide
        _check_block_counts(self.blocks)
        _check_shift_fractions(self.schedule)
        if self.iota < 0:
            raise ConfigurationError(f"iota must be nonnegative, got {self.iota}")


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


def _parse_method(text: str) -> str:
    if text.strip() not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {text.strip()!r}")
    return text.strip()


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


# Each key names the RunConfig attribute it sets; a dotted path sets a field of
# the SamplerConfig or SolveOptions the run uses, which validate it at once.
_KEYS: dict[str, tuple[str, object]] = {
    "model": ("model", str.strip),
    "epsilon": ("epsilon", _parse_optional_float),
    "grid.lo": ("grid_lo", _parse_floats),
    "grid.hi": ("grid_hi", _parse_floats),
    "grid.n": ("grid_n", _parse_ints),
    "sampler.dt": ("sampler.dt", _parse_float),
    "sampler.samples": ("sampler.n_samples", _parse_int),
    "sampler.burn_in": ("sampler.burn_in", _parse_int),
    "sampler.chains": ("sampler.n_chains", _parse_int),
    "sampler.seed": ("sampler.seed", _parse_int),
    "sampler.inflate": ("inflate", _parse_int),
    "sampler.initial": ("sampler.initial", _parse_optional_floats),
    "sampler.on_escape": ("sampler.on_escape", str.strip),
    "solver.blocks": ("blocks", _parse_ints),
    "solver.method": ("method", _parse_method),
    "solver.iota": ("iota", _parse_int),
    "solver.schedule": ("schedule", _parse_floats),
    "solver.cg_rel_tol": ("solve.cg_rel_tol", _parse_float),
    "solver.cg_max_iters": ("solve.cg_max_iters", _parse_int),
    "solver.renormalize": ("renormalize", _parse_bool),
}


def _apply(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    try:
        path, parse = _KEYS[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown config key {key!r}; valid keys: {', '.join(sorted(_KEYS))}"
        ) from None
    value = parse(raw)
    outer, _, attr = path.rpartition(".")
    if outer:
        attr, value = outer, replace(getattr(cfg, outer), **{attr: value})
    return replace(cfg, **{attr: value})


def parse_config(text: str) -> RunConfig:
    """Config built from assignments in text, on top of the defaults."""
    cfg = RunConfig()
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
    return "".join(
        f"{key} = {_show(attrgetter(path)(cfg))}\n" for key, (path, _) in _KEYS.items()
    )
