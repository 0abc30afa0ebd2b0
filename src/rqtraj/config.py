"""Run configuration: INI-style sections with explicit unit suffixes.

The fields of ``RunConfig`` are the one table of config keys: each field's
metadata holds its section, file key (where it differs from the attribute
name), unit and allowed values, and parsing, ``canonical_text`` and
``validate`` each loop over that table.  ``ConfigError`` names the line and
key of a missing or wrong unit (``energy = 2.0 MeV``), an unknown section or
key, nan or inf (also in ``sets``), an empty ``sets``, a fractional
``samples``, ``samples`` above ``MAX_GRID_POINTS`` or a value not allowed;
``validate`` repeats the per-key checks for a config built or changed in
code, and rejects a grid of fewer than 2 or more than ``MAX_GRID_POINTS``
points (``grid_points``).  Every key is set in the config file only: the
CLI takes the file and ``--out``, nothing else.
``canonical_text`` round-trips bit-exactly (floats via repr).  The sha256
(``config_hash``) of that text without its [output] section stamps every
output file, so ``--out`` (or ``[output] dir``) moves the files and
changes no byte of them but the paths a manifest lists.

``samples``, ``t_min`` and ``t_max`` bound what each ``trajectory_i.csv``
holds, by one rule for every trace: of the trace rows with
t_min <= t <= t_max, every k-th from the first and the last, with
k = ceil((n - 1) / (samples - 1)) for n such rows, so at most ``samples``
rows, each a computed row, never resampled (``Trajectory.window_rows``).
Closed-form traces are sampled with ``samples`` points on [t_min, t_max],
so for them the rule keeps every row; a quadrature trace covers the basis
grid and is cropped and thinned.  Fewer than two rows in the window is a
``TooFewSamples`` error for that set.  The validators run on the full
trace; node detection reads the rows inside [t_min, t_max].
"""

# no `from __future__ import annotations`: the loops dispatch on field.type classes
import configparser
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .constants import ELECTRON_MEV
from .errors import ConfigError

# CPython's builtin sha256: hashlib would load OpenSSL's libcrypto for it
try:
    from _sha2 import sha256 as _sha256         # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256   # CPython before 3.12
    except ImportError:
        from hashlib import sha256 as _sha256


# the basis alone would take 400 MB here, five float64 columns (fig3: 137 001 points);
# it also caps ``samples``, the rows of each closed-form trace
MAX_GRID_POINTS = 10**7


def config_hash(text: str) -> str:
    return _sha256(text.encode()).hexdigest()


def _parse_sets(raw: str) -> list:
    sets = []
    for i, chunk in enumerate((c for c in raw.split(";") if c.strip()), start=1):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"entry {i} must be 'a,b', got {chunk.strip()!r}")
        sets.append((float(parts[0]), float(parts[1])))
    return sets


def _parse_direction(raw: str) -> int:
    if raw not in ("+", "-", "+1", "-1"):
        raise ValueError(f"must be + or -, got {raw!r}")
    return 1 if raw.startswith("+") else -1


def _key(section, default, unit=None, key=None, choices=None, above=None, codec=(None, None)):
    """A dataclass field whose metadata is its row: allowed are ``choices`` or values > ``above``."""
    meta = dict(section=section, unit=unit, key=key, choices=choices, above=above, codec=codec)
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    rest_energy: float = _key("particle", ELECTRON_MEV, "MeV", above=0)
    energy: float = _key("particle", 2.0, "MeV")              # total E
    hbar_scale: float = _key("particle", 1.0, above=0)
    potential_kind: str = _key("potential", "constant", key="kind",
                               choices=("constant", "linear", "tabulated"))
    u0: float = _key("potential", 0.0, "MeV")
    slope: float = _key("potential", 1e-3, "MeV/fm")
    table_file: str = _key("potential", "", key="file")
    param_sets: list = _key("trajectories", [(0.2, 0.0), (4.0 / 3.0, -1.05), (0.25, 8.0)], key="sets",
                            codec=(lambda s: "; ".join(f"{a!r},{b!r}" for a, b in s), _parse_sets))
    x0: float = _key("trajectories", 0.0, "fm")
    t_min: float = _key("trajectories", 0.0, "s")
    t_max: float = _key("trajectories", 5.5e-21, "s")
    samples: int = _key("trajectories", 20001, above=1)
    direction: int = _key("trajectories", 1, choices=(1, -1),
                          codec=(lambda d: "+" if d > 0 else "-", _parse_direction))
    sync: str = _key("trajectories", "psi_zero", choices=("psi_zero", "phi2_zero", "exact"))
    method: str = _key("numerics", "rk4", choices=("rk4", "euler"))
    grid_min: float = _key("numerics", -2000.0, "fm")
    grid_max: float = _key("numerics", 1200.0, "fm")
    grid_step: float = _key("numerics", 0.05, "fm", above=0)
    out_dir: str = _key("output", "out", key="dir")

    def validate(self):
        for f in fields(self):
            try:
                _check(f, getattr(self, f.name))
            except ValueError as exc:
                raise ConfigError(f"[{f.metadata['section']}] {_file_key(f)}: {exc}") from None
        if self.potential_kind == "tabulated" and not self.table_file:
            raise ConfigError("[potential] tabulated kind needs file = <path>")
        if not self.grid_min < self.grid_max:
            raise ConfigError("[numerics] grid_min must lie below grid_max")
        self.grid_points()
        if not self.t_min < self.t_max:
            raise ConfigError("[trajectories] t_min must lie below t_max")
        return self

    def grid_points(self) -> int:
        """Points of the grid grid_min + grid_step * i; ConfigError below 2 or above the cap."""
        steps = (self.grid_max - self.grid_min) / self.grid_step
        if not math.isfinite(steps):
            raise ConfigError(f"[numerics] grid_step {self.grid_step!r} fm leaves no finite number "
                              f"of grid points on [{self.grid_min!r}, {self.grid_max!r}] fm")
        n = int(round(steps)) + 1
        if n > MAX_GRID_POINTS:
            raise ConfigError(f"[numerics] grid_step {self.grid_step!r} fm leaves over {MAX_GRID_POINTS} "
                              f"grid points on [{self.grid_min!r}, {self.grid_max!r}] fm")
        if n < 2:
            raise ConfigError(f"[numerics] grid_step {self.grid_step!r} fm leaves {n} grid point on "
                              f"[{self.grid_min!r}, {self.grid_max!r}] fm; the grid needs at least 2")
        return n

    def canonical_text(self, output: bool = True) -> str:
        """Every key, section by section; without the [output] section unless ``output``."""
        sections = {}
        for f in fields(self):
            if output or f.metadata["section"] != "output":
                line = f"{_file_key(f)} = {_format(f, getattr(self, f.name))}\n"
                sections.setdefault(f.metadata["section"], []).append(line)
        return "\n".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())

    @property
    def hash(self) -> str:
        return config_hash(self.canonical_text(output=False))

    def to_file(self, path):
        Path(path).write_text(self.canonical_text())


def _file_key(f) -> str:
    return f.metadata["key"] or f.name


_TABLE = {(f.metadata["section"], _file_key(f)): f for f in fields(RunConfig)}


def _format(f, value) -> str:
    if f.metadata["codec"][0]:
        return f.metadata["codec"][0](value)
    text = repr(value) if f.type is float else str(value)
    return f"{text} {f.metadata['unit']}" if f.metadata["unit"] else text


def _parse(f, raw: str):
    meta = f.metadata
    if meta["codec"][1]:
        return meta["codec"][1](raw)
    if meta["unit"]:
        parts = raw.split()
        if len(parts) != 2 or parts[1] != meta["unit"]:
            raise ValueError(f"must be '<value> {meta['unit']}', got {raw!r}")
        raw = parts[0]
    if f.type is str:
        return raw
    value = float(raw)
    if f.type is int and not value.is_integer():
        raise ValueError(f"must be a whole number, got {raw!r}")
    return f.type(value)


def _check(f, value):
    """Raise ValueError unless ``value`` is finite and allowed for key ``f``."""
    meta = f.metadata
    numbers = [value] if f.type is float else []
    if f.name == "param_sets":
        if not value:
            raise ValueError("needs at least one 'a,b' entry")
        numbers = [v for pair in value for v in pair]
        zero_a = [i for i, (a, _) in enumerate(value, start=1) if a == 0]
        if zero_a:
            raise ValueError(f"entry {zero_a[0]} has a = 0; the hidden parameter a must be "
                             "non-zero (a = 0 collapses the reduced action to a constant)")
    for v in numbers:
        if not math.isfinite(v):
            raise ValueError(f"{v!r} is not a finite number")
    if meta["choices"] and value not in meta["choices"]:
        raise ValueError(f"must be one of {', '.join(map(str, meta['choices']))}, got {value!r}")
    if meta["above"] is not None and not value > meta["above"]:
        raise ValueError(f"must be above {meta['above']}, got {value!r}")
    if f.name == "samples" and value > MAX_GRID_POINTS:
        raise ValueError(f"must be at most {MAX_GRID_POINTS}, got {value!r}")


def _line_of(text: str, section: str, key: str = None) -> int:
    """1-based line of ``[section]``, or of ``key`` in it in any case; 0 if absent."""
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        header = re.match(r"\s*\[(.+)\]", line)
        current = header.group(1) if header else current
        name = None if header else re.split(r"[=:]", line, maxsplit=1)[0].strip().lower()
        if current == section and name == key:
            return i
    return 0


def parse_config(path) -> RunConfig:
    return parse_config_text(Path(path).read_text())


def parse_config_text(text: str) -> RunConfig:
    # [DEFAULT] is an ordinary (so unknown) section, and '%' an ordinary character
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section=None,
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    cfg = RunConfig()
    for section in cp.sections():
        if section not in {s for s, _ in _TABLE}:
            raise ConfigError(f"config line {_line_of(text, section)}: unknown section [{section}]")
        for key, raw in cp.items(section):
            f = _TABLE.get((section, key))
            try:
                if f is None:
                    raise ValueError("unknown key")
                value = _parse(f, raw.strip())
                _check(f, value)
            except ValueError as exc:
                line = _line_of(text, section, key)
                raise ConfigError(f"config line {line}: [{section}] {key}: {exc}") from None
            setattr(cfg, f.name, value)
    return cfg.validate()
