"""Run configuration: INI-style sections with explicit unit suffixes.

``KEYS`` is the one table of config keys: a row per ``RunConfig``
attribute holds its name, type, section, default, unit, file key (where it
differs from the name), allowed values and codec, and ``RunConfig()``,
parsing, ``canonical_text`` and ``validate`` each loop over that table.
``RunConfig`` is a plain class, so importing this module loads neither
``dataclasses`` nor ``inspect``.  ``ConfigError`` names the line and
key of a missing or wrong unit (``energy = 2.0 MeV``), an unknown section or
key, nan or inf (also in ``sets``), an empty ``sets``, a fractional
``samples``, ``samples`` above ``MAX_GRID_POINTS`` or a value not allowed;
``validate`` repeats the per-key checks for a config built or changed in
code, and rejects a grid of fewer than 2 or more than ``MAX_GRID_POINTS``
points (``grid_points``) and, for a non-constant potential, an ``x0`` off
[grid_min, min(grid_max, ``build.build_grid``'s last point)], where no
trace has a t = 0; a closed form takes any x0 as its origin.  Every key
is set in the config file only: the CLI takes the file and ``--out``,
nothing else.
``canonical_text`` round-trips bit-exactly (floats via repr).  The sha256
(``config_hash``) of that text without its [output] section, followed by
the non-blank lines of the table file a tabulated config names, stamps
every output file.  So ``--out`` (or ``[output] dir``) moves the files and
changes no byte of them but the paths a manifest lists, and two tables at
one path give two hashes.  A table file that cannot be read is a
``ConfigError``.

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

import configparser
import math
import re
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


# the basis alone would take 400 MB here, five float64 columns (fig3: 34 251 points);
# it also caps ``samples``, the rows of each closed-form trace
MAX_GRID_POINTS = 10**7


def config_hash(text: str, table: bytes = b"") -> str:
    """sha256 of ``text`` as UTF-8 followed by ``table``."""
    return _sha256(text.encode() + table).hexdigest()


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


# One row per key: name, type, section, default, unit, file key (None where it
# is the name), choices, above and codec (format, parse).  A value is allowed
# if it is one of ``choices``, or above ``above``, where either is given.
KEYS = (
    ("rest_energy", float, "particle", ELECTRON_MEV, "MeV", None, None, 0, None),
    ("energy", float, "particle", 2.0, "MeV", None, None, None, None),          # total E
    ("hbar_scale", float, "particle", 1.0, None, None, None, 0, None),
    ("potential_kind", str, "potential", "constant", None, "kind",
     ("constant", "linear", "tabulated"), None, None),
    ("u0", float, "potential", 0.0, "MeV", None, None, None, None),
    ("slope", float, "potential", 1e-3, "MeV/fm", None, None, None, None),
    ("table_file", str, "potential", "", None, "file", None, None, None),
    ("param_sets", list, "trajectories", [(0.2, 0.0), (4.0 / 3.0, -1.05), (0.25, 8.0)], None,
     "sets", None, None, (lambda s: "; ".join(f"{a!r},{b!r}" for a, b in s), _parse_sets)),
    ("x0", float, "trajectories", 0.0, "fm", None, None, None, None),
    ("t_min", float, "trajectories", 0.0, "s", None, None, None, None),
    ("t_max", float, "trajectories", 5.5e-21, "s", None, None, None, None),
    ("samples", int, "trajectories", 20001, None, None, None, 1, None),
    ("direction", int, "trajectories", 1, None, None, (1, -1), None,
     (lambda d: "+" if d > 0 else "-", _parse_direction)),
    ("sync", str, "trajectories", "psi_zero", None, None, ("psi_zero", "phi2_zero", "exact"),
     None, None),
    ("method", str, "numerics", "rk4", None, None, ("rk4",), None, None),  # the Magnus step
    ("grid_min", float, "numerics", -2000.0, "fm", None, None, None, None),
    ("grid_max", float, "numerics", 1200.0, "fm", None, None, None, None),
    ("grid_step", float, "numerics", 0.05, "fm", None, None, 0, None),
    ("out_dir", str, "output", "out", None, "dir", None, None, None),
)

# (section, file key) -> row, to look up each key the config file names
_TABLE = {(row[2], row[5] or row[0]): row for row in KEYS}


class RunConfig:
    """One attribute per row of ``KEYS``.  ``RunConfig(**keys)`` sets the
    named keys and leaves every other at its default (a fresh copy of the
    default ``param_sets``); a name that is no key is a TypeError."""

    def __init__(self, **keys):
        for name, _, _, default, *_ in KEYS:
            value = keys.pop(name, default)
            setattr(self, name, list(value) if value is default and type(value) is list else value)
        if keys:
            raise TypeError(f"RunConfig has no key {next(iter(keys))!r}")

    def validate(self):
        for row in KEYS:
            name, _, section, _, _, key, *_ = row
            try:
                _check(row, getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key or name}: {exc}") from None
        if self.potential_kind == "tabulated" and not self.table_file:
            raise ConfigError("[potential] tabulated kind needs file = <path>")
        if not self.grid_min < self.grid_max:
            raise ConfigError("[numerics] grid_min must lie below grid_max")
        hi = min(self.grid_max, self.grid_min + self.grid_step * (self.grid_points() - 1))
        if self.potential_kind != "constant" and not self.grid_min <= self.x0 <= hi:
            raise ConfigError(f"[trajectories] x0 {self.x0!r} fm lies outside the grid "
                              f"[{self.grid_min!r}, {hi!r}] fm")
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
        for row in KEYS:
            name, _, section, _, _, key, *_ = row
            if output or section != "output":
                line = f"{key or name} = {_format(row, getattr(self, name))}\n"
                sections.setdefault(section, []).append(line)
        return "\n".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())

    @property
    def hash(self) -> str:
        """``config_hash`` of the canonical text without [output] and, for a
        tabulated potential, the table file's lines that are not blank (the
        lines ``output.read_csv`` reads); ConfigError if that file cannot be
        read."""
        table = b""
        if self.potential_kind == "tabulated":
            try:
                lines = Path(self.table_file).read_bytes().splitlines()
            except OSError as exc:
                raise ConfigError(f"[potential] file {self.table_file!r}: {exc}") from None
            table = b"\n".join(line for line in lines if line.strip())
        return config_hash(self.canonical_text(output=False), table)

    def to_file(self, path):
        Path(path).write_text(self.canonical_text())


def _format(row, value) -> str:
    _, typ, _, _, unit, _, _, _, codec = row
    if codec:
        return codec[0](value)
    text = repr(value) if typ is float else str(value)
    return f"{text} {unit}" if unit else text


def _parse(row, raw: str):
    _, typ, _, _, unit, _, _, _, codec = row
    if codec:
        return codec[1](raw)
    if unit:
        parts = raw.split()
        if len(parts) != 2 or parts[1] != unit:
            raise ValueError(f"must be '<value> {unit}', got {raw!r}")
        raw = parts[0]
    if typ is str:
        return raw
    value = float(raw)
    if typ is int and not value.is_integer():
        raise ValueError(f"must be a whole number, got {raw!r}")
    return typ(value)


def _check(row, value):
    """Raise ValueError unless ``value`` is finite and allowed for key ``row``."""
    name, typ, _, _, _, _, choices, above, _ = row
    numbers = [value] if typ is float else []
    if name == "param_sets":
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
    if choices and value not in choices:
        raise ValueError(f"must be one of {', '.join(map(str, choices))}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"must be above {above}, got {value!r}")
    if name == "samples" and value > MAX_GRID_POINTS:
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
            row = _TABLE.get((section, key))
            try:
                if row is None:
                    raise ValueError("unknown key")
                value = _parse(row, raw.strip())
                _check(row, value)
            except ValueError as exc:
                line = _line_of(text, section, key)
                raise ConfigError(f"config line {line}: [{section}] {key}: {exc}") from None
            setattr(cfg, row[0], value)
    return cfg.validate()
