"""Study configuration, the sweep driver, and file export.

A study is described by one JSON file: geometry, diffusivities, kinetics,
initial data, time horizon, the list of scale parameters, refinements, and
output options.  Running a study solves the channel-resolved problem for
every scale parameter, solves the limit model once, computes the
unfolding-based error norms per scale, and writes a report CSV, the field
snapshots (one float64 `.npy` array per run, plus each limit-model snapshot's
interface traces as CSV), and a manifest with content hashes.  Everything is
rebuildable: the `report` entry point re-derives the report from the stored
fields and the config echoed in the manifest, byte for byte, and `export`
writes the stored snapshots as CSV for human readers.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import time as _time
import tokenize
import warnings
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import microsim
from .errors import AlignmentError, ConfigError
from .geometry import (
    BULK_M,
    BULK_P,
    CHAN,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from .grid import Field, build_cell_grid, build_micro_grid, check_alignment, wall_faces
from .kinetics import BASE_KINDS, InitialData, KineticsSpec
from .macrosim import InterfaceLayout, MacroSimulation, MacroState
from .microsim import (
    DiffusionSpec,
    KineticsBundle,
    MicroSimulation,
    MicroState,
    channel_tensor,
    snapshot_steps,
    step_count,
    two_point_stiffness,
)
from .twoscale import (
    TwoScaleReport,
    Unfolder,
    apriori_norm,
    calibrate_trace_constant,
    margin_columns,
    shift_diagnostic,
    trace_inequality_diagnostic,
    ts_error,
)

SCHEMA_VERSION = 1   # config format: the "schema" of a config and of its echo
STUDY_SCHEMA = 3     # study format: the "schema" of manifest.json (3: one float64 .npy per run)
_TAG_NAMES = {BULK_P: "bulk+", BULK_M: "bulk-", CHAN: "channel"}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _number(raw, path, integer=False):
    """A float (or integral int) whose float is finite; ConfigError naming the path."""
    if isinstance(raw, (bool, str)):  # float(True) and float("2.5") parse, but neither is a number
        raise ConfigError(f"{path}: not a finite number ({raw!r})")
    try:
        val = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond floats
        raise ConfigError(f"{path}: not a finite number ({raw!r})") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{path}: not a finite number ({raw!r})")
    if not integer:
        return val
    if not val.is_integer():
        raise ConfigError(f"{path}: not an integer ({raw!r})")
    return raw if isinstance(raw, int) else int(val)  # ints stay exact beyond 2**53


def _rational(raw, path) -> Fraction:
    """An exact rational whose float is finite: a JSON number, or a string such as "1/4"."""
    text = str(raw)
    try:
        exponent = text.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > 400:  # Fraction would compute 10**exponent
            raise ValueError(f"exponent {exponent}")
        val = Fraction(text)
        float(val)  # OverflowError beyond the float range
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{path}: not a rational number with a finite float ({raw!r})") from exc
    return val


def _at_least(low):
    """The read check `value >= low`."""
    return lambda val: None if val >= low else f"must be >= {low}"


def _positive(val):
    return None if val > 0 else "must be > 0"


_REQUIRED = object()


class _Reader:
    """A JSON object (or array) at `path` whose reads record what they return.

    A read takes a key's value (its default if the key is absent), converts and
    checks it, and records the result, so `echo()` is the value as the parser
    read it: defaults filled in, exact rationals as `str`.  A check returns an
    error message or None; every error names the path of its key.
    `check_known()` then refuses a key that no read asked for.
    """

    def __init__(self, raw, path, size=None, array=False):
        if array:
            ok = isinstance(raw, (list, tuple)) and size in (None, len(raw))
            want = f"an array of {size} entries" if size else "an array"
        else:
            ok, want = isinstance(raw, dict), "an object"
        if not ok:
            raise ConfigError(f"{path}: expected {want}")
        self.raw, self.path, self.got = raw, path, {}
        self.echo_as = None  # an echo written by hand, in place of the recorded reads

    def at(self, key) -> str:
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    def value(self, key, default=_REQUIRED, check=None, convert=None):
        """The value at `key` (or `default`) as convert(value, path) returns it, refused if
        check(value) returns a message, and recorded."""
        if isinstance(self.raw, dict) and key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"{self.at(key)} required")
            val = default
        else:
            val = self.raw[key]
        if convert is not None:
            val = convert(val, self.at(key))
        message = check(val) if check is not None else None
        if message:
            raise ConfigError(f"{self.at(key)}: {message}")
        self.got[key] = val
        return val

    def number(self, key, default=_REQUIRED, integer=False, check=None):
        return self.value(key, default, check, lambda raw, path: _number(raw, path, integer))

    def rational(self, key, default=_REQUIRED, check=None) -> Fraction:
        return self.value(key, default, check, _rational)

    def obj(self, key, default=_REQUIRED):
        """The object at `key` as a reader; with default None, None if it is absent or null."""
        return self.value(key, default, convert=lambda raw, path: (
            None if raw is None and default is None else _Reader(raw, path)))

    def array(self, key, size=None):
        return self.value(key, convert=lambda raw, path: _Reader(raw, path, size, array=True))

    def each(self, read) -> list:
        """read(self, i) for every entry i of an array."""
        return [read(self, i) for i in range(len(self.raw))]

    def echo(self):
        """What the reads returned (None left out), or `echo_as` if it is set."""
        if self.echo_as is not None:
            return self.echo_as
        out = {key: val.echo() if isinstance(val, _Reader) else
               str(val) if isinstance(val, Fraction) else val
               for key, val in self.got.items() if val is not None}
        return out if isinstance(self.raw, dict) else [out[i] for i in range(len(self.raw))]

    def check_known(self):
        """ConfigError naming a key, of this object or one read below it, that no read asked for."""
        for key in self.raw if isinstance(self.raw, dict) else ():
            if key not in self.got:
                raise ConfigError(f"{self.at(key)}: unknown key")
        for val in self.got.values():
            if isinstance(val, _Reader):
                val.check_known()


@dataclass
class StudyConfig:
    echo: dict           # fully defaulted config, JSON-serializable
    cell: object
    H: Fraction
    diffusion: DiffusionSpec
    kinetics: KineticsBundle
    initial: InitialData
    epsilons: list       # Fractions, strictly decreasing
    T: float
    dt: float
    k: int
    m: int
    n_sigma: int
    snapshot_stride: int
    shift_l: int
    shift_h: float
    theta: float
    output_dir: str
    seed: int


def _kinetics_spec(spec: _Reader) -> KineticsSpec:
    kind = spec.value("kind", check=lambda kind: (
        None if isinstance(kind, str) and kind in BASE_KINDS else f"unknown kinetics kind {kind!r}"))
    params = {name: spec.array(name).each(_Reader.number) if kind == "tabulated"
              else spec.number(name) for name in BASE_KINDS[kind]}
    mod = spec.obj("modulation", None)
    modulation = None if mod is None else (mod.value("kind"), mod.number("amplitude"))
    try:
        return KineticsSpec(kind, params, modulation)
    except ValueError as exc:
        raise ConfigError(f"{spec.path}: {exc}") from exc


def _initial_fn(ini: _Reader, channel=False):
    """Initial values as a function of coordinate arrays (scalars broadcast).

    Initial data is echoed as given, without the default `frequency`.
    """
    ini.echo_as = dict(ini.raw)
    kind = ini.value("kind")
    num = ini.number

    def freq():
        return num("frequency", 1, integer=True)

    def bounded(bound, fn):
        """fn, once the bound of its values' magnitude (|yn|, |cos| <= 1) is finite."""
        if not math.isfinite(bound):
            raise ConfigError(f"{ini.path}: initial values overflow (magnitude bound {bound})")
        return fn

    if kind == "constant":
        v = num("value")
        if channel:
            return lambda xb, yb, yn: v
        return lambda x, y: v
    if kind == "cosine_xbar" and not channel:
        base, amp, k = num("base"), num("amplitude"), freq()
        return bounded(abs(base) + abs(amp), lambda x, y: base + amp * np.cos(k * np.pi * x))
    if kind == "affine_yn" and channel:
        base, slope = num("base"), num("slope")
        return bounded(abs(base) + abs(slope), lambda xb, yb, yn: base + slope * yn)
    if kind == "affine_yn_cosine_xbar" and channel:
        base, slope, amp, k = num("base"), num("slope"), num("amplitude"), freq()
        return bounded((abs(base) + abs(slope)) * (1.0 + abs(amp)),
                       lambda xb, yb, yn: (base + slope * yn) * (
                           1.0 + amp * np.cos(k * np.pi * xb)))
    raise ConfigError(f"{ini.at('kind')}: unknown initial-data kind {kind!r}")


def parse_config(raw: dict) -> StudyConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    root = _Reader(raw, "")
    root.number("schema", SCHEMA_VERSION, integer=True, check=lambda version: (
        None if version == SCHEMA_VERSION else f"unsupported version {version}"))

    geo = root.obj("geometry")
    H = geo.rational("H")
    prof = geo.obj("profile")
    segments = [(tuple(seg.array("interval", 2).each(_Reader.rational)), seg.rational("width"))
                for seg in prof.array("segments").each(_Reader.obj)]
    try:
        profile = ChannelProfile.from_pairs(segments)
    except ValueError as exc:
        raise ConfigError(f"{prof.path}: {exc}") from exc
    cell = build_reference_cell(profile)

    dif = root.obj("diffusivity")
    d_plus, d_minus = dif.number("bulk_plus"), dif.number("bulk_minus")
    chan = dif.array("channel")
    if len(chan.raw) != len(profile.segments):
        raise ConfigError(
            f"{chan.path}: need one (d_ybar, d_yn) pair per profile segment "
            f"({len(profile.segments)}), got {len(chan.raw)}"
        )
    pairs = chan.each(lambda chan, i: tuple(chan.array(i, 2).each(_Reader.number)))
    try:
        diffusion = DiffusionSpec(d_plus, d_minus, tuple(pairs))
    except ValueError as exc:
        raise ConfigError(f"{dif.path}: {exc}") from exc

    kin = root.obj("kinetics")
    specs = {name: _kinetics_spec(kin.obj(name)) for name in ("f_plus", "f_minus", "g", "h")}
    try:
        kinetics = KineticsBundle(**specs)
    except ValueError as exc:  # a modulation no simulator applies, named from the rate
        raise ConfigError(f"{kin.path}.{exc}") from exc

    ini = root.obj("initial")
    initial = InitialData(u_plus=_initial_fn(ini.obj("bulk_plus")),
                          u_minus=_initial_fn(ini.obj("bulk_minus")),
                          u_channel=_initial_fn(ini.obj("channel"), channel=True))

    def valid_rung(eps):
        if eps <= 0 or (1 / eps).denominator != 1:
            return f"1/eps must be a positive integer, got {eps}"
        return None if eps < H else "eps must be smaller than geometry.H"

    ladder = root.array("epsilon")
    epsilons = ladder.each(lambda ladder, i: ladder.rational(i, check=valid_rung))
    if not epsilons:
        raise ConfigError(f"{ladder.path}: need at least one value")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigError(f"{ladder.path}: values must be strictly decreasing")

    tim = root.obj("time")
    T = tim.number("T")
    step = tim.obj("dt", {})
    rule = step.value("rule", "eps_min_over")
    if rule == "eps_min_over":
        dt = float(min(epsilons)) / step.number("factor", 8, check=_positive)
    elif rule == "fixed":
        dt = step.number("value")
    else:
        raise ConfigError(f"{step.at('rule')}: unknown rule {rule!r}")
    step.echo_as = {"rule": "fixed", "value": dt}  # the step the study runs with
    if dt <= 0 or T < 0:
        raise ConfigError(f"{tim.path}: need dt > 0 and T >= 0")

    def on_cell_edges(k):
        if k < 1:
            return "must be >= 1"
        try:
            check_alignment(cell, k)
        except AlignmentError as exc:
            return f"geometry.profile {exc} (a channel wall would fall inside a cell)"
        return None

    ref = root.obj("refinement", {})
    k = ref.number("k", 4, integer=True, check=on_cell_edges)
    m = ref.number("m", k, integer=True)
    n_sigma = ref.number("n_sigma", max(32, int(1 / min(epsilons))), integer=True,
                         check=lambda n: None if n * min(epsilons) >= 1 else (
                             "interface nodes must be at least as fine as the smallest "
                             "epsilon columns"))
    if k != m:
        raise ConfigError(f"{ref.path}: unfolding needs k == m")

    stride = root.number("snapshot_stride", 4, integer=True, check=_at_least(1))
    try:
        step_count(T, dt)
    except (ValueError, OverflowError) as exc:  # OverflowError: T / dt is infinite
        raise ConfigError(f"{tim.path}: T={T} is not an integer multiple of dt={dt}") from exc

    diag = root.obj("diagnostics", {})
    shift_l = diag.number("shift_l", 1, integer=True)
    shift_h = diag.number("shift_h", 0.125, check=_positive)
    theta = diag.number("theta", 1.0, check=_positive)
    for i, eps in enumerate(epsilons):
        if not margin_columns(build_micro_geometry(eps, H, cell), 2 * shift_h, shift_l):
            raise ConfigError(
                f"{diag.path}: shift_h={shift_h} and shift_l={shift_l} leave no column of "
                f"{ladder.at(i)}={eps} inside the margin 2*shift_h with its shift in the domain"
            )

    seed = root.number("seed", 0, integer=True, check=_at_least(0))
    output_dir = root.value("output_dir", "out", check=lambda out: (
        None if isinstance(out, str) else f"expected a string ({out!r})"))
    root.check_known()
    return StudyConfig(
        echo=root.echo(),
        cell=cell,
        H=H,
        diffusion=diffusion,
        kinetics=kinetics,
        initial=initial,
        epsilons=epsilons,
        T=T,
        dt=dt,
        k=k,
        m=m,
        n_sigma=n_sigma,
        snapshot_stride=stride,
        shift_l=shift_l,
        shift_h=shift_h,
        theta=theta,
        output_dir=output_dir,
        seed=seed,
    )


def _read_json(path, what):
    """The JSON value in file `path`; ConfigError naming the file if it cannot be read."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {what} not found") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of more than 4300 digits
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the {what} ({exc.strerror})") from exc


def load_config(path) -> StudyConfig:
    return parse_config(_read_json(Path(path), "config file"))


def _write_file(path, chunks) -> str:
    """Write byte chunks to file `path`, return their SHA-256; ConfigError if it cannot."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write the file ({exc.strerror})") from exc
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# study execution

def _rung_grid(cfg: StudyConfig, eps: Fraction):
    """The channel-resolved geometry and grid of the rung `eps`."""
    geom = build_micro_geometry(eps, cfg.H, cfg.cell)
    return geom, build_micro_grid(geom, cfg.k)


def _limit_model(cfg: StudyConfig) -> MacroSimulation:
    """The interface limit model of the study, with its cell problems."""
    layout = InterfaceLayout(n_sigma=cfg.n_sigma, m=cfg.m)
    return MacroSimulation(cfg.cell, float(cfg.H), layout, cfg.diffusion, cfg.kinetics)


def run_micro_study(cfg: StudyConfig, eps: Fraction):
    """The micro run of rung `eps` with every snapshot held: (geom, grid, sim, snaps)."""
    geom, grid = _rung_grid(cfg, eps)
    sim = MicroSimulation(geom, grid, cfg.diffusion, cfg.kinetics)
    snaps = sim.run(cfg.initial, cfg.T, cfg.dt, cfg.snapshot_stride)
    return geom, grid, sim, snaps


def _stream_micro_rung(cfg: StudyConfig, eps: Fraction, writer):
    """Run rung `eps`, each snapshot's row written to its field file as it is made;
    return (geom, grid, the snapshot times).

    The simulation and its factored system go when this returns.
    """
    geom, grid = _rung_grid(cfg, eps)
    sim = MicroSimulation(geom, grid, cfg.diffusion, cfg.kinetics)
    times = []

    def row(state):
        times.append(state.t)
        return state.values

    shape = (len(snapshot_steps(cfg.T, cfg.dt, cfg.snapshot_stride)), grid.n_cells)
    states = sim.snapshots(cfg.initial, cfg.T, cfg.dt, cfg.snapshot_stride)
    writer.write_rows(field_path(eps), shape, map(row, states))
    return geom, grid, times


def run_macro_study(cfg: StudyConfig):
    sim = _limit_model(cfg)
    snaps = sim.run(cfg.initial, cfg.T, cfg.dt, cfg.snapshot_stride)
    return sim, snaps


def compute_report(rep: TwoScaleReport, cfg: StudyConfig, eps, rung, limit, trace_const):
    """Add rung eps's row to rep: its micro run `rung` = (geom, grid, snaps) against the
    limit run `limit` = (sim, snaps), with the study's `calibrate_trace_constant`."""
    geom, grid, snaps = rung
    macro_sim, macro_snaps = limit
    uf = Unfolder(geom, grid, macro_sim.cell_grid)
    errs = ts_error(snaps, macro_snaps, uf, macro_sim)
    ratio, _, _ = shift_diagnostic(snaps, geom, grid, cfg.shift_l, cfg.shift_h)
    lhs, rhs = trace_inequality_diagnostic(snaps[-1].values, cfg.theta, uf,
                                           constant=trace_const)
    rep.eps.append(float(eps))
    rep.e_chan.append(errs["E_chan"])
    rep.e_bulk_plus.append(errs["E_bulk_plus"])
    rep.e_bulk_minus.append(errs["E_bulk_minus"])
    rep.e_wall.append(errs["E_N"])
    rep.apriori.append(apriori_norm(snaps))
    rep.shift_ratio.append(ratio)
    rep.trace_ratio.append(lhs / rhs if rhs > 0 else 0.0)


REPORT_HEADER = "eps,E_chan,E_bulk_plus,E_bulk_minus,E_N,apriori_norm,shift_ratio"


def report_csv_text(rep: TwoScaleReport) -> str:
    lines = [REPORT_HEADER]
    for row in rep.rows():
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# -- field CSV serialization -------------------------------------------------
#
# Within one grid every snapshot repeats the same coordinates and region
# names, so each file's text is built once per grid with every value left as
# a `%.17g` slot (which formats exactly as `_fmt`), and a snapshot is one
# `template % values`.  Templates are held weakly by the grid (or limit-model
# simulation) they describe: they go when it goes, and a later grid never
# sees an earlier one's text.  A study stores only the traces CSV; `export`
# writes all four.

_MICRO_ROWS = weakref.WeakKeyDictionary()   # RectGrid -> template
_BULK_ROWS = weakref.WeakKeyDictionary()    # MacroSimulation -> template
_CELL_ROWS = weakref.WeakKeyDictionary()    # MacroSimulation -> template
_TRACE_ROWS = weakref.WeakKeyDictionary()   # MacroSimulation -> template


def _template(cache, key, header, prefixes, slots=1):
    """The cached file text for `key`: header, then `slots` value slots per row prefix."""
    text = cache.get(key)
    if text is None:
        tail = ",".join(["%.17g"] * slots) + "\n"
        rows = "".join(p.replace("%", "%%") + tail for p in prefixes())
        text = cache[key] = header + "\n" + rows
    return text


def micro_field_csv(grid, state: MicroState) -> str:
    template = _template(_MICRO_ROWS, grid, "xbar,xn,region,value", lambda: (
        f"{x:.17g},{y:.17g},{_TAG_NAMES[tag]},"
        for x, y, tag in zip(grid.cell_x.tolist(), grid.cell_y.tolist(),
                             grid.cell_tag.tolist())
    ))
    return template % tuple(state.values.tolist())


def macro_bulk_csv(sim: MacroSimulation, state: MacroState) -> str:
    template = _template(_BULK_ROWS, sim, "xbar,xn,region,value", lambda: (
        f"{x:.17g},{y:.17g},{name},"
        for g, name in ((sim.grid_p, "bulk+"), (sim.grid_m, "bulk-"))
        for x, y in zip(g.cell_x.tolist(), g.cell_y.tolist())
    ))
    return template % tuple(state.u[: sim.ovp].tolist())


def macro_cells_csv(sim: MacroSimulation, state: MacroState) -> str:
    cg = sim.cell_grid
    template = _template(_CELL_ROWS, sim, "node,xbar_node,ybar,yn,value", lambda: (
        f"{j},{xb:.17g},{yb:.17g},{yn:.17g},"
        for j, xb in enumerate(sim.layout.nodes.tolist())
        for yb, yn in zip(cg.cell_x.tolist(), cg.cell_y.tolist())
    ))
    return template % tuple(state.cells.ravel().tolist())


def macro_traces_csv(sim: MacroSimulation, state: MacroState) -> str:
    template = _template(_TRACE_ROWS, sim, "node,xbar_node,v_plus,v_minus,F_plus,F_minus",
                         lambda: (f"{j},{xb:.17g}," for j, xb in
                                  enumerate(sim.layout.nodes.tolist())), slots=4)
    values = np.column_stack([state.v_plus, state.v_minus, *sim.cell_flux(state)])
    return template % tuple(values.ravel().tolist())


# -- the study's field files -------------------------------------------------
#
# Coordinates and regions are a function of the config echo, so a study
# stores only values: a run's snapshots as the rows of one little-endian
# float64 `.npy` array (an exact round trip), `state.values` of a micro run,
# `state.u` of the limit-model run, whose snapshots also keep their interface
# traces and cell fluxes as CSV, the jump observable in readable form.

def field_path(eps=None) -> str:
    """Stored values of a run's snapshots: the micro run of `eps`, or the limit-model run."""
    name = f"micro_eps{int(1 / eps)}" if eps is not None else "macro"
    return f"fields/{name}.npy"


def csv_path(idx, eps=None, part=None) -> str:
    """CSV of snapshot idx: the micro field of `eps`, or limit-model bulk/cells/traces `part`."""
    name = f"micro_eps{int(1 / eps)}" if eps is not None else f"macro_{part}"
    return f"fields/{name}_s{idx:04d}.csv"


def _npy_header(shape) -> bytes:
    """The header of a `.npy` file of a C-order float64 array of `shape`."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return head.getvalue()


def _npy_chunks(shape, rows):
    """The `.npy` file of a float64 array of `shape`, in chunks: its header, then each of
    `rows` as it comes; ValueError after them unless there were shape[0]."""
    yield _npy_header(shape)
    count = 0
    for row in rows:
        count += 1
        yield np.ascontiguousarray(row, dtype="<f8")
    if count != shape[0]:
        raise ValueError(f"{count} rows for a .npy header of shape {shape}")


_BLOCK = 1 << 20  # bytes of a stored file hashed, or checked finite, per read


@contextlib.contextmanager
def _field_errors(relpath):
    """ConfigError naming the field file `relpath` for an OSError inside the block."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError(f"{relpath}: field file is missing") from exc
    except OSError as exc:
        raise ConfigError(f"{relpath}: cannot read the field file ({exc.strerror})") from exc


def _npy_values_at(relpath, fh, size, shape) -> int:
    """The offset of the values of the `.npy` file of `size` bytes read from its start
    by `fh`, once its header gives C-order float64 values of `shape` and its size their
    byte count; ConfigError naming the file otherwise.  Nothing is allocated from the
    header's shape."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # the one version `_npy_chunks` writes
                raise ValueError(f"format version {version}")
            got, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    # bad magic or version, short or malformed header (numpy evaluates it as a Python
    # literal, and tokenizes it when that fails), or one numpy reads only with a warning
    except (ValueError, SyntaxError, TypeError, OverflowError, MemoryError,
            tokenize.TokenError, Warning) as exc:
        raise ConfigError(f"{relpath}: not a readable .npy file ({exc})") from exc
    if dtype != np.dtype("<f8") or got != shape or fortran_order:
        order = "Fortran" if fortran_order else "C"
        raise ConfigError(f"{relpath}: holds {dtype.str} values of shape {got} in {order} "
                          f"order, expected <f8 of shape {shape} in C order")
    offset = fh.tell()
    if size - offset != 8 * math.prod(shape):
        raise ConfigError(f"{relpath}: holds {size - offset} bytes of values, "
                          f"expected {8 * math.prod(shape)}")
    return offset


def _read_npy(relpath, data, shape) -> np.ndarray:
    """The finite float64 values of a `.npy` file of `shape`, a read-only view of `data`
    once its header is checked; ConfigError naming the file otherwise."""
    offset = _npy_values_at(relpath, io.BytesIO(data), len(data), shape)
    vals = np.frombuffer(data, dtype="<f8", offset=offset).reshape(shape)
    if not np.isfinite(vals).all():
        raise ConfigError(f"{relpath}: holds non-finite values")
    return vals


def _checked_values_at(relpath, fh, size, shape, sha256) -> int:
    """The offset of the values of the `.npy` file of `size` bytes open as `fh`, once its
    bytes match `sha256`, then its header and byte count give `shape` (`_npy_values_at`),
    then its values are finite; ConfigError naming the file otherwise.  The file is read
    once, one `_BLOCK` at a time, each block hashed and checked finite."""
    fd = fh.fileno()
    try:
        offset, refusal = _npy_values_at(relpath, fh, size, shape), None
    except Exception as exc:  # judged only once the bytes match their hash
        offset, refusal = 0, exc
    block = np.empty(_BLOCK // 8, dtype="<f8")
    buf = memoryview(block).cast("B")
    digest, finite, at = hashlib.sha256(os.pread(fd, offset, 0)), True, offset
    while count := os.preadv(fd, [buf], at):
        digest.update(buf[:count])
        finite = finite and bool(np.isfinite(block[: count // 8]).all())
        at += count
    if digest.hexdigest() != sha256:
        raise ConfigError(f"{relpath}: content does not match its manifest SHA-256")
    if refusal is not None:
        raise refusal
    if not finite:
        raise ConfigError(f"{relpath}: holds non-finite values")
    return offset


def _stamp(fd):
    st = os.fstat(fd)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


@contextlib.contextmanager
def _file_rows(out, relpath, shape, sha256):
    """read(i): row i of the float64 `.npy` array of `shape` in file out/relpath, one
    positioned read into a new read-only array, while the file is held open.

    Every check of `_checked_values_at` is made before any row.  A file written while
    it is held (its inode, size, mtime or ctime moved since before the check) is
    refused when the block ends; ConfigError naming the file either way.
    """
    with _field_errors(relpath):
        fh = open(out / relpath, "rb", buffering=0)
    with fh:
        stamp = _stamp(fh.fileno())
        with _field_errors(relpath):
            offset = _checked_values_at(relpath, fh, stamp[1], shape, sha256)
        n = shape[1]

        def read(i):  # fh.fileno() raises once the block has closed the file
            row = np.empty(n, dtype="<f8")
            if os.preadv(fh.fileno(), [row], offset + 8 * n * i) != 8 * n:
                raise ConfigError(f"{relpath}: the field file changed while it was read")
            row.flags.writeable = False
            return row

        try:
            yield read
        finally:
            if _stamp(fh.fileno()) != stamp:
                raise ConfigError(f"{relpath}: the field file changed while it was read")


class SnapshotRows:
    """A micro run's snapshots, one stored row each, read-only and read a row at a time.

    `read(i)` gives snapshot i's values.  Length, iteration, indexing and each
    state's `t` read no values; a state reads its row when its values are first
    used and holds it until it is dropped.
    """

    def __init__(self, grid, times, read):
        self.grid, self.times, self.read = grid, times, read

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        i = range(len(self.times))[i]  # IndexError past either end
        return _StoredState(self.times[i], self, i)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class _StoredState(MicroState):
    """Snapshot `i` of a `SnapshotRows`: its time now, its row when first used, and a
    `Field` of it only when asked for (its file was checked before any row was read)."""

    def __init__(self, t, rows, i):
        self.t, self._rows, self._i = t, rows, i

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._rows.read(self._i)

    @functools.cached_property
    def u(self) -> Field:
        return Field(self._rows.grid, self.values)


def write_macro_fields(writer, sim, snaps):
    writer.write(field_path(), [state.u for state in snaps])
    # macro_traces_csv is looked up by name at call time, so a rebound writer is used
    for idx, state in enumerate(snaps):
        writer.write(csv_path(idx, part="traces"), macro_traces_csv(sim, state))


# -- manifest ----------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_sha256(echo) -> str:
    return _sha256(json.dumps(echo, sort_keys=True).encode())


class StudyWriter:
    def __init__(self, out_dir):
        self.out = Path(out_dir)
        try:
            (self.out / "fields").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{self.out}: cannot create the output directory "
                              f"({exc.strerror})") from exc
        self.files = {}

    def write(self, relpath, data):
        """Write `data` and record its SHA-256: text, stored as UTF-8, or a list of
        equal-length rows, stored as one float64 `.npy` array written row by row."""
        if isinstance(data, str):
            self._record(relpath, [data.encode()])
        else:
            self.write_rows(relpath, (len(data), len(data[0]) if data else 0), data)

    def write_rows(self, relpath, shape, rows):
        """Write the float64 `.npy` array of `shape` whose rows `rows` yields, each as it
        comes, and record its SHA-256."""
        self._record(relpath, _npy_chunks(shape, rows))

    def _record(self, relpath, chunks):
        # listed before its first byte, so a run that fails while writing it removes it
        self.files[str(relpath)] = None
        self.files[str(relpath)] = _write_file(self.out / relpath, chunks)


def run_study(cfg: StudyConfig, out_dir=None, threads=1):
    """Full study: the limit model once, then one rung after another (micro run,
    its fields, its report row); then report.csv and the manifest.

    A run that fails removes the files it wrote, and each directory it made
    that is left empty, before the error propagates.
    """
    # `threads` is kept only because the benchmark's workloads pass threads=1; it
    # goes when they stop passing it (ROADMAP item 1's benchmark-only change)
    if threads != 1:
        raise ValueError(f"threads={threads!r}: a study runs its rungs one after another")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    made = [d for d in (out / "fields", out) if not d.exists()]
    writer = StudyWriter(out)
    try:
        return _write_study(cfg, writer)
    except BaseException:
        for relpath in writer.files:
            with contextlib.suppress(OSError):
                (out / relpath).unlink()
        for directory in made:
            with contextlib.suppress(OSError):  # not empty: something else wrote there
                directory.rmdir()
        raise


def _write_study(cfg: StudyConfig, writer: StudyWriter):
    """`run_study`'s work, every file through `writer`: (report, manifest)."""
    t0 = _time.perf_counter()
    limit = run_macro_study(cfg)
    timings = {"macro": _time.perf_counter() - t0}
    write_macro_fields(writer, *limit)
    trace_const = calibrate_trace_constant(limit[0].cell_grid)

    rep = TwoScaleReport([], [], [], [], [], [], [])
    for eps in cfg.epsilons:
        t = _time.perf_counter()
        geom, grid, times = _stream_micro_rung(cfg, eps, writer)
        timings[f"micro eps={eps}"] = _time.perf_counter() - t
        relpath = field_path(eps)
        with _file_rows(writer.out, relpath, (len(times), grid.n_cells),
                        writer.files[relpath]) as read:
            snaps = SnapshotRows(grid, times, read)
            compute_report(rep, cfg, eps, (geom, grid, snaps), limit, trace_const)
    writer.write("report.csv", report_csv_text(rep))

    manifest = {
        "schema": STUDY_SCHEMA,
        "config": cfg.echo,
        "config_sha256": _config_sha256(cfg.echo),
        "versions": _versions(),
        "snapshot_times": [s.t for s in limit[1]],
        "timings": timings,
        "files": writer.files,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_file(writer.out / "manifest.json", [text.encode()])
    return rep, manifest


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _versions():
    """What a bit-identical rerun needs the same of: versions, BLAS threading, CPU count.

    LAPACK rounds differently with another thread count once a matrix has
    about 128 rows, so the thread variables are recorded with the versions.
    """
    import platform

    from . import __version__

    return {
        "chanhom": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# report re-derivation from stored fields

def _check_schedule(cfg: StudyConfig, times):
    """ConfigError unless `times` are the snapshot times a run of cfg stores:
    t = 0, every snapshot_stride steps, and the last step (`snapshot_steps`,
    counted without listing every step)."""
    n_steps, stride = step_count(cfg.T, cfg.dt), cfg.snapshot_stride
    count = -(-n_steps // stride) + 1
    if len(times) != count:
        raise ConfigError(
            f"manifest.json.snapshot_times: {len(times)} entries, but config.time and "
            f"config.snapshot_stride give {count} snapshots"
        )
    for i, t in enumerate(times):
        n = min(i * stride, n_steps)
        if abs(t - n * cfg.dt) > 1e-9 * max(cfg.T, 1.0):
            raise ConfigError(f"manifest.json.snapshot_times[{i}]: {t!r} is not the time of "
                              f"step {n} (dt={cfg.dt!r})")


@dataclass
class StoredStudy:
    """A checked study: its config and limit-model run; micro rungs are read by `rung`."""

    out: Path
    files: dict          # manifest.json.files: relative path -> SHA-256
    cfg: StudyConfig
    macro_sim: MacroSimulation
    macro_snaps: list
    traces: list         # the verified traces CSV text of each limit-model snapshot

    def field_bytes(self, relpath) -> bytes:
        """A field file's bytes, if they match its manifest SHA-256; ConfigError otherwise."""
        with _field_errors(relpath):
            data = (self.out / relpath).read_bytes()
        if self.files.get(relpath) != _sha256(data):
            raise ConfigError(f"{relpath}: content does not match its manifest SHA-256")
        return data

    @contextlib.contextmanager
    def rung(self, eps):
        """The stored micro run of `eps` as (geom, grid, `SnapshotRows` of its file's rows),
        in a block that holds the file open; `_file_rows` checks it all on entry."""
        geom, grid = _rung_grid(self.cfg, eps)
        relpath, times = field_path(eps), [s.t for s in self.macro_snaps]
        with _file_rows(self.out, relpath, (len(times), grid.n_cells),
                        self.files.get(relpath)) as read:
            yield geom, grid, SnapshotRows(grid, times, read)


def load_study(study_dir) -> StoredStudy:
    """Check a stored study's manifest, then reload its limit-model snapshots.

    Every field file is checked against its manifest SHA-256 and its content
    when it is read (a micro rung's by `rung`); ConfigError names what fails.
    """
    out = Path(study_dir)
    manifest = _Reader(_read_json(out / "manifest.json", "study manifest"), "manifest.json")
    raw_cfg = manifest.obj("config").raw
    manifest.value("schema", None, check=lambda schema: None if schema == STUDY_SCHEMA else (
        f"study schema {schema!r} (this version reads schema {STUDY_SCHEMA}, one .npy file "
        f"per run)"))
    try:
        cfg = parse_config(raw_cfg)
    except ConfigError as exc:
        raise ConfigError(f"manifest.json.config.{exc}") from exc
    times = manifest.array("snapshot_times").each(_Reader.number)
    _check_schedule(cfg, times)
    files = manifest.obj("files").raw
    study_files = {field_path(), *(field_path(eps) for eps in cfg.epsilons),
                   *(csv_path(idx, part="traces") for idx in range(len(times)))}
    extra = sorted(rel for rel in files if rel.startswith("fields/") and rel not in study_files)
    if extra:
        raise ConfigError(f"{extra[0]}: listed in manifest.json.files but not part of the "
                          f"study its config and snapshot_times describe")
    manifest.value("config_sha256", None, check=lambda sha: (
        None if sha == _config_sha256(cfg.echo) else "does not match manifest.json.config "
        "(missing, or the config was edited after the run)"))

    study = StoredStudy(out, files, cfg, _limit_model(cfg), [], [])
    sim = study.macro_sim
    rows = _read_npy(field_path(), study.field_bytes(field_path()), (len(times), sim.n))
    for idx, (t, u) in enumerate(zip(times, rows)):
        state = MacroState(t=t, u=u, sim=sim)
        relpath = csv_path(idx, part="traces")
        text = macro_traces_csv(sim, state)
        if study.field_bytes(relpath) != text.encode():
            raise ConfigError(f"{relpath}: is not the traces CSV of row {idx} of {field_path()}")
        study.macro_snaps.append(state)
        study.traces.append(text)
    return study


def rederive_report(study_dir):
    """Recompute report.csv of a stored study rung by rung; rewrite it after the last row."""
    study = load_study(study_dir)
    limit = (study.macro_sim, study.macro_snaps)
    trace_const = calibrate_trace_constant(study.macro_sim.cell_grid)
    rep = TwoScaleReport([], [], [], [], [], [], [])
    for eps in study.cfg.epsilons:
        with study.rung(eps) as rung:
            compute_report(rep, study.cfg, eps, rung, limit, trace_const)
    _write_file(Path(study_dir) / "report.csv", [report_csv_text(rep).encode()])
    return rep


def export_study(study_dir, out_dir) -> dict:
    """Write a stored study's snapshots as CSV files under out_dir/fields.

    The study is checked as `report` checks it. Each snapshot gets the CSV
    files of study schema 1: `micro_eps{n}`, `macro_bulk`, `macro_cells` and
    `macro_traces`. Returns the SHA-256 of each written file.
    """
    study = load_study(study_dir)
    with contextlib.ExitStack() as held:
        # every rung checked before any write
        rungs = [held.enter_context(study.rung(eps)) for eps in study.cfg.epsilons]
        writer = StudyWriter(out_dir)
        for eps, (_, grid, snaps) in zip(study.cfg.epsilons, rungs):
            for idx, state in enumerate(snaps):
                writer.write(csv_path(idx, eps=eps), micro_field_csv(grid, state))
    sim = study.macro_sim
    for idx, (state, traces) in enumerate(zip(study.macro_snaps, study.traces)):
        writer.write(csv_path(idx, part="bulk"), macro_bulk_csv(sim, state))
        writer.write(csv_path(idx, part="cells"), macro_cells_csv(sim, state))
        writer.write(csv_path(idx, part="traces"), traces)
    return writer.files


# ---------------------------------------------------------------------------
# operator identity verification

def _chan_face_map(uf: Unfolder, ref_trans):
    """Channel-channel micro faces paired with their reference-cell faces.

    Per face: its cells (a, b), the column and local indices of both, its
    centre distance, and the reference face's distance and transmissibility
    (`ref_trans`, the reference cell's `two_point_stiffness`).
    """
    grid, cg = uf.grid, uf.cell_grid
    ncol, nloc = uf.columns.shape
    col = np.full(grid.n_cells, -1)
    col[uf.columns] = np.arange(ncol)[:, None]
    loc = np.full(grid.n_cells, -1)
    loc[uf.columns] = np.arange(nloc)
    ref_loc = np.full(cg.n_cells, -1)
    ref_loc[uf.chan_ids] = np.arange(nloc)
    # a channel face is named by its axis and the local index of its lower cell
    ref_dist, ref_t = np.zeros((2, nloc)), np.zeros((2, nloc))
    for fs, (_, _, t) in zip(cg.faces, ref_trans):
        keep = (ref_loc[fs.a] >= 0) & (ref_loc[fs.b] >= 0)
        ref_dist[fs.axis, ref_loc[fs.a[keep]]] = (fs.dist_a + fs.dist_b)[keep]
        ref_t[fs.axis, ref_loc[fs.a[keep]]] = t[keep]
    parts = []
    for fs in grid.faces:
        keep = (loc[fs.a] >= 0) & (loc[fs.b] >= 0)
        a, b = fs.a[keep], fs.b[keep]
        parts.append((a, b, col[a], loc[a], loc[b], (fs.dist_a + fs.dist_b)[keep],
                      ref_dist[fs.axis, loc[a]], ref_t[fs.axis, loc[a]]))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _max_rel(got, want) -> float:
    """The largest |got - want| / |want|, 0 over no entries."""
    return float(np.max(np.abs(got - want) / np.abs(want), initial=0.0))


def _entry_deviations(uf: Unfolder, stiffness, weights, faces) -> dict:
    """Largest relative deviation of each per-entry statement on one rung.

    `stiffness` and `weights` are what `assemble_micro_operator` returns for
    the rung, `faces` its `_chan_face_map`.
    """
    grid, eps = uf.grid, uf.eps
    fa, fb, *_, dmic, dref, tref = faces
    chan = grid.cell_tag == CHAN
    # the unfolder's wall lengths and the micro model's, both column by column
    walls = np.stack([uf.micro_wall_len, wall_faces(grid).length.reshape(-1)])
    ids = np.arange(1.0, grid.n_cells + 1)  # the cell numbering, from 1
    tv = uf.unfold(ids)
    micro_sum = float(np.dot(grid.cell_vol[chan], ids[chan] ** 2)) / eps
    return {
        # a bijection onto the channel cells that `average` inverts gives each
        # channel cell its own number back and every other cell 0
        "bijection": float(np.max(np.abs(uf.average(tv) - np.where(chan, ids, 0.0)) / ids)),
        "pairing": abs(uf.ts_inner(tv, tv) - micro_sum) / micro_sum,
        "cell_volume": _max_rel(uf.unfold(grid.cell_vol), eps ** 2 * uf.cell_vol),
        "face_distance": _max_rel(dmic, eps * dref),
        "wall_length": _max_rel(walls.reshape(2, len(uf.columns), -1), eps * uf.ref_wall_len),
        # the critical scaling as the micro model assembles it (d = eps D)
        "transmissibility": _max_rel(-stiffness.at(fa, fb), eps * tref),
        "weighted_volume": _max_rel(uf.unfold(weights), eps * uf.cell_vol),
    }


def _random_identity_residuals(uf: Unfolder, faces, rng, n_fields) -> dict:
    """Max relative residual of the five unfolding identities over random fields.

    Per field, v and w are standard normal on the channel cells and 0 in the
    bulk, which no identity reads; phi is standard normal on every
    (column, reference cell) pair.
    """
    grid, eps = uf.grid, uf.eps
    chan = np.flatnonzero(grid.cell_tag == CHAN)
    vol = grid.cell_vol[chan]
    fa, fb, fcol, fia, fib, dmic, dref, _ = faces
    res = dict.fromkeys(
        ("inner_product", "boundary_norm", "gradient_commutation", "adjoint", "round_trip"),
        0.0,
    )
    inv_eps = 1.0 / eps
    for _ in range(n_fields):
        v = np.zeros(grid.n_cells)
        w = np.zeros(grid.n_cells)
        v[chan] = rng.normal(size=len(chan))
        w[chan] = rng.normal(size=len(chan))
        tv = uf.unfold(v)
        vc = v[chan]

        # residuals are measured against the Cauchy-Schwarz scale of the
        # pairing; the raw value of a random inner product can cancel
        lhs = uf.ts_inner(tv, uf.unfold(w))
        wc = w[chan]
        rhs = inv_eps * float(np.dot(vol, vc * wc))
        nv = np.sqrt(inv_eps * float(np.dot(vol, vc ** 2)))
        nw = np.sqrt(inv_eps * float(np.dot(vol, wc ** 2)))
        res["inner_product"] = max(res["inner_product"], abs(lhs - rhs) / (nv * nw))

        tr = uf.wall_trace(v)
        tb = uf.unfold_boundary(tr)
        lhs = uf.wall_inner(tb, tb)
        rhs = uf.wall_norm_sq_micro(tr)
        res["boundary_norm"] = max(res["boundary_norm"], abs(lhs - rhs) / abs(rhs))

        lhs_g = (tv[fcol, fib] - tv[fcol, fia]) / dref
        rhs_g = eps * (v[fb] - v[fa]) / dmic
        scale = np.maximum(np.maximum(np.abs(lhs_g), np.abs(rhs_g)), 1e-300)
        res["gradient_commutation"] = max(
            res["gradient_commutation"], float(np.max(np.abs(lhs_g - rhs_g) / scale))
        )

        phi = rng.normal(size=uf.columns.shape)
        lhs = uf.ts_inner(tv, phi)
        rhs = inv_eps * float(np.dot(vol, vc * uf.average(phi)[chan]))
        res["adjoint"] = max(res["adjoint"], abs(lhs - rhs) / (nv * uf.ts_norm(phi)))

        back = uf.average(tv)
        num = float(np.max(np.abs(back[chan] - vc)))
        den = float(np.max(np.abs(vc))) or 1.0
        res["round_trip"] = max(res["round_trip"], num / den)
    return res


def verify_operators(cfg: StudyConfig, n_fields=0, tol=1e-12):
    """The unfolding identities of every rung, checked entry by entry.

    Because `unfold` is a gather, the identities (inner product, boundary
    norm, gradient commutation, adjoint, round trip) reduce to per-entry
    statements, each reported per rung as its largest relative deviation:

    - bijection: `unfold` gathers each channel cell once and no other cell,
      and `average` puts each back;
    - pairing: `ts_inner` of the unfolded cell numbering v equals its micro
      sum, sum(vol v^2) / eps;
    - cell_volume: each micro channel cell volume is eps^2 x its reference
      volume;
    - face_distance: each channel-channel face's centre distance is eps x
      the reference one;
    - wall_length: each micro wall length, the unfolder's and the micro
      model's from `wall_faces(grid)`, is eps x the reference one;
    - transmissibility, weighted_volume: the critical scaling as
      `microsim.assemble_micro_operator` builds it.  Each channel-channel
      transmissibility is eps x the reference cell's, and each channel
      cell's accumulation weight x volume is eps x its reference volume.

    With `n_fields` > 0 the five identities themselves are also evaluated on
    that many random field pairs per rung, drawn from `cfg.seed`; by default
    nothing is drawn.  Returns (worst, flat_max, flat_max <= tol), where
    worst[str(eps)] maps each statement (and identity) to its deviation.
    """
    cell_grid = build_cell_grid(cfg.cell, cfg.m)
    # the reference cell's transmissibilities, with the unscaled channel tensor
    ref_trans = two_point_stiffness(
        cell_grid, channel_tensor(cfg.cell.profile, cell_grid.cell_y, cfg.diffusion))
    rng = np.random.default_rng(cfg.seed) if n_fields > 0 else None
    worst = {}
    for eps in cfg.epsilons:
        geom, grid = _rung_grid(cfg, eps)
        uf = Unfolder(geom, grid, cell_grid)
        faces = _chan_face_map(uf, ref_trans)
        # looked up at call time, so a mutant patched into the micro model is seen
        stiffness, weights = microsim.assemble_micro_operator(geom, grid, cfg.diffusion)
        res = worst[str(eps)] = _entry_deviations(uf, stiffness, weights, faces)
        if n_fields > 0:
            res.update(_random_identity_residuals(uf, faces, rng, n_fields))
    flat_max = max(v for res in worst.values() for v in res.values())
    return worst, flat_max, flat_max <= tol
