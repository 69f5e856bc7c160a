"""Reference-cell and periodic micro-domain geometry.

The reference cell is Z = (0,1) x (-1,1).  A channel is an axis-aligned
stack of rectangles inside Z, described by a width profile: a partition of
[-1,1] into vertical segments, each carrying a width w in (0,1) centered at
ybar = 1/2.  The channel meets the top and bottom of the cell in the
segments s_plus / s_minus and keeps a positive distance to the lateral cell
boundary; the remaining channel boundary (vertical walls plus horizontal
ledges where the width jumps) is the lateral wall set N.

The micro domain lives in Omega = (0,1) x (-H,H): two bulk slabs above and
below the thin layer |x_n| < eps, connected by 1/eps scaled copies of the
channel.  Everything is stored as exact rationals so grids can align with
channel walls without drift.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError

# cell region tags (shared with grid construction)
VOID = -1
BULK_P = 0
BULK_M = 1
CHAN = 2

_HALF = Fraction(1, 2)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        f = Fraction(value).limit_denominator(10**9)
        if float(f) != value:
            raise GeometryError(f"geometry value {value!r} is not exactly rational")
        return f
    raise GeometryError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class ChannelProfile:
    """Piecewise-constant, centered channel width profile over [-1,1].

    segments: bottom-to-top list of ((y_lo, y_hi), width) with exact rational
    entries.  Widths are strictly between 0 and 1 so the channel never touches
    the lateral boundary of the cell.
    """

    segments: tuple

    @staticmethod
    def from_pairs(pairs) -> "ChannelProfile":
        segs = tuple(((_frac(lo), _frac(hi)), _frac(w)) for (lo, hi), w in pairs)
        prof = ChannelProfile(segs)
        prof.validate()
        return prof

    @staticmethod
    def rectangle(width) -> "ChannelProfile":
        return ChannelProfile.from_pairs([((-1, 1), width)])

    def validate(self) -> None:
        if not self.segments:
            raise GeometryError("profile needs at least one segment")
        cursor = Fraction(-1)
        for (lo, hi), w in self.segments:
            if lo != cursor:
                raise GeometryError(
                    f"segments must partition [-1,1]; gap or overlap at y_n={float(lo)}"
                )
            if hi <= lo:
                raise GeometryError("degenerate profile segment")
            if not 0 < w < 1:
                raise GeometryError("channel touches lateral boundary (need 0 < width < 1)")
            cursor = hi
        if cursor != 1:
            raise GeometryError("segments must partition [-1,1] exactly")


@dataclass(frozen=True)
class CellGeometry:
    """Exact description of the channel inside the reference cell.

    rectangles: (x_lo, x_hi, y_lo, y_hi) per profile segment.
    s_plus / s_minus: x-interval where the channel meets y_n = +1 / -1.
    n_segments: axis-aligned pieces of the lateral wall N as
    ((x0, y0), (x1, y1)) with endpoints ordered by increasing coordinate.
    """

    profile: ChannelProfile
    rectangles: tuple
    s_plus: tuple
    s_minus: tuple
    n_segments: tuple
    area: Fraction
    n_length: Fraction

    def arc_coordinate(self, ybar, y_n) -> float:
        """Arc-length position in [0, |N|) of a point on the lateral wall.

        Segments are traversed in the fixed construction order; used to give
        wall kinetics a position argument.
        """
        tol = 1e-9
        s = 0.0
        for (x0, y0), (x1, y1) in self.n_segments:
            seg_len = float(x1 - x0 + y1 - y0)
            if x0 == x1 and abs(ybar - float(x0)) <= tol and float(y0) - tol <= y_n <= float(y1) + tol:
                return s + min(max(y_n - float(y0), 0.0), seg_len)
            if y0 == y1 and abs(y_n - float(y0)) <= tol and float(x0) - tol <= ybar <= float(x1) + tol:
                return s + min(max(ybar - float(x0), 0.0), seg_len)
            s += seg_len
        raise GeometryError(f"point ({ybar}, {y_n}) is not on the lateral wall")


def build_reference_cell(profile: ChannelProfile) -> CellGeometry:
    """Assemble rectangles, boundary pieces and exact measures for a profile."""
    profile.validate()
    rects = []
    for (lo, hi), w in profile.segments:
        rects.append(((1 - w) * _HALF, (1 + w) * _HALF, lo, hi))

    area = sum(w * (hi - lo) for (lo, hi), w in profile.segments)

    (_, _), w_top = profile.segments[-1]
    (_, _), w_bot = profile.segments[0]
    s_plus = ((1 - w_top) * _HALF, (1 + w_top) * _HALF)
    s_minus = ((1 - w_bot) * _HALF, (1 + w_bot) * _HALF)

    n_segments = []
    # vertical walls, one pair per segment
    for x0, x1, y0, y1 in rects:
        n_segments.append(((x0, y0), (x0, y1)))
        n_segments.append(((x1, y0), (x1, y1)))
    # horizontal ledges at internal breakpoints with a width jump
    for (x0a, x1a, _, ya), (x0b, x1b, _, _) in zip(rects, rects[1:]):
        lo_x, hi_x = min(x0a, x0b), max(x0a, x0b)
        if lo_x != hi_x:
            n_segments.append(((lo_x, ya), (hi_x, ya)))
            lo_x2, hi_x2 = min(x1a, x1b), max(x1a, x1b)
            n_segments.append(((lo_x2, ya), (hi_x2, ya)))

    n_length = sum((x1 - x0) + (y1 - y0) for (x0, y0), (x1, y1) in n_segments)

    return CellGeometry(
        profile=profile,
        rectangles=tuple(rects),
        s_plus=s_plus,
        s_minus=s_minus,
        n_segments=tuple(n_segments),
        area=area,
        n_length=n_length,
    )


@dataclass(frozen=True)
class MicroGeometry:
    """The eps-periodic channel layout inside Omega = (0,1) x (-H,H)."""

    eps: Fraction
    H: Fraction
    cell: CellGeometry

    @property
    def n_columns(self) -> int:
        return int(1 / self.eps)


def build_micro_geometry(eps, H, cell: CellGeometry) -> MicroGeometry:
    eps = _frac(eps)
    H = _frac(H)
    if eps <= 0 or (1 / eps).denominator != 1:
        raise GeometryError("1/eps must be a positive integer")
    if eps >= H:
        raise GeometryError(f"need eps < H, got eps={float(eps)}, H={float(H)}")
    return MicroGeometry(eps=eps, H=H, cell=cell)
