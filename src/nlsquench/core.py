"""Domain types shared by every solver module: coupling constants, sampled
field profiles, spectral grids and scattering data.

All containers are immutable after construction (arrays are frozen), so they
can be shared freely between parallel workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np


class NlsQuenchError(Exception):
    """Base class for every error raised by this package."""


class InvalidCoupling(NlsQuenchError):
    pass


class NonUniformGrid(NlsQuenchError):
    pass


class BoundaryMismatch(NlsQuenchError):
    pass


class EmptyGrid(NlsQuenchError):
    pass


class ConfigError(NlsQuenchError):
    """A JSON input (a run config, a profile file, a scattering-data file or
    a dressing step) is malformed; the message names the document and key."""


_REQUIRED = object()


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("must be a list")
    return value


def _number(value) -> float:
    if isinstance(value, bool):
        raise TypeError("must be a number, not a boolean")
    return float(value)


def _integer(value) -> int:
    if not _number(value).is_integer():
        raise ValueError(f"must be an integer, not {value!r}")
    return int(_number(value))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, not {value!r}")
    return value


_JSON_CASTS = {float: _number, int: _integer, bool: _flag}


def _floats(value) -> np.ndarray:
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in _list(value)):
        raise TypeError("must be a list of numbers")
    return np.asarray(value, dtype=float)


def _interval(value) -> Tuple[float, float]:
    lo, hi = _floats(value)
    return float(lo), float(hi)


class JsonReader:
    """One JSON object of an input document, named by its dotted key ("" at
    the top) within the document doc ("" for the run config).  A read casts
    the value (float takes a number or a string holding one, never a
    boolean; int a number with no fractional part; bool only true or false)
    and raises ConfigError naming the document and key for a null, a value
    the cast refuses or a block that is not an object; an absent key takes
    the default."""

    def __init__(self, data, name="", doc=""):
        self.data, self.doc, self.prefix = data, doc, f"{name}." if name else ""
        if not isinstance(data, dict):
            raise self.error("", " must be a JSON object")

    def error(self, key, what) -> ConfigError:
        """ConfigError for the value at key ("" for this object itself)."""
        path = (self.prefix + key).rstrip(".")
        where = f"{self.doc}: {path}" if self.doc and path else path or self.doc or "the config"
        return ConfigError(where + what)

    def __contains__(self, key):
        return key in self.data

    def __call__(self, key, default=_REQUIRED, cast=float):
        if key not in self.data and default is not _REQUIRED:
            return default
        value = self.data.get(key)
        if value is None:
            raise self.error(key, " is null" if key in self else " is required")
        try:
            return _JSON_CASTS.get(cast, cast)(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise self.error(key, f": {exc}") from exc

    def block(self, key, required=False) -> "JsonReader":
        """The block at key; an absent one is empty unless required."""
        return JsonReader(self(key, _REQUIRED if required else {}, lambda v: v),
                          self.prefix + key, self.doc)

    def each(self, key, parse, default=_REQUIRED) -> list:
        """parse(item, name, doc) of every item of the list at key."""
        items = self(key, default, _list)
        return [parse(v, f"{self.prefix}{key}[{i}]", self.doc) for i, v in enumerate(items)]

    def complex_samples(self, re_key, im_key) -> np.ndarray:
        """re + i im from the number lists at re_key and im_key, of one length."""
        re, im = self(re_key, cast=_floats), self(im_key, cast=_floats)
        if len(re) != len(im):
            raise self.error(re_key, f" and {im_key} have {len(re)} and {len(im)} entries")
        return re + 1j * im

    def complex(self, key=None, part=_REQUIRED) -> complex:
        """The {"re", "im"} value at key (this object itself when key is
        None); a part that is absent reads as `part`."""
        spec = self if key is None else self.block(key, required=True)
        return complex(spec("re", part), spec("im", part))


def complex_json(z) -> dict:
    """The {"re", "im"} JSON value of a complex number."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


FOCUSING = "focusing"
DEFOCUSING = "defocusing"
FREE = "free"


@dataclass(frozen=True)
class Coupling:
    """Nonlinearity constant of i q_t + q_xx - 2 c^2 |q|^2 q = 0.

    Admissible values: c on the positive imaginary axis (focusing), on the
    positive real axis (defocusing), or c = 0 (free).  Anything else is
    rejected at construction time.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if v == 0:
            return
        if v.real == 0.0 and v.imag > 0.0:
            return
        if v.imag == 0.0 and v.real > 0.0:
            return
        raise InvalidCoupling(f"coupling {v} is not in iR+, R+ or {{0}}")

    @property
    def regime(self) -> str:
        v = self.value
        if v == 0:
            return FREE
        return FOCUSING if v.real == 0.0 else DEFOCUSING

    @property
    def involution_sign(self) -> float:
        """c*/c; equals -1 in the focusing regime, +1 otherwise."""
        if self.value == 0:
            return 1.0
        return (self.value.conjugate() / self.value).real


def classify_regime(c: Coupling) -> str:
    """Regime tag of an admissible coupling (validation happens in Coupling)."""
    if not isinstance(c, Coupling):
        c = Coupling(c)
    return c.regime


@dataclass(frozen=True)
class Schwartz:
    """Rapid decay at both ends of the grid."""


@dataclass(frozen=True)
class FiniteDensity:
    """Constant modulus rho at both ends, with phase jump theta:
    q -> rho at the left end and q -> rho e^{i theta} at the right end."""

    rho: float
    theta: float

    def __post_init__(self):
        if not self.rho > 0:
            raise NlsQuenchError("finite-density rho must be positive")
        if not (0.0 <= self.theta < 2 * np.pi):
            raise NlsQuenchError("theta must lie in [0, 2*pi)")


Asymptotics = Union[Schwartz, FiniteDensity]


@dataclass(frozen=True)
class FieldProfile:
    """Complex field sampled on the uniform grid x_j = -L + j*h.

    For profiles built by :func:`make_profile` the grid is symmetric,
    x_{N-1} = +L.  Snapshots coming from the periodic PDE stepper stop one
    spacing short of +L; the boundary checks always use the actual end
    nodes.
    """

    L: float
    h: float
    values: np.ndarray
    asymptotics: Asymptotics
    boundary_tol: float = 1e-8

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    def edge_values(self) -> Tuple[complex, complex]:
        """Asymptotic values the field should attain at the two grid ends."""
        if isinstance(self.asymptotics, Schwartz):
            return 0.0 + 0.0j, 0.0 + 0.0j
        a = self.asymptotics
        return complex(a.rho), a.rho * np.exp(1j * a.theta)

    def validate(self):
        if self.n < 16:
            raise NlsQuenchError("profile needs at least 16 samples")
        if not (self.h > 0 and self.L > 0):
            raise NlsQuenchError("grid spacing and half-width must be positive")
        if not np.isfinite(self.values).all():
            raise NlsQuenchError("profile samples must be finite")
        left, right = self.edge_values()
        dl = abs(self.values[0] - left)
        dr = abs(self.values[-1] - right)
        if dl > self.boundary_tol or dr > self.boundary_tol:
            raise BoundaryMismatch(
                f"boundary residuals ({dl:.3e}, {dr:.3e}) exceed tol {self.boundary_tol:.1e}"
            )
        return self

    def to_json_dict(self):
        a = self.asymptotics
        return {
            "L": self.L,
            "h": self.h,
            "asymptotics": {"kind": "schwartz"} if isinstance(a, Schwartz) else
                           {"kind": "finite_density", "rho": a.rho, "theta": a.theta},
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @staticmethod
    def from_json_dict(d, doc="profile") -> "FieldProfile":
        r = JsonReader(d, doc=doc)
        spec = r.block("asymptotics", required=True)
        kind = spec("kind", cast=str)
        if kind == "schwartz":
            asymptotics = Schwartz()
        elif kind == "finite_density":
            asymptotics = FiniteDensity(rho=spec("rho"), theta=spec("theta"))
        else:
            raise spec.error("kind", f" {kind!r} is not 'schwartz' or 'finite_density'")
        return FieldProfile(L=r("L"), h=r("h"), values=r.complex_samples("re", "im"),
                            asymptotics=asymptotics)


def make_profile(
    values: Sequence[complex],
    L: float,
    asymptotics: Asymptotics,
    boundary_tol: float = 1e-8,
    x: Optional[Sequence[float]] = None,
) -> FieldProfile:
    """Validated profile on the symmetric grid [-L, L].

    When an explicit sample grid `x` is supplied it must already be uniform
    and span [-L, L]; non-uniform input is rejected, never resampled.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    if n < 16:
        raise NlsQuenchError("profile needs at least 16 samples")
    if not L > 0:
        raise NlsQuenchError("half-width L must be positive")
    h = 2.0 * L / (n - 1)
    if x is not None:
        x = np.asarray(x, dtype=float)
        if len(x) != n:
            raise NonUniformGrid("sample grid length does not match values")
        dx = np.diff(x)
        if dx.size and (abs(dx - dx[0]) > 1e-12 * (1.0 + abs(dx[0]))).any():
            raise NonUniformGrid("sample grid is not uniform")
        if abs(x[0] + L) > 1e-12 * (1 + L) or abs(x[-1] - L) > 1e-12 * (1 + L):
            raise NonUniformGrid("sample grid does not span [-L, L]")
        h = dx[0] if dx.size else h
    return FieldProfile(L=L, h=h, values=values, asymptotics=asymptotics,
                        boundary_tol=boundary_tol).validate()


@dataclass(frozen=True)
class KGrid:
    """Sorted real spectral samples, with the forbidden gap (if any) recorded."""

    samples: np.ndarray
    gap: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float).copy()
        if s.ndim != 1 or len(s) < 2:
            raise EmptyGrid("spectral grid needs at least two samples")
        if not np.isfinite(s).all():
            raise NlsQuenchError("spectral samples must be finite")
        if (np.diff(s) <= 0).any():
            raise NlsQuenchError("spectral samples must be strictly increasing")
        if self.gap is not None:
            lo, hi = self.gap
            if not (np.isfinite(self.gap).all() and lo < hi) or ((s > lo) & (s < hi)).any():
                raise NlsQuenchError(f"gap {self.gap}: non-finite, reversed or holding a sample")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return len(self.samples)


def gap_edge(c: Coupling, asymptotics: Asymptotics) -> Optional[float]:
    """Edge g of the forbidden gap (-g, g) of real k, g = |c| rho, which only
    the defocusing finite-density case carries (None otherwise)."""
    if isinstance(asymptotics, FiniteDensity) and c.regime == DEFOCUSING:
        return abs(c.value) * asymptotics.rho
    return None


def make_kgrid(c: Coupling, asymptotics: Asymptotics, k_max: float, n: int) -> KGrid:
    """Spectral grid on [-k_max, k_max] intersected with the admissible set.

    Where there is a forbidden gap (see gap_edge) the samples are split
    between the two allowed segments (the right one takes the odd sample),
    each evenly spaced on its own; the branch points themselves are
    excluded.
    """
    if not (k_max > 0 and n >= 2):
        raise NlsQuenchError("need k_max > 0 and n >= 2")
    g = gap_edge(c, asymptotics)
    if g is None:
        return KGrid(np.linspace(-k_max, k_max, n))
    if k_max <= g:
        raise EmptyGrid(f"k_max {k_max} does not reach past the gap edge {g}")
    # each segment open at its branch point and closed at +-k_max
    right, left = (g + (k_max - g) * (np.arange(1, m + 1) / m) for m in (n - n // 2, n // 2))
    return KGrid(np.concatenate([-left[::-1], right]), gap=(-g, g))


def trapezoid_weights(k: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a sorted grid of one segment."""
    d = np.diff(k)
    w = np.zeros(len(k))
    w[1:] += 0.5 * d
    w[:-1] += 0.5 * d
    return w


@dataclass(frozen=True)
class DiscreteEigenvalue:
    """Zero of a(k) in the upper half-plane with its multiplicity."""

    position: complex
    order: int = 1
    norming: Optional[complex] = None

    def __post_init__(self):
        if not self.position.imag > 0:
            raise NlsQuenchError("discrete eigenvalue must have Im k > 0")
        if self.order < 1:
            raise NlsQuenchError("order must be >= 1")

    def to_json_dict(self):
        norming = {} if self.norming is None else {"norming": complex_json(self.norming)}
        return {**complex_json(self.position), "order": self.order, **norming}

    @staticmethod
    def from_json_dict(d, name="", doc="zero") -> "DiscreteEigenvalue":
        r = JsonReader(d, name, doc)
        return DiscreteEigenvalue(position=r.complex(), order=r("order", 1, int),
                                  norming=r.complex("norming") if "norming" in r else None)


@dataclass(frozen=True)
class ScatteringData:
    """Samples of a(k), b(k) on a spectral grid plus the discrete spectrum."""

    kgrid: KGrid
    a: np.ndarray
    b: np.ndarray
    discrete: Tuple[DiscreteEigenvalue, ...] = ()
    coupling: Coupling = field(default_factory=lambda: Coupling(1.0))

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.complex128).copy()
        b = np.asarray(self.b, dtype=np.complex128).copy()
        if len(a) != self.kgrid.n or len(b) != self.kgrid.n:
            raise NlsQuenchError("a, b must be sampled on the spectral grid")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NlsQuenchError("a, b samples must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "discrete", tuple(self.discrete))

    def assembled_matrices(self) -> np.ndarray:
        """S(k) rebuilt from (a, b): [[a*, b], [(c*/c) b*, a]] per sample."""
        n = self.kgrid.n
        s = np.empty((n, 2, 2), dtype=np.complex128)
        s[:, 0, 0] = np.conj(self.a)
        s[:, 0, 1] = self.b
        s[:, 1, 0] = self.coupling.involution_sign * np.conj(self.b)
        s[:, 1, 1] = self.a
        return s

    def det_defect(self) -> float:
        """max_k |det S(k) - 1| of the assembled matrices."""
        s = self.assembled_matrices()
        det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
        return float(np.max(np.abs(det - 1.0)))

    def reflection_samples(self) -> np.ndarray:
        return self.b / self.a

    def validate(self, det_tol: float = 1e-8, edge_tol: Optional[float] = 0.5):
        """Check det S = 1 to det_tol and, unless edge_tol is None, that a
        has reached its limit 1 at both grid ends to within edge_tol."""
        d = self.det_defect()
        if d > det_tol:
            raise NlsQuenchError(f"det S defect {d:.3e} exceeds {det_tol:.1e}")
        if edge_tol is not None:
            e = max(abs(self.a[0] - 1.0), abs(self.a[-1] - 1.0))
            if e > edge_tol:
                raise NlsQuenchError(
                    f"a at the grid ends differs from its limit by {e:.3e} "
                    f"(tol {edge_tol:.1e}); widen the k window"
                )
        return self

    def to_json_dict(self):
        return {
            "k": self.kgrid.samples.tolist(),
            "a_re": self.a.real.tolist(),
            "a_im": self.a.imag.tolist(),
            "b_re": self.b.real.tolist(),
            "b_im": self.b.imag.tolist(),
            "zeros": [z.to_json_dict() for z in self.discrete],
            "coupling": complex_json(self.coupling.value),
            **({} if self.kgrid.gap is None else {"gap": list(self.kgrid.gap)}),
        }

    @staticmethod
    def from_json_dict(d, doc="scattering data") -> "ScatteringData":
        r = JsonReader(d, doc=doc)
        return ScatteringData(
            kgrid=KGrid(r("k", cast=_floats), gap=r("gap", None, _interval)),
            a=r.complex_samples("a_re", "a_im"),
            b=r.complex_samples("b_re", "b_im"),
            discrete=r.each("zeros", DiscreteEigenvalue.from_json_dict, ()),
            coupling=Coupling(r.complex("coupling")),
        )


@dataclass(frozen=True)
class QuenchReport:
    """Scattering data of one field at two couplings."""

    pre: ScatteringData
    post: ScatteringData

    def __post_init__(self):
        if not np.array_equal(self.pre.kgrid.samples, self.post.kgrid.samples):
            raise NlsQuenchError("pre and post data must share one spectral grid")

    def to_json_dict(self):
        return {"pre": self.pre.to_json_dict(), "post": self.post.to_json_dict()}


def dump_json(obj, path):
    """Deterministic JSON writer (sorted keys, LF, shortest float repr)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def load_json(path):
    """The JSON document at path; ConfigError naming it if not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: {exc}") from exc
