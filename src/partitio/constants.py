"""Engine for the special constants behind linear-in-k sufficiency bounds.

Everything here is closed-form evaluation plus one-dimensional root finding
for strictly monotone functions: the decreasing solution of y + log y = 1 - t,
the per-k parameter bundle (r, zeta_k, phi_k, sigma_k), the pruning constants
c1 and c2, the minimised exponent E(sigma, phi) with its two analytic
branches, stored admissible exponents, and the catalogue of printed bounds.

Reference tables that the test suite reproduces digit for digit live at the
bottom of the module, together with their display conventions (the source
tables round up or down in the last digit displayed, never to nearest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Union

LOG2 = math.log(2.0)

#: Limiting value of the per-k ratio 2r/k (the k -> infinity height exponent).
ZETA_STAR = 0.5 + LOG2

Number = Union[int, float, Fraction]


class BracketError(ValueError):
    """The supplied bracket does not enclose the target value."""


class NoConvergence(RuntimeError):
    """Root finder exhausted ROOT_MAX_ITERATIONS without meeting ROOT_TOLERANCE."""


class MissingTableEntry(KeyError):
    """No stored admissible exponent for the requested (k, t)."""


class UnresolvableDelta(ValueError):
    """None of the requested conditions could resolve an admissible exponent."""


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


#: Absolute residual |g(x) - target| at which solve_monotone stops.
ROOT_TOLERANCE = 1e-12
#: Secant steps solve_monotone takes before it raises NoConvergence.
ROOT_MAX_ITERATIONS = 200


def solve_monotone(
    g: Callable[[float], float], target: float, bracket: tuple[float, float]
) -> float:
    """Solve g(x) = target for strictly monotone g on bracket = (lo, hi).

    The bracket must be finite with lo < hi.  Safeguarded secant iteration
    (Illinois variant); the bracket never grows, so termination is
    guaranteed.  Returns x with |g(x) - target| within ROOT_TOLERANCE.
    """
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad bracket {bracket!r}")
    flo = g(lo) - target
    fhi = g(hi) - target
    if abs(flo) <= ROOT_TOLERANCE:
        return lo
    if abs(fhi) <= ROOT_TOLERANCE:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"g({lo}) - target and g({hi}) - target have the same sign "
            f"({flo:.3g}, {fhi:.3g})"
        )
    side = 0
    x, fx = lo, flo
    for _ in range(ROOT_MAX_ITERATIONS):
        if fhi != flo:
            x = (lo * fhi - hi * flo) / (fhi - flo)
        if not (min(lo, hi) < x < max(lo, hi)):
            x = 0.5 * (lo + hi)
        fx = g(x) - target
        if abs(fx) <= ROOT_TOLERANCE:
            return x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo *= 0.5
            side = 1
        if hi == lo:
            break
    raise NoConvergence(
        f"no root to tolerance {ROOT_TOLERANCE} in {ROOT_MAX_ITERATIONS} iterations "
        f"(best residual {fx:.3g})"
    )


# ---------------------------------------------------------------------------
# The decreasing solution of y + log y = 1 - t and friends
# ---------------------------------------------------------------------------


def eta(t: float) -> float:
    """Unique y in (0, 1) with y + log y = 1 - t, for t > 0.

    Newton iteration started from the right of the root (y + log y is concave
    increasing, so the iterates decrease monotonically onto it).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    c = 1.0 - t
    y = min(1.0, math.exp(min(c, 0.0)))  # g(y0) >= 0, so y0 is right of the root
    for _ in range(80):
        f = y + math.log(y) - c
        if abs(f) <= 1e-15:
            break
        y -= f * y / (y + 1.0)
    return y


def eta_inverse(y: float) -> float:
    """Closed-form inverse of :func:`eta`: the t with eta(t) = y."""
    if not 0.0 < y < 1.0:
        raise ValueError(f"y must lie in (0, 1), got {y}")
    return 1.0 - y - math.log(y)


def c1(phi: float) -> float:
    """1 + log 2 - phi/2 - log phi; equals eta_inverse(phi/2) on (0, 2)."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi}")
    return 1.0 + LOG2 - 0.5 * phi - math.log(phi)


# ---------------------------------------------------------------------------
# Per-k parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KParams:
    k: int
    r: int                  # smallest integer with 2r >= (1/2 + log 2) k
    zeta_k: Fraction        # 2r / k
    phi_k: float            # root of phi + log phi = log 2 - zeta_k
    sigma_k: float          # c1(phi_k)


def k_params(k: int) -> KParams:
    if k < 3:
        raise ValueError("k must be at least 3")
    r = math.ceil(ZETA_STAR * k / 2.0)
    zeta = Fraction(2 * r, k)
    phi_k = eta(1.0 + float(zeta) - LOG2)
    return KParams(k=k, r=r, zeta_k=zeta, phi_k=phi_k, sigma_k=c1(phi_k))


# ---------------------------------------------------------------------------
# Headline constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    zeta_star: float
    phi_star: float    # phi + log phi = -1/2
    sigma_star: float  # 2 sigma = phi* + 3 + 2 log 2
    c: float           # 2c = 2 + log(5c - 1), c > 1
    theta: float       # theta - log theta = 11/8 + log 4, theta > 1
    c_tilde: float     # theta/2 + 9/16 + log 2
    c0: float          # 3/4 + 2 log 2
    D: float           # stored datum for the smooth Weyl sup bound

    def residuals(self) -> dict[str, float]:
        """Defining-equation residuals, all expected below 1e-10."""
        return {
            "phi_star": self.phi_star + math.log(self.phi_star) + 0.5,
            "sigma_star": 2 * self.sigma_star - (self.phi_star + 3 + 2 * LOG2),
            "c": 2 * self.c - (2 + math.log(5 * self.c - 1)),
            "theta": self.theta - math.log(self.theta) - (11.0 / 8.0 + math.log(4.0)),
            "c_tilde": self.c_tilde - (self.theta / 2 + 9.0 / 16.0 + LOG2),
            "c0": self.c0 - (0.75 + 2 * LOG2),
        }


def _solve_z_minus_log_z(target: float) -> float:
    """Root z > 1 of z - log z = target (target > 1; increasing branch)."""
    hi = target + math.log(target) + 3.0
    return solve_monotone(lambda z: z - math.log(z), target, (1.0, hi))


def constants_report() -> ConstantsReport:
    phi_star = eta(1.5)
    theta = _solve_z_minus_log_z(11.0 / 8.0 + math.log(4.0))
    c = solve_monotone(lambda x: 2 * x - math.log(5 * x - 1), 2.0, (1.0, 3.0))
    return ConstantsReport(
        zeta_star=ZETA_STAR,
        phi_star=phi_star,
        sigma_star=0.5 * (phi_star + 3 + 2 * LOG2),
        c=c,
        theta=theta,
        c_tilde=0.5 * theta + 9.0 / 16.0 + LOG2,
        c0=0.75 + 2 * LOG2,
        D=4.5139506,
    )


# ---------------------------------------------------------------------------
# c2 and the minimised exponent E
# ---------------------------------------------------------------------------


class NoRootAboveOne(ValueError):
    """z - log z = rhs has no root with z > 1 (rhs < 1): phi out of range."""


def c2_fn(phi: float, zeta: float) -> tuple[float, float]:
    """Solve z - log z = 2 - zeta - phi - log phi and return (z, c2).

    c2 = z/2 + zeta + phi/2.  Raises :class:`NoRootAboveOne` when the right
    hand side falls below 1, which signals phi outside the admissible range
    for the supplied zeta.
    """
    if not phi > 0:
        raise ValueError("phi must be positive")
    rhs = 2.0 - zeta - phi - math.log(phi)
    if rhs < 1.0:
        raise NoRootAboveOne(f"rhs = {rhs:.6g} < 1 for phi={phi}, zeta={zeta}")
    z = 1.0 if rhs == 1.0 else _solve_z_minus_log_z(rhs)
    return z, 0.5 * z + zeta + 0.5 * phi


@dataclass(frozen=True)
class EBranchResult:
    value: float
    branch: str            # "F-branch" or "eta-branch"
    tau0: Optional[float]  # interior minimiser, absent on the eta branch


def e_closed(sigma: float, phi: float, zeta: float) -> EBranchResult:
    """Closed form of the minimised exponent E(sigma, phi) for fixed zeta.

    F branch (interior minimum at tau0 > 0) when 2*gamma > phi and
    eta(sigma) > phi / (2*gamma - phi); otherwise the minimum sits at tau = 0
    and E = 2*eta(sigma)/phi.
    """
    gamma = sigma - zeta
    if gamma <= 0:
        raise ValueError(f"sigma - zeta must be positive, got {gamma}")
    eta_sigma = eta(sigma)
    z = 2.0 * gamma - phi
    if z > 0 and eta_sigma > phi / z:
        tau0 = 1.0 - sigma - phi / z + math.log(z / phi)
        return EBranchResult(value=2.0 / z + tau0 / gamma, branch="F-branch", tau0=tau0)
    return EBranchResult(value=2.0 * eta_sigma / phi, branch="eta-branch", tau0=None)


# ---------------------------------------------------------------------------
# Admissible exponents
# ---------------------------------------------------------------------------

#: Stored admissible exponents, exact decimals as printed in the sources.
DELTA_TABLE: dict[int, dict[int, Fraction]] = {
    3: {5: Fraction(10, 17)},
    4: {7: Fraction("0.849408")},
    5: {9: Fraction("1.181868")},
    7: {8: Fraction("3.27"), 26: Fraction("0.1926")},
    8: {10: Fraction("3.50"), 32: Fraction("0.1892")},
    9: {10: Fraction("4.42"), 36: Fraction("0.2521")},
    10: {12: Fraction("4.65"), 42: Fraction("0.2450")},
    11: {14: Fraction("4.89"), 48: Fraction("0.2414")},
    12: {14: Fraction("5.80"), 50: Fraction("0.3469")},
}


#: The ways an admissible exponent can be resolved; see admissible_exponent.
DELTA_SOURCES = ("table", "large-k")


def _check_source(source: str) -> None:
    if source not in DELTA_SOURCES:
        raise ValueError(f"unknown delta source {source!r} (one of {', '.join(DELTA_SOURCES)})")


def _lookup(k: int, t: Number, source: str) -> Number:
    """Delta_t for exponent k: the stored exact Fraction for source "table",
    k * eta(t/k) for "large-k" (t an even natural number)."""
    _check_source(source)
    if source == "large-k":
        if t != int(t) or int(t) < 2 or int(t) % 2:
            raise ValueError(f"large-k source needs an even natural t, got {t}")
        return k * eta(float(t) / k)
    if t != int(t):
        raise ValueError(f"table source needs an integer t, got {t}")
    try:
        return DELTA_TABLE[k][int(t)]
    except KeyError as exc:
        raise MissingTableEntry(f"no stored Delta_{t} for k={k}") from exc


def admissible_exponent(k: int, t: Number, source: str = "table") -> float:
    """Resolve an admissible exponent Delta_t for exponent k.

    source "table" looks up a stored value (MissingTableEntry where none is
    stored); "large-k" evaluates k * eta(t/k) (t must be an even natural
    number).
    """
    return float(_lookup(k, t, source))


def _try_delta(k: int, t: Number, source: str) -> Optional[Number]:
    """Like admissible_exponent but None where a known source cannot resolve;
    an unknown source is a ValueError.

    Table lookups return the stored exact Fraction so downstream comparisons
    can stay in rational arithmetic.
    """
    _check_source(source)
    try:
        return _lookup(k, t, source)
    except (MissingTableEntry, ValueError):
        return None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the size/height inequality checks for one (k, s, phi[, r, t])."""

    k: int
    s: int
    phi: Number
    r: Optional[int]
    t: Optional[Number]
    s_ge_3k_over_2: bool
    size_condition: bool                 # s > (1-phi)(2 floor(k/2) + 4) + 2 phi
    height_condition: Optional[bool]     # 2 Delta_s < k phi
    slice_condition: Optional[bool]      # 2 Delta_{s+t}/k < (1 - t/(s-2r)) phi
    delta_s: Optional[Number]
    delta_s_plus_t: Optional[Number]
    delta_star: Optional[Number]         # (k phi / 2)(1 - t/(s-2r))

    def all_passed(self) -> bool:
        checks = [self.s_ge_3k_over_2, self.size_condition]
        checks += [c for c in (self.height_condition, self.slice_condition) if c is not None]
        return all(checks)


def condition_check(
    k: int,
    s: int,
    phi: Number,
    r: Optional[int] = None,
    t: Optional[Number] = None,
    delta_source: str = "table",
) -> ConditionReport:
    """Evaluate the entry conditions exactly as written.

    Fraction inputs stay exact throughout (needed for the round-down table
    comparisons).  Conditions whose admissible exponent cannot be resolved
    from delta_source are reported as None; if no requested condition can be
    resolved at all, :class:`UnresolvableDelta` is raised.
    """
    cond_a = 2 * s >= 3 * k
    cond_size = s > (1 - phi) * (2 * (k // 2) + 4) + 2 * phi

    delta_s = _try_delta(k, s, delta_source)
    height = None if delta_s is None else bool(2 * delta_s < k * phi)

    delta_st = None
    slice_cond = None
    delta_star = None
    if t is not None:
        if r is None:
            raise ValueError("the slice condition needs r")
        if s <= 2 * r:
            raise ValueError("the slice condition needs s > 2r")
        t_exact = Fraction(t) if isinstance(phi, Fraction) else t
        delta_star = (k * phi / 2) * (1 - t_exact / (s - 2 * r))
        delta_st = _try_delta(k, s + t, delta_source)
        if delta_st is not None:
            slice_cond = bool(2 * delta_st / k < (1 - t_exact / (s - 2 * r)) * phi)

    if height is None and t is not None and slice_cond is None:
        raise UnresolvableDelta(
            f"neither Delta_{s} nor Delta_{s}+{t} resolvable from {delta_source!r} at k={k}"
        )
    if height is None and t is None:
        raise UnresolvableDelta(f"Delta_{s} not resolvable from {delta_source!r} at k={k}")

    return ConditionReport(
        k=k,
        s=s,
        phi=phi,
        r=r,
        t=t,
        s_ge_3k_over_2=bool(cond_a),
        size_condition=bool(cond_size),
        height_condition=height,
        slice_condition=slice_cond,
        delta_s=delta_s,
        delta_s_plus_t=delta_st,
        delta_star=delta_star,
    )


# ---------------------------------------------------------------------------
# Bound catalogue
# ---------------------------------------------------------------------------

#: Number of k-th powers for the full asymptotic count, moderate k.
T0_TABLE = {4: 10, 5: 15, 6: 21, 7: 30, 8: 39, 9: 51, 10: 64, 11: 77, 12: 91}

#: Prime-square variant thresholds, directly stored.
S0_TILDE_TABLE = {3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 24, 9: 27, 10: 31, 11: 35, 12: 38}

#: Variable counts for the Moebius cancellation bound at small k.
S0_MOBIUS_TABLE = {6: 11, 7: 13}


@dataclass(frozen=True)
class BoundCatalog:
    k: int
    g_bound: int                      # ceil(k (log k + 4.20032))
    p_bound: float                    # c k + 4
    s0_bound: int                     # floor(c0 k) + 2
    s0_small: Optional[int]           # 2k-1 for 3<=k<=6, 2k for 7<=k<=11
    t0_bound: int                     # ceil((5k^2 - 2k + 1)/8) + floor(sqrt(2k+2))
    t0_small: Optional[int]
    s0_tilde: Optional[int]
    s0_mobius: Optional[int]
    h: Optional[int] = None
    mixed_power_bound: Optional[float] = None   # (2 log h + 3.20032) k + 2


def bound_catalog(k: int, h: Optional[int] = None) -> BoundCatalog:
    if k < 3:
        raise ValueError("k must be at least 3")
    if h is not None and h < 2:
        raise ValueError("h must be at least 2")
    rep = constants_report()
    s0_small = 2 * k - 1 if 3 <= k <= 6 else (2 * k if 7 <= k <= 11 else None)
    t0_bound = -((-(5 * k * k - 2 * k + 1)) // 8) + math.isqrt(2 * k + 2)
    return BoundCatalog(
        k=k,
        g_bound=math.ceil(k * (math.log(k) + 4.20032)),
        p_bound=rep.c * k + 4,
        s0_bound=math.floor(rep.c0 * k) + 2,
        s0_small=s0_small,
        t0_bound=t0_bound,
        t0_small=T0_TABLE.get(k),
        s0_tilde=S0_TILDE_TABLE.get(k),
        s0_mobius=S0_MOBIUS_TABLE.get(k),
        h=h,
        mixed_power_bound=None if h is None else (2 * math.log(h) + 3.20032) * k + 2,
    )


# ---------------------------------------------------------------------------
# Reference tables and their reproduction
# ---------------------------------------------------------------------------


def round_up_str(x: Number, digits: int) -> str:
    """Fixed-point string of x rounded up in the last digit displayed, exactly."""
    n, d = x.as_integer_ratio()
    return format(Decimal(f"{-(-n * 10**digits // d)}E-{digits}"), "f")


def round_down_str(x: Number, digits: int) -> str:
    """Fixed-point string of x rounded down in the last digit displayed, exactly."""
    n, d = x.as_integer_ratio()
    return format(Decimal(f"{n * 10**digits // d}E-{digits}"), "f")


#: Printed reference rows for the pruning-constant table: phi -> (rhs of the
#: z-equation, z*, c2*, c1), each rounded up in the last digit displayed.
C2_TABLE_REFERENCE: dict[Fraction, tuple[str, str, str, str]] = {
    Fraction(3, 8): ("1.41268208", "2.2020882", "2.481692", "2.486477"),
    Fraction(5, 16): ("1.65750363", "2.6210963", "2.659946", "2.700048"),
    Fraction(1, 4): ("1.94314719", "3.0623200", "2.849308", "2.954442"),
    Fraction(3, 16): ("2.29332926", "3.5642958", "3.069046", "3.273374"),
    Fraction(1, 6): ("2.43194563", "3.7550463", "3.154004", "3.401574"),
    Fraction(1, 8): ("2.76129437", "4.1952465", "3.353271", "3.710089"),
    Fraction(1, 16): ("3.51694155", "5.1573680", "3.803082", "4.434486"),
    Fraction(1, 32): ("4.24133873", "6.0396917", "4.228619", "5.143259"),
    Fraction(1, 64): ("4.95011091", "6.8785135", "4.640217", "5.844218"),
    Fraction(1, 128): ("5.65107059", "7.6911396", "5.042624", "6.541272"),
}

#: Display precision of the four computed columns, each rounded up, and of
#: the printed Delta* of EXPONENT_CHECK_ROWS, rounded down.
C2_TABLE_DIGITS = (8, 7, 6, 6)
DELTA_STAR_DIGITS = 4

#: Cells where the printed source digit provably deviates from its own
#: round-up convention (verified against 50-digit arithmetic): the true
#: z*(1/16) = 5.15736789271855... rounds up to 5.1573679, one ulp below the
#: printed 5.1573680.  (The c2* printed in the same row is consistent with
#: the true root, which pins the defect to that single cell.)
KNOWN_TABLE_ERRATA: dict[tuple[Fraction, int], str] = {
    (Fraction(1, 16), 1): "5.1573680",
}


@dataclass(frozen=True)
class C2TableRow:
    phi: Fraction
    rhs: float
    z_star: float
    c2_star: float
    c1_value: float
    display: tuple[str, str, str, str]
    reference: tuple[str, str, str, str]

    def cell_status(self) -> tuple[str, str, str, str]:
        """Per-cell comparison: 'exact', 'erratum' (documented one-ulp
        deviation of the printed source digit) or 'mismatch'."""
        out = []
        for idx, (got, ref) in enumerate(zip(self.display, self.reference)):
            if got == ref:
                out.append("exact")
            elif KNOWN_TABLE_ERRATA.get((self.phi, idx)) == ref:
                out.append("erratum")
            else:
                out.append("mismatch")
        return tuple(out)

    @property
    def acceptable(self) -> bool:
        return all(s in ("exact", "erratum") for s in self.cell_status())


def c2_star_table() -> list[C2TableRow]:
    """Recompute the ten-row pruning-constant table at zeta = zeta*."""
    rows = []
    for phi, ref in C2_TABLE_REFERENCE.items():
        p = float(phi)
        rhs = 2.0 - ZETA_STAR - p - math.log(p)
        z, c2 = c2_fn(p, ZETA_STAR)
        values = (rhs, z, c2, c1(p))
        display = tuple(round_up_str(v, d) for v, d in zip(values, C2_TABLE_DIGITS))
        rows.append(
            C2TableRow(
                phi=phi,
                rhs=rhs,
                z_star=z,
                c2_star=c2,
                c1_value=values[3],
                display=display,
                reference=ref,
            )
        )
    return rows


#: Verification rows for the prime-square weight (phi = 1/8): per k the
#: smallest usable r, the chosen (s, t) and the printed Delta*_{s,t}(r)
#: (rounded down in the source).  Delta_{2r} and Delta_{s+t} (rounded up in
#: the source) are read from DELTA_TABLE.
EXPONENT_CHECK_ROWS: list[tuple[int, int, int, int, str]] = [
    (7, 4, 20, 6, "0.2187"),
    (8, 5, 24, 8, "0.2142"),
    (9, 5, 27, 9, "0.2647"),
    (10, 6, 31, 11, "0.2631"),
    (11, 7, 35, 13, "0.2619"),
    (12, 7, 38, 12, "0.3750"),
]


@dataclass(frozen=True)
class ExponentCheckRow:
    k: int
    r: int
    s: int
    t: int
    delta_2r: Fraction
    delta_s_plus_t: Fraction
    delta_star: Fraction            # exact (k/16)(1 - t/(s - 2r))
    delta_star_display: str         # rounded down, DELTA_STAR_DIGITS decimals
    reference_star: str
    half_condition: bool            # 2 Delta_{2r} <= k
    bound_holds: bool               # Delta_{s+t} <= Delta*
    display_matches: bool


def exponent_table_check() -> list[ExponentCheckRow]:
    """Exact-rational verification of the stored prime-square exponent rows."""
    rows = []
    for k, r, s, t, star_ref in EXPONENT_CHECK_ROWS:
        delta_2r = DELTA_TABLE[k][2 * r]
        delta_st = DELTA_TABLE[k][s + t]
        star = Fraction(k, 16) * (1 - Fraction(t, s - 2 * r))
        display = round_down_str(star, DELTA_STAR_DIGITS)
        rows.append(
            ExponentCheckRow(
                k=k,
                r=r,
                s=s,
                t=t,
                delta_2r=delta_2r,
                delta_s_plus_t=delta_st,
                delta_star=star,
                delta_star_display=display,
                reference_star=star_ref,
                half_condition=2 * delta_2r <= k,
                bound_holds=delta_st <= star,
                display_matches=display == star_ref,
            )
        )
    return rows
