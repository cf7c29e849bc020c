"""The rank-4 Grothendieck lattice of a smooth quadric surface.

Basis (a, l, l', p): structure sheaf, a line from each of the two
rulings, a point.  The shift action of t and the Euler form are encoded
as integer 4x4 matrices; the intersection pairing is minus the Euler
form.  Everything is exact integer arithmetic.

The displayed module presentation in the source material is known to
disagree with the explicit basis action (see relation_suite, which
reports both facts); this model implements the basis action.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from operator import index

BASIS_NAMES = ("a", "ℓ", "ℓ'", "p")
_PARSE_ALIASES = {"a": 0, "ℓ": 1, "l": 1, "ℓ'": 2, "l'": 2, "p": 3}


@dataclass(frozen=True)
class K0Class:
    """Integer vector in the basis (a, l, l', p)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(index(c) for c in self.coeffs))
        if len(self.coeffs) != 4:
            raise ValueError("K0 classes have four coordinates")

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-x for x in self.coeffs))

    def __rmul__(self, k: int) -> "K0Class":
        return K0Class(tuple(index(k) * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def __str__(self) -> str:
        return format_class(self)

    def to_json(self) -> list:
        return list(self.coeffs)


A = K0Class((1, 0, 0, 0))
L = K0Class((0, 1, 0, 0))
LP = K0Class((0, 0, 1, 0))
P = K0Class((0, 0, 0, 1))

# at = a - l - l' + p, lt = l - p, l't = l' - p, pt = p
_T = ((1, 0, 0, 0),
      (-1, 1, 0, 0),
      (-1, 0, 1, 0),
      (1, -1, -1, 1))

# rows and columns ordered (a, l, l', p)
_G = ((1, 1, 1, 1),
      (-1, 0, -1, 0),
      (-1, -1, 0, 0),
      (1, 0, 0, 0))


def _mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(4)) for i in range(4))


def _mat_mul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


# T - I, nilpotent of index 3 (lattice_init checks it), so act_t has a closed form
_N = tuple(tuple(_T[i][j] - (i == j) for j in range(4)) for i in range(4))


def _binomials(k: int, m: int) -> list:
    """C(k, 0), ..., C(k, m) for any integer k, C(k, j) = k(k-1)...(k-j+1)/j!."""
    out = [1]
    for j in range(1, m + 1):
        out.append(out[-1] * (k - j + 1) // j)
    return out


@dataclass(frozen=True)
class K0Lattice:
    """The shift action T and Euler form G on the (a, l, l', p) lattice."""

    t_action: tuple
    euler_form: tuple


def lattice_init() -> K0Lattice:
    """Construct the lattice and sanity-check its defining invariants."""
    lat = K0Lattice(_T, _G)
    n2 = _mat_mul(_N, _N)
    n3 = _mat_mul(n2, _N)
    if any(any(row) for row in n3) or not any(any(row) for row in n2):
        raise AssertionError("(1 - t) must be nilpotent of index exactly 3")
    return lat


def act_t(x: K0Class, k: int = 1) -> K0Class:
    """Apply the shift class action t^k; k may be negative.

    T^k = (I + N)^k = I + C(k, 1) N + C(k, 2) N^2 for every integer k,
    as N^3 = 0.
    """
    _, c1, c2 = _binomials(index(k), 2)
    v = x.coeffs
    nv = _mat_vec(_N, v)
    n2v = _mat_vec(_N, nv)
    return K0Class(tuple(a + c1 * b + c2 * e for a, b, e in zip(v, nv, n2v)))


def euler(x: K0Class, y: K0Class) -> int:
    """Alternating sum of Ext dimensions, as a bilinear integer form."""
    return sum(x.coeffs[i] * _G[i][j] * y.coeffs[j]
               for i in range(4) for j in range(4))


def intersect(x: K0Class, y: K0Class) -> int:
    """Intersection pairing: minus the Euler form."""
    return -euler(x, y)


def m_class() -> K0Class:
    return A - L


def m_prime_class() -> K0Class:
    return A - LP


def h_class() -> K0Class:
    """Hyperplane class: [O] - [O(-1)] = l + l' t."""
    return L + act_t(LP)


def fat_class(i: int) -> K0Class:
    """Class l - l' + (i+1) p of the i-th fat point; cross-checked
    against l - l' t^(i+1)."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    direct = L - LP + (i + 1) * P
    via_action = L - act_t(LP, i + 1)
    if direct != via_action:
        raise AssertionError("fat-point class cross-check failed")
    return direct


def format_class(x: K0Class) -> str:
    parts = []
    for c, name in zip(x.coeffs, BASIS_NAMES):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        term = name if mag == 1 else "%d%s" % (mag, name)
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += sign + term
    return out


def parse_class(text: str) -> K0Class:
    """Parse 'xa+yl+zl'+wp' (or the unicode form) or a JSON array."""
    text = text.strip()
    if text.startswith("["):
        vals = json.loads(text)
        return K0Class(tuple(index(v) for v in vals))
    coeffs = [0, 0, 0, 0]
    i = 0
    n = len(text)
    if text == "0":
        return K0Class((0, 0, 0, 0))
    while i < n:
        sign = 1
        while i < n and text[i] in "+- ":
            if text[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and (text[j].isdigit()):
            j += 1
        mag = int(text[i:j]) if j > i else 1
        i = j
        if i < n and text[i] == "*":
            i += 1
        # symbol: a, p, l or l' (ascii or unicode)
        for probe in (2, 1):
            sym = text[i:i + probe]
            if sym in _PARSE_ALIASES:
                coeffs[_PARSE_ALIASES[sym]] += sign * mag
                i += probe
                break
        else:
            raise ValueError("cannot parse class symbol at %r" % text[i:])
    return K0Class(tuple(coeffs))


# -- quantum projective space class ring Z[t]/(1-t)^(n+1) --

_KINDS = {"structure": 0, "hyperplane": 1, "line": 2, "point": 3}


@dataclass(frozen=True)
class ProjNClass:
    """Polynomial class reduced modulo (1 - t)^(n+1)."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(index(c) for c in self.coeffs))
        if len(self.coeffs) != self.n + 1:
            raise ValueError("canonical representative has degree <= n")

    def __mul__(self, other: "ProjNClass") -> "ProjNClass":
        if self.n != other.n:
            raise ValueError("mixed ambient dimensions")
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return ProjNClass(self.n, _reduce_mod_one_minus_t(prod, self.n))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                if k == 0:
                    terms.append(str(c))
                else:
                    mag = "" if abs(c) == 1 else str(abs(c))
                    s = "-" if c < 0 else ("+" if terms else "")
                    terms.append("%s%st%s" % (s, mag, "" if k == 1 else "^%d" % k))
        return "".join(terms) or "0"


def _substitute_one_minus(p: list, bound: int) -> list:
    """Coefficients of p(1 - u) truncated to degree <= bound."""
    out = [0] * (bound + 1)
    for k, c in enumerate(p):
        if c:
            for j in range(min(k, bound) + 1):
                out[j] += c * comb(k, j) * ((-1) ** j)
    return out


def _reduce_mod_one_minus_t(p: list, n: int) -> tuple:
    """Canonical representative of p(t) modulo (1 - t)^(n+1)."""
    in_u = _substitute_one_minus(p, n)      # t = 1 - u, truncate u^(n+1)
    back = _substitute_one_minus(in_u, n)   # u = 1 - t, involution
    return tuple(back)


def projn_class(n: int, kind: str, shift: int = 0) -> ProjNClass:
    """Class (1-t)^codim * t^shift in Z[t]/(1-t)^(n+1).

    kind picks the codimension: structure 0, hyperplane 1, line 2,
    point 3.  With u = 1 - t the class is u^codim (1 - u)^shift, and
    (1 - u)^shift = sum_j C(shift, j) (-u)^j modulo u^(n+1) for every
    integer shift, negative ones included, since t is a unit there.
    """
    if kind not in _KINDS:
        raise ValueError("kind must be one of %s" % sorted(_KINDS))
    codim = _KINDS[kind]
    shift = index(shift)
    in_u = [0] * (n + 1)
    if codim <= n:
        for j, c in enumerate(_binomials(shift, n - codim)):
            in_u[codim + j] = (-1) ** j * c
    return ProjNClass(n, _substitute_one_minus(in_u, n))


# -- identity suite --

def relation_suite() -> dict:
    """Run the full identity suite for the lattice model.

    Returns a report mapping check names to {holds, value}; the overall
    key "ok" requires every expected identity to hold.  The check named
    displayed_presentation_variant records that the alternative relation
    a(1-t^2) - 2l(1-t) does NOT vanish in this model (its value is
    2l + 2l' - 6p); the model follows the explicit basis action.
    """
    report = {}

    def record(name, holds, value=""):
        report[name] = {"holds": bool(holds), "value": str(value)}

    basis = [A, L, LP, P]

    one_minus_t = lambda x: x - act_t(x)

    record("l_one_minus_t_squared", one_minus_t(one_minus_t(L)).is_zero(),
           one_minus_t(one_minus_t(L)))
    a_rel = one_minus_t(one_minus_t(A)) - 2 * one_minus_t(L)
    record("a_one_minus_t_sq_minus_2l", a_rel.is_zero(), a_rel)

    n2 = _mat_mul(_N, _N)
    n3 = _mat_mul(n2, _N)
    record("one_minus_t_cubed_zero", not any(any(r) for r in n3))
    record("one_minus_t_squared_nonzero", any(any(r) for r in n2),
           K0Class(_mat_vec(n2, A.coeffs)))

    kc = A + 4 * act_t(A) - act_t(A, 2) - 2 * (m_class() + m_prime_class())
    record("trivial_module_class_zero", kc.is_zero(), kc)

    variant = A - act_t(A, 2) - 2 * one_minus_t(L)
    expected_variant = 2 * L + 2 * LP - 6 * P
    record("displayed_presentation_variant",
           variant == expected_variant and not variant.is_zero(), variant)

    serre = all(euler(x, y) == euler(y, act_t(x, 2)) for x in basis for y in basis)
    record("serre_duality_pairs", serre)
    twist = all(euler(act_t(x), act_t(y)) == euler(x, y)
                for x in basis for y in basis)
    record("twist_invariance", twist)

    record("m_m_prime_orthogonal", euler(m_class(), m_prime_class()) == 0,
           euler(m_class(), m_prime_class()))

    record("h_symmetric", h_class() == LP + act_t(L), h_class())
    record("p_from_lines",
           one_minus_t(L) == P and one_minus_t(LP) == P, one_minus_t(L))

    ker_ok = (one_minus_t(P).is_zero() and one_minus_t(L - LP).is_zero()
              and _kernel_is_p_and_l_diff())
    record("kernel_one_minus_t", ker_ok)

    fats_ok = True
    for i in range(11):
        f = fat_class(i)
        if euler(f, f) != 2 or intersect(f, f) != -2:
            fats_ok = False
    record("fat_point_classes", fats_ok)

    table_ok = _intersection_table_ok()
    record("intersection_table", table_ok)

    report["ok"] = all(v["holds"] for k, v in report.items() if k != "ok")
    return report


def _kernel_is_p_and_l_diff() -> bool:
    # integer kernel of (1 - T) = -N must be exactly Z p + Z (l - l')
    for v in ((0, 1, -1, 0), (0, 0, 0, 1)):
        if any(_mat_vec(_N, v)):
            return False
    # any kernel vector (x_a, x_l, x_l', x_p) must satisfy x_a = 0 and
    # x_l + x_l' = 0, which is visible from the rows of N
    rows = set(tuple(r) for r in _N if any(r))
    return rows == {(-1, 0, 0, 0), (1, -1, -1, 0)}


def _intersection_table_ok() -> bool:
    h = h_class()
    zero_pairs = [(L, L), (L, P), (h, P), (P, h), (P, L), (LP, LP)]
    one_pairs = [(L, LP), (L, h), (LP, h), (h, LP), (h, L), (LP, L)]
    return (all(intersect(x, y) == 0 for x, y in zero_pairs)
            and all(intersect(x, y) == 1 for x, y in one_pairs))
