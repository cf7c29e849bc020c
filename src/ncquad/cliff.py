"""The 8-dimensional Clifford-type invariant of a quadric quotient.

Given S with the right Hilbert behaviour and a central degree-2 element
z, the quotient A = S/(z) has a quadratic dual carrying a canonical
central element w in degree 2: the one-dimensional kernel of the map
from the degree-2 part of the dual of A onto the degree-2 part of the
dual of S.  That degree-2 part is dual to the relation space of S, so
the map is read off the relations directly: the word x_i* x_j* goes to
the coefficients of x_i x_j in the relations.  Inverting w and taking
degree zero gives a finite dimensional algebra; concretely it lives on
the degree-4 component of the dual of A, with products pulled back
through multiplication by w^2.

The dual of A needs no elimination of its own: its relation space is
R_S^perp meet z^perp, and S caches a basis r_1..r_m of R_S^perp as
primitive integer rows.  With c_i = <r_i, z> and k the first index with
c_k != 0, the rows c_k r_i - c_i r_k (i != k) are a basis of it.  All
c_i vanish exactly when z lies in (R_S^perp)^perp = R_S, which is the
independence hypothesis failing.  From there to C(A) the member's data
stays in integers: the w^2 map is inverted and its determinant taken
on integer columns.

A classical even Clifford construction over a diagonalized symmetric
form serves as the independent oracle, and a matrix-factorization
verifier covers the commutative hypersurface side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd, prod

from .exactlin import (ONE_MINUS_T, LaurentPoly, Matrix, RationalSeries, combine, det,
                       inverse_columns, qq, qq_str, to_column, to_dense)
from .findim import FinDimAlgebra, analyze, commutator_ideal
from .qalg import (GradedTable, QuadraticPresentation, RegularityCertificate,
                   build_table, is_regular_central, multiply, noncentral_generator)


class HypothesisViolation(Exception):
    """An input failed one of the standing structural hypotheses.

    It pickles as its two arguments, so it crosses a process boundary
    with the same hypothesis and text.
    """

    def __init__(self, hypothesis: str, message: str):
        super().__init__("%s hypothesis failed: %s" % (hypothesis, message))
        self.hypothesis, self.message = hypothesis, message

    def __reduce__(self):
        return type(self), (self.hypothesis, self.message)


class HypersurfaceData:
    """Ambient presentation S plus a degree-2 lift cutting out A = S/(z).

    ``dual`` is the quadratic dual of A, whose relation space is R_A^perp
    = R_S^perp meet z^perp.  With r_1..r_m the integer annihilator rows of
    S (QuadraticPresentation.integer_rows) and c_i = <r_i, z>, z lies in
    R_S = (R_S^perp)^perp exactly when every c_i is 0, and that is the
    independence hypothesis failing.  Otherwise, k the first index with
    c_k != 0, the m - 1 rows c_k r_i - c_i r_k (i != k) are orthogonal to
    z and independent (each holds r_i with the nonzero coefficient c_k),
    so they span R_A^perp; they are kept primitive.
    """

    __slots__ = ("S", "dual")

    def __init__(self, S: QuadraticPresentation, z_lift):
        g = S.num_generators
        z_lift = tuple(qq(c) for c in z_lift)
        if len(z_lift) != g * g:
            raise ValueError("lift must live in the degree-2 word space")
        z = to_column(z_lift)[1]
        ann = S.integer_rows()[1]
        c = [sum(r[j] * x for j, x in z.items()) for r in ann]
        k = next((k for k, ck in enumerate(c) if ck), None)
        if k is None:
            raise HypothesisViolation(
                "independence", "the degree-2 element lies in the relation span")
        rk, ck = ann[k], c[k]
        dual = []
        for i, (r, ci) in enumerate(zip(ann, c)):
            if i != k:  # with ci = 0 the row is c_k r_i, and r_i is primitive
                row = tuple(ck * a - ci * b for a, b in zip(r, rk)) if ci else r
                d = gcd(*row)
                dual.append(row if d == 1 else tuple(x // d for x in row))
        self.dual = QuadraticPresentation._of(S.generator_names, tuple(dual))
        self.S = S


def dual_central_element(h: HypersurfaceData, degree: int = 8):
    """The dual-side central element w, the dual table of A, and w's certificate.

    w spans the kernel of the degree-2 comparison map onto the dual of
    S.  That target is dual to the relation space R_S, so the map sends
    the word (i, j) to [r[i*g + j] for r in R_S], read off S's integer
    relation rows: the same null space as in any basis of the dual of
    S, hence the same w at the same scale.  The kernel depends only on
    S and the dual's degree-2 normal words, and S caches it per word set
    (QuadraticPresentation.comparison_kernel).
    w is verified central (degree-3 generator check) and regular through
    the requested degree; the returned RegularityCertificate carries the
    matrices of right multiplication by w that the check built.  Any
    failure raises HypothesisViolation naming the broken property.
    """
    dual_a = build_table(h.dual, degree)
    ker = h.S.comparison_kernel(dual_a.words[2])
    if len(ker) != 1:
        raise HypothesisViolation(
            "kernel-dimension",
            "degree-2 comparison kernel has dimension %d, expected 1" % len(ker))
    w = list(ker[0])
    cert = is_regular_central(dual_a, w, degree)
    if not cert.central:
        raise HypothesisViolation("centrality", "w is not central: " + cert.describe())
    if not cert.regular:
        raise HypothesisViolation("regularity", "w is not regular: " + cert.describe())
    return w, dual_a, cert


def clifford_with_scale(h: HypersurfaceData, degree: int = 8):
    """Clifford-type algebra together with det of the w^2 pullback map.

    The w^2 map is multiplication by w^2 from degree 4 to degree 8 of
    the dual, the one matrix C(A)'s products are pulled back through.
    Its determinant tracks the only non-canonical choice in the
    construction (the scale of w): rescaling w by u multiplies the
    returned determinant by u^16 and the trace-form determinant of the
    algebra by u^-32, so det(gram) * det(w^2 map)^2 is scale-free.
    """
    if degree < 8:
        raise ValueError("construction needs the dual table through degree 8")
    w, dual_a, cert = dual_central_element(h, degree)
    return clifford_from_dual(dual_a, w, cert)


def clifford_from_dual(dual_a: GradedTable, w: list, cert: RegularityCertificate):
    """Assemble the invariant algebra from a dual table, its w and w's certificate.

    The w^2 map from degree 4 to degree 8 is the product of the
    certificate's multiplications by w out of degrees 4 and 6, which a
    check through degree 8 has proved injective, so it is invertible.
    Basis element i times (-) is w2^-1 times the chain of left maps
    along i's word; words sharing a prefix share its product, grouped
    left to right.  The unit is w^2, the certificate's multiplication by
    w out of degree 2 applied to w.  Returns the algebra and det(w2).
    """
    dims = dual_a.dims
    if not (dims[4] == dims[6] == dims[8] == 8):
        raise HypothesisViolation(
            "stabilization",
            "dual dimensions at degrees (4, 6, 8) are %r, expected (8, 8, 8)"
            % ((dims[4], dims[6], dims[8]),))
    z_maps = cert.z_maps
    w2 = [combine(z_maps[6], c) for c in z_maps[4]]
    left = dual_a.left_cols
    words = dual_a.words[4]
    chains = {(): inverse_columns(w2, 8)}
    for word in words:
        for k, u in enumerate(word):
            if word[:k + 1] not in chains:
                chains[word[:k + 1]] = [combine(chains[word[:k]], c) for c in left[7 - k][u]]
    names = dual_a.presentation.generator_names
    labels = [".".join(names[i] for i in word) for word in words]
    # det of the integer columns, read as rows (det M = det M^T), over their denominators
    det_w2 = det(Matrix.of_integers([[nums.get(i, 0) for i in range(8)] for _, nums in w2], 8))
    return FinDimAlgebra(labels, [chains[word] for word in words],
                         combine(z_maps[2], to_column(w))), det_w2 / prod(d for d, _ in w2)


def clifford_algebra(h: HypersurfaceData, degree: int = 8) -> FinDimAlgebra:
    """The 8-dimensional invariant algebra of the quadric Proj S/(z)."""
    return clifford_with_scale(h, degree)[0]


# -- classical even Clifford oracle --

def congruent_diagonal(q) -> list:
    """Diagonal of a rational congruence-diagonalization of symmetric q."""
    n = len(q)
    m = [[qq(q[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("form matrix is not symmetric")
    for k in range(n):
        if not m[k][k]:
            j = next((j for j in range(k + 1, n) if m[j][j]), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j]), None)
                if j is None:
                    continue
                for t in range(n):
                    m[k][t] += m[j][t]
                for t in range(n):
                    m[t][k] += m[t][j]
        piv = m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / piv
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
    return [m[k][k] for k in range(n)]


_EVEN_SUBSETS = ((), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2, 3))


def _clifford_word_product(left, right, diag):
    """Multiply two increasing generator words under e_i e_j = -e_j e_i, e_i^2 = q_i."""
    word = list(left)
    sign = 1
    coef = qq(1)
    for gen in right:
        pos = len(word)
        while pos > 0 and word[pos - 1] > gen:
            pos -= 1
            sign = -sign
        if pos > 0 and word[pos - 1] == gen:
            coef *= diag[gen]
            del word[pos - 1]
        else:
            word.insert(pos, gen)
    return sign, coef, tuple(word)


def even_clifford_oracle(q) -> FinDimAlgebra:
    """Even Clifford algebra of a 4x4 symmetric rational form.

    The form is congruence-diagonalized first; degenerate forms are
    allowed and produce nilpotents.  Basis: 1, the six products
    e_i e_j (i < j), and e_1 e_2 e_3 e_4.
    """
    if len(q) != 4 or any(len(row) != 4 for row in q):
        raise ValueError("expected a 4x4 symmetric matrix")
    diag = congruent_diagonal(q)
    index = {s: k for k, s in enumerate(_EVEN_SUBSETS)}
    labels = ["1"] + ["e%d%d" % (i + 1, j + 1) for (i, j) in _EVEN_SUBSETS[1:7]] + ["e1234"]

    def column(s, t):
        # the product is sign * coef times one basis element: a monomial column
        sign, coef, word = _clifford_word_product(s, t, diag)
        return coef.denominator, {index[word]: sign * coef.numerator} if coef else {}

    columns = [[column(s, t) for t in _EVEN_SUBSETS] for s in _EVEN_SUBSETS]
    return FinDimAlgebra(labels, columns, (1, {0: 1}))


@dataclass
class InvariantComparison:
    """Invariant tuples of two algebras, with an equality verdict."""

    left: tuple
    right: tuple
    equal: bool

    FIELDS = ("dim", "radical_dim", "center_dim", "ss_center_dim", "commutator_codim")

    def to_dict(self) -> dict:
        return {
            "left": dict(zip(self.FIELDS, self.left)),
            "right": dict(zip(self.FIELDS, self.right)),
            "equal": self.equal,
        }


def invariant_tuple(alg: FinDimAlgebra) -> tuple:
    """(dim, radical dim, center dim, ss-center dim, commutator-ideal codim)."""
    return (*analyze(alg).invariants(), alg.dim - commutator_ideal(alg).rank)


def compare_invariants(c1: FinDimAlgebra, c2: FinDimAlgebra) -> InvariantComparison:
    """Isomorphism-invariant comparison used in place of isomorphism search."""
    t1, t2 = invariant_tuple(c1), invariant_tuple(c2)
    return InvariantComparison(t1, t2, t1 == t2)


# -- matrix factorization verifier --

@dataclass
class MFWitness:
    product: str
    row: int
    col: int
    got: list
    expected: list

    def describe(self) -> str:
        return "%s entry (%d, %d) is %r, expected %r" % (
            self.product, self.row, self.col,
            [qq_str(x) for x in self.got], [qq_str(x) for x in self.expected])


@dataclass
class MFVerdict:
    ok: bool
    size: int
    series: RationalSeries | None
    witness: MFWitness | None

    def to_dict(self) -> dict:
        out = {"ok": self.ok, "size": self.size}
        if self.series is not None:
            out["cokernel_series"] = {
                "numerator": {str(e): c for e, c in self.series.numerator.coeffs.items()},
                "denominator": {str(e): c for e, c in self.series.denominator.coeffs.items()},
            }
        if (w := self.witness) is not None:
            out["witness"] = dict(asdict(w), got=[qq_str(x) for x in w.got],
                                  expected=[qq_str(x) for x in w.expected])
        return out


def _is_factor(mat) -> bool:
    """True for a list of rows whose entries are lists (of coefficients, which qq checks)."""
    return isinstance(mat, list) and all(
        isinstance(row, list) and all(isinstance(entry, list) for entry in row)
        for row in mat)


def verify_matrix_factorization(S: QuadraticPresentation, phi, psi, z_lift,
                                table: GradedTable | None = None) -> MFVerdict:
    """Check phi psi = psi phi = z * identity over the degree-2 component.

    phi and psi are s x s matrices whose entries are degree-1 elements
    (coefficient vectors over the generators).  On success the verdict
    carries the 2-periodic cokernel Hilbert series s * (1 - t)^(-3),
    whose rational-function identity with s * H_A(t)/(1 + t) encodes the
    period-two syzygy behaviour of the cokernel.  ValueError is raised
    when table is a table of another algebra: one whose relations span
    another subspace.
    """
    if not (_is_factor(phi) and _is_factor(psi)):
        raise ValueError("factors must be lists of lists of coefficient lists")
    g = S.num_generators
    if table is None:
        table = build_table(S, 2)
    elif table.presentation is not S and not table.presentation.relation_span_equals(S):
        raise ValueError("the table is not a table of this presentation")
    s = len(phi)
    if s == 0 or len(psi) != s or any(len(r) != s for r in phi) or any(len(r) != s for r in psi):
        raise ValueError("factors must be square matrices of equal size")
    phi, psi = ([[[qq(c) for c in entry] for entry in row] for row in mat] for mat in (phi, psi))
    if any(len(entry) != g for mat in (phi, psi) for row in mat for entry in row):
        raise ValueError("entries must be degree-1 coefficient vectors")
    z = word_vector_class(table, z_lift)
    zero = [qq(0)] * table.dims[2]
    for name, left_m, right_m in (("phi.psi", phi, psi), ("psi.phi", psi, phi)):
        for i in range(s):
            for j in range(s):
                acc = [sum(xs) for xs in zip(*(multiply(table, left_m[i][k], 1, right_m[k][j], 1)
                                               for k in range(s)))]
                expected = z if i == j else zero
                if acc != expected:
                    witness = MFWitness(name, i, j, acc, expected)
                    return MFVerdict(False, s, None, witness)
    series = RationalSeries(LaurentPoly.const(s), ONE_MINUS_T * ONE_MINUS_T * ONE_MINUS_T)
    return MFVerdict(True, s, series, None)


def word_vector_class(table: GradedTable, vec) -> list:
    """Image in A_2 of a vector in the degree-2 word space."""
    g = table.presentation.num_generators
    vec = [qq(c) for c in vec]
    if len(vec) != g * g:
        raise ValueError("expected a degree-2 word vector")
    left = table.left_cols
    words = [combine(left[1][i], left[0][j][0]) for i in range(g) for j in range(g)]
    return to_dense(combine(words, to_column(vec)), table.dims[2])


def require_central(table: GradedTable, lift, name: str):
    """The class of the degree-2 word vector lift, which must be central.

    The check is on the generators (noncentral_generator); the
    HypothesisViolation raised otherwise names the first generator the
    class of lift does not commute with.
    """
    cls = word_vector_class(table, lift)
    i = noncentral_generator(table, cls)
    if i is not None:
        raise HypothesisViolation(
            "centrality", "%s does not commute with generator %s"
            % (name, table.presentation.generator_names[i]))
    return cls
