"""Stock quadratic presentations and degree-2 element helpers.

The four-generator families used throughout: the commutative polynomial
algebra, free algebras, and the elliptic four-generator family with
parameters (alpha, beta, gamma) subject to

    alpha + beta + gamma + alpha*beta*gamma = 0.

Parameter-family relation coefficients are input data, not trusted
truth: consumers validate them through the Hilbert dimensions
[1, 4, 10, 20, 35, 56] and the two-dimensional central quadratic space
before using them for anything else.
"""

from __future__ import annotations

from .exactlin import qq
from .qalg import QuadraticPresentation

DEFAULT_NAMES = ("x0", "x1", "x2", "x3")


def word_vector(g: int, terms: dict) -> list:
    """Vector in the degree-2 word space from {(i, j): coefficient}."""
    vec = [qq(0)] * (g * g)
    for (i, j), c in terms.items():
        vec[i * g + j] += qq(c)
    return vec


def commutative_presentation(g: int = 4, names=None) -> QuadraticPresentation:
    """Polynomial algebra on g generators: commutator relations."""
    names = names or ["x%d" % i for i in range(g)]
    rels = [word_vector(g, {(i, j): 1, (j, i): -1})
            for i in range(g) for j in range(i + 1, g)]
    return QuadraticPresentation(names, rels)


def free_presentation(g: int, names=None) -> QuadraticPresentation:
    """Free algebra on g generators: no relations."""
    names = names or ["x%d" % i for i in range(g)]
    return QuadraticPresentation(names, [])


def sklyanin_gamma(alpha, beta):
    """The third parameter forced by alpha + beta + gamma + alpha*beta*gamma = 0."""
    alpha, beta = qq(alpha), qq(beta)
    denom = 1 + alpha * beta
    if not denom:
        raise ValueError("alpha*beta = -1 leaves gamma undetermined")
    return -(alpha + beta) / denom

def sklyanin_presentation(alpha, beta, gamma, names=DEFAULT_NAMES) -> QuadraticPresentation:
    """Four-generator elliptic family with six quadratic relations.

    Transcribed relation scheme, one plus/minus pair per cyclic triple:

        x0*x1 - x1*x0 = alpha*(x2*x3 + x3*x2)
        x0*x1 + x1*x0 =        x2*x3 - x3*x2
        x0*x2 - x2*x0 = beta *(x3*x1 + x1*x3)
        x0*x2 + x2*x0 =        x3*x1 - x1*x3
        x0*x3 - x3*x0 = gamma*(x1*x2 + x2*x1)
        x0*x3 + x3*x0 =        x1*x2 - x2*x1
    """
    alpha, beta, gamma = qq(alpha), qq(beta), qq(gamma)
    if alpha + beta + gamma + alpha * beta * gamma != 0:
        raise ValueError("parameters must satisfy alpha + beta + gamma + alpha*beta*gamma = 0")
    g = 4
    rels = []
    for (a, b, c, d, coef) in ((0, 1, 2, 3, alpha),
                               (0, 2, 3, 1, beta),
                               (0, 3, 1, 2, gamma)):
        rels.append(word_vector(g, {(a, b): 1, (b, a): -1,
                                    (c, d): -coef, (d, c): -coef}))
        rels.append(word_vector(g, {(a, b): 1, (b, a): 1,
                                    (c, d): -1, (d, c): 1}))
    return QuadraticPresentation(names, rels)


def symmetric_form_to_element(q) -> list:
    """Degree-2 word vector of the quadratic form x^T q x, q symmetric 4x4.

    Off-diagonal contributions land on the word (i, j) with i < j, so the
    vector is a specific lift of the form to the word space.
    """
    n = len(q)
    terms = {}
    for i in range(n):
        for j in range(n):
            if qq(q[i][j]) != qq(q[j][i]):
                raise ValueError("form matrix is not symmetric")
    for i in range(n):
        c = qq(q[i][i])
        if c:
            terms[(i, i)] = c
        for j in range(i + 1, n):
            c = 2 * qq(q[i][j])
            if c:
                terms[(i, j)] = c
    return word_vector(n, terms)


HYPERBOLIC_FORM = ((0, 0, 0, qq(1, 2)),
                   (0, 0, qq(-1, 2), 0),
                   (0, qq(-1, 2), 0, 0),
                   (qq(1, 2), 0, 0, 0))
