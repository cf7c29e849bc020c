import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from ncquad.cliff import require_central
from ncquad.exactlin import Matrix, qq, qq_str, rank, rref
from ncquad.families import (commutative_presentation, free_presentation,
                             sklyanin_gamma, sklyanin_presentation,
                             symmetric_form_to_element, word_vector)
from ncquad.qalg import (DegreeOverflowError, QuadraticPresentation, build_table,
                         central_quadratic_space, element_word_lift,
                         evaluate_word, hilbert, is_regular_central,
                         koszul_dual, koszul_identity_check, multiply,
                         noncentral_generator)

ROOT = Path(__file__).resolve().parents[1]
COMM = commutative_presentation()
SKLY = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))


def unit(n, i):
    return [qq(1) if k == i else qq(0) for k in range(n)]


def test_commutative_dims():
    assert hilbert(build_table(COMM, 4)) == [1, 4, 10, 20, 35]


def test_exterior_dual_dims():
    dual = koszul_dual(COMM)
    assert len(dual.relations) == 10
    assert hilbert(build_table(dual, 5)) == [1, 4, 6, 4, 1, 0]


def test_dual_dimension_count():
    for p in (COMM, SKLY, free_presentation(3)):
        g = p.num_generators
        assert len(koszul_dual(p).relations) == g * g - len(p.relations)


def test_double_dual_is_original():
    for p in (COMM, SKLY,
              QuadraticPresentation(["x0", "x1"], [word_vector(2, {(0, 1): 1})])):
        dd = koszul_dual(koszul_dual(p))
        assert dd.relation_span_equals(p)


def test_sklyanin_dims_and_center():
    table = build_table(SKLY, 5)
    assert hilbert(table) == [1, 4, 10, 20, 35, 56]
    assert central_quadratic_space(table).cols == 2


def test_quadric_quotient_dual_dims():
    z = word_vector(4, {(0, 3): 1, (1, 2): -1})
    a = QuadraticPresentation(COMM.generator_names, list(COMM.relations) + [z])
    assert hilbert(build_table(a, 6)) == [1, 4, 9, 16, 25, 36, 49]
    assert hilbert(build_table(koszul_dual(a), 7)) == [1, 4, 7, 8, 8, 8, 8, 8]


def test_multiply_unit_and_commutativity():
    t = build_table(COMM, 4)
    beta = [qq(k + 1) for k in range(10)]
    assert multiply(t, unit(1, 0), 0, beta, 2) == beta
    assert multiply(t, beta, 2, unit(1, 0), 0) == beta
    for i in range(4):
        for j in range(4):
            ij = multiply(t, unit(4, i), 1, unit(4, j), 1)
            ji = multiply(t, unit(4, j), 1, unit(4, i), 1)
            assert ij == ji


def test_multiply_degree_overflow():
    t = build_table(COMM, 2)
    with pytest.raises(DegreeOverflowError):
        multiply(t, unit(4, 0), 1, unit(10, 0), 2)


@pytest.mark.parametrize("pres", [COMM, SKLY])
def test_generator_triple_associativity(pres):
    t = build_table(pres, 3)
    for i, j, k in itertools.product(range(4), repeat=3):
        ij_k = multiply(t, multiply(t, unit(4, i), 1, unit(4, j), 1), 2, unit(4, k), 1)
        i_jk = multiply(t, unit(4, i), 1, multiply(t, unit(4, j), 1, unit(4, k), 1), 2)
        assert ij_k == i_jk


def test_representative_words_evaluate_to_basis():
    for pres, bound in ((COMM, 4), (SKLY, 4), (free_presentation(2), 3)):
        t = build_table(pres, bound)
        for n in range(bound + 1):
            for b, word in enumerate(t.words[n]):
                assert evaluate_word(t, word) == unit(t.dims[n], b)


def test_free_algebra():
    t = build_table(free_presentation(2), 3)
    assert hilbert(t) == [1, 2, 4, 8]
    # solved by hand: z x0 = x0 z and z x1 = x1 z force all four
    # coefficients of z to vanish in the free algebra
    assert central_quadratic_space(t).cols == 0


def test_commutative_center_is_everything():
    assert central_quadratic_space(build_table(COMM, 3)).cols == 10


def test_regularity_of_square():
    t = build_table(COMM, 4)
    z = evaluate_word(t, (0, 0))
    cert = is_regular_central(t, z, 4)
    assert cert.ok


def test_regularity_of_hyperbolic():
    t = build_table(COMM, 5)
    z2 = [qq(0)] * t.dims[2]
    for (i, j), c in (((0, 3), 1), ((1, 2), -1)):
        for k, v in enumerate(evaluate_word(t, (i, j))):
            z2[k] += c * v
    cert = is_regular_central(t, z2, 5)
    assert cert.ok


def test_zero_is_not_regular():
    t = build_table(COMM, 4)
    cert = is_regular_central(t, [qq(0)] * t.dims[2], 4)
    assert cert.central and not cert.regular
    assert cert.failure_degree == 0


def test_non_regular_certificate():
    # x0^2 is central in comm4 / (x0 x1), and x0^2 x1 = 0 in degree 3
    p = QuadraticPresentation(COMM.generator_names,
                              list(COMM.relations) + [word_vector(4, {(0, 1): 1})])
    t = build_table(p, 4)
    cert = is_regular_central(t, evaluate_word(t, (0, 0)), 4)
    assert cert.central and not cert.regular
    assert (cert.failure_degree, cert.side, cert.witness) == (1, "left", unit(4, 1))


def test_sklyanin_central_element_regular():
    table = build_table(SKLY, 6)
    omega = central_quadratic_space(table).column(0)
    cert = is_regular_central(table, omega, 6)
    assert cert.ok


def test_noncentral_detected():
    table = build_table(SKLY, 3)
    z = evaluate_word(table, (0, 0))
    cert = is_regular_central(table, z, 3)
    assert not cert.central


def test_centrality_checks_need_a_table_through_degree_3():
    # z x_i lies in degree 3: a table that stops at degree 2 is refused up
    # front by each check, with the same message, not with an IndexError
    table = build_table(SKLY, 2)
    z = evaluate_word(table, (0, 0))
    checks = [lambda: central_quadratic_space(table), lambda: noncentral_generator(table, z),
              lambda: is_regular_central(table, z, 2),
              lambda: require_central(table, word_vector(4, {(0, 0): 1}), "z")]
    for check in checks:
        with pytest.raises(ValueError, match="^need a table through degree 3$"):
            check()


def test_koszul_identity_commutative():
    assert koszul_identity_check(COMM, 8) == [0] * 9


def test_koszul_identity_quadric_quotient():
    z = word_vector(4, {(0, 3): 1, (1, 2): -1})
    a = QuadraticPresentation(COMM.generator_names, list(COMM.relations) + [z])
    residual = koszul_identity_check(a, 8)
    assert residual == [0] * 9
    # independent convolution oracle on the two known series
    dims = hilbert(build_table(a, 8))
    duals = hilbert(build_table(koszul_dual(a), 8))
    for n in range(9):
        s = sum(duals[k] * (-1) ** (n - k) * dims[n - k] for k in range(n + 1))
        assert s == (1 if n == 0 else 0)


def test_koszul_identity_monomial():
    mono = QuadraticPresentation(["x0", "x1"], [word_vector(2, {(0, 1): 1})])
    assert koszul_identity_check(mono, 4) == [0] * 5


def test_presentation_json_roundtrip():
    for p in (COMM, SKLY):
        text = p.dump()
        again = QuadraticPresentation.load(text)
        assert again == p
        assert json.loads(text)["generators"] == list(p.generator_names)


def test_presentation_validation():
    with pytest.raises(ValueError):
        QuadraticPresentation([], [])
    with pytest.raises(ValueError):
        QuadraticPresentation(["x", "x"], [])
    dep = word_vector(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        QuadraticPresentation(["a", "b"], [dep, [2 * c for c in dep]])


def test_element_word_lift_projects_back():
    t = build_table(SKLY, 3)
    vec = [qq(k - 3) for k in range(t.dims[2])]
    lift = element_word_lift(t, vec, 2)
    back = [qq(0)] * t.dims[2]
    for k, c in enumerate(lift):
        if c:
            i, j = divmod(k, 4)
            for idx, v in enumerate(evaluate_word(t, (i, j))):
                back[idx] += c * v
    assert back == vec


def test_build_table_rejects_low_degree():
    with pytest.raises(ValueError):
        build_table(COMM, 1)


# sha256 prefixes of the words, left maps and right maps through degree 6,
# recorded from the dense elimination the sparse one replaced
TABLE_DIGESTS = {
    "comm4": "b46a7d2e3810878a",
    "comm4_dual": "529ec3cd8e8b4637",
    "sklyanin_a": "fcea5e7e3c21255b",
    "sklyanin_a_dual": "4a5ceef7841654b5",
    "sklyanin_b": "2d2b8c3a8a83ce29",
    "sklyanin_b_dual": "f6b4e6710ea93a76",
}


def table_digest(table):
    h = hashlib.sha256()
    h.update(repr(table.words).encode())
    for maps in (table.left, table.right):
        for by_gen in maps:
            for m in by_gen:
                h.update(repr((m.rows, m.cols,
                               [(i, j, qq_str(x)) for i, row in enumerate(m.entries)
                                for j, x in enumerate(row) if x])).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_identity_through_degree_6(name):
    base = name.removesuffix("_dual")
    root = Path(__file__).resolve().parents[1]
    p = QuadraticPresentation.load((root / "presentations" / (base + ".json")).read_text())
    if name.endswith("_dual"):
        p = koszul_dual(p)
    assert table_digest(build_table(p, 6)) == TABLE_DIGESTS[name]


def test_sklyanin_degree_7_table_identity():
    # the 336x336 elimination of degree 7, digest recorded from the
    # Fraction-row elimination that the integer-row one replaced
    root = Path(__file__).resolve().parents[1]
    p = QuadraticPresentation.load((root / "presentations" / "sklyanin_a.json").read_text())
    table = build_table(p, 7)
    assert table.dims == [1, 4, 10, 20, 35, 56, 84, 120]
    assert table_digest(table) == "9c00a9ba211db9c7"


def _quadric_member(name):
    """(S, lift of z) for the named member of a quadric pencil or form."""
    root = Path(__file__).resolve().parents[1]
    if name.startswith("sklyanin_a"):
        S = QuadraticPresentation.load((root / "presentations" / "sklyanin_a.json").read_text())
        t = build_table(S, 3)
        centre = central_quadratic_space(t)
        w1, w2 = (element_word_lift(t, centre.column(k), 2) for k in (0, 1))
        lam = qq(name.split("=")[1])
        return S, [a + lam * b for a, b in zip(w1, w2)]
    S = QuadraticPresentation.load((root / "presentations" / "comm4.json").read_text())
    if name == "comm4-hyperbolic":
        return S, word_vector(4, {(0, 3): 1, (1, 2): -1})
    return S, symmetric_form_to_element(
        [[0, 12, -48, 28], [12, 21, -3, 6], [-48, -3, -12, 5], [28, 6, 5, -1]])


def _dual_of_quotient(name):
    S, lift = _quadric_member(name)
    return koszul_dual(QuadraticPresentation(S.generator_names, list(S.relations) + [lift]))


# Degree-8 tables of A^! for quadrics A = S/(z): digest recorded from the
# full elimination of every degree, and the degree from which the maps
# repeat with period 2.  The form's maps repeat only from its last step;
# at lambda = 5/9, where the normal-word pattern changes, never.
DUAL8 = {
    "sklyanin_a:lambda=1": ("8ff69d01f575dc20", 6),
    "sklyanin_a:lambda=3": ("69b11a6be4ee4197", 6),
    "sklyanin_a:lambda=5/9": ("0c0c6eeffde04d27", None),
    "comm4-hyperbolic": ("036a15d6aa4e0a01", 6),
    "comm4-form": ("7d4ec207cf7d55f9", 7),
}


@pytest.mark.parametrize("name", sorted(DUAL8))
def test_quadric_dual_table_identity_through_degree_8(name):
    digest, period_start = DUAL8[name]
    table = build_table(_dual_of_quotient(name), 8)
    assert table.dims == [1, 4, 7, 8, 8, 8, 8, 8, 8]
    assert table_digest(table) == digest
    assert table.period_start == period_start
    for n in range(period_start or 8, 8):
        assert table.left[n] is table.left[n - 2]
        assert table.right[n] is table.right[n - 2]


def assert_dual_matches_stacked(S, lift):
    """HypersurfaceData's dual against the Koszul dual of S's relations stacked with z.

    The stacked construction is the oracle: the relations must span the
    same space and the degree-8 tables must agree in every field that
    build_table computes.
    """
    from ncquad.cliff import HypersurfaceData
    dual = HypersurfaceData(S, lift).dual
    stacked = koszul_dual(QuadraticPresentation(S.generator_names, list(S.relations) + [lift]))
    assert dual.relation_span_equals(stacked)
    a, b = build_table(dual, 8), build_table(stacked, 8)
    assert (a.dims, a.words, a.left_cols, a.period_start) == \
        (b.dims, b.words, b.left_cols, b.period_start)


@pytest.mark.parametrize("name", sorted(DUAL8))
def test_member_dual_matches_the_stacked_koszul_dual(name):
    assert_dual_matches_stacked(*_quadric_member(name))


def _quadric_round_inputs(seed, rnd):
    """(S, lift) of every request of a perfbench quadric round, built as its worker does."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    sk, cm = (QuadraticPresentation.load((ROOT / "presentations" / name).read_text())
              for name in ("sklyanin_a.json", "comm4.json"))
    table = build_table(sk, 3)
    centre = central_quadratic_space(table)
    w1, w2 = (element_word_lift(table, centre.column(k), 2) for k in (0, 1))
    out = []
    for req in wl.quadric_round(seed, rnd):
        if req["kind"] == "member":
            lam = qq(req["lam"])
            out.append((sk, [a + lam * b for a, b in zip(w1, w2)]))
        else:
            out.append((cm, symmetric_form_to_element(req["q"])))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_member_dual_matches_the_stacked_koszul_dual_on_quadric_rounds(seed):
    for rnd in (0, 1):
        for S, lift in _quadric_round_inputs(seed, rnd):
            assert_dual_matches_stacked(S, lift)


def column_matrix(cols, rows):
    """Matrix of integer columns (den, {row: num}), built entry by entry."""
    return Matrix(rows, len(cols), [[qq(nums.get(r, 0), den) for den, nums in cols]
                                    for r in range(rows)])


def _z_matrix(table, z, n, side):
    """Multiplication by z from degree n to n + 2 through the generator maps.

    z x_i x_j b is left_i(left_j(b)) and b x_i x_j is right_j(right_i(b)),
    independently of multiply's word-by-word evaluation.
    """
    rows, cols = table.dims[n + 2], table.dims[n]
    acc = [[qq(0)] * cols for _ in range(rows)]
    for c, (i, j) in zip(z, table.words[2]):
        if not c:
            continue
        if side == "left":
            outer, inner = table.left[n + 1][i], table.left[n][j]
        else:
            outer, inner = table.right[n + 1][j], table.right[n][i]
        for r in range(rows):
            for k in range(cols):
                acc[r][k] += c * sum(outer.entries[r][s] * inner.entries[s][k]
                                     for s in range(inner.rows))
    return Matrix(rows, cols, acc)


# degrees whose regularity check the certificate skips as repeats
REPEATED = {
    "sklyanin_a:lambda=1": [5, 6],
    "sklyanin_a:lambda=3": [5, 6],
    "sklyanin_a:lambda=5/9": [],
    "comm4-hyperbolic": [5, 6],
    "comm4-form": [6],
}


@pytest.mark.parametrize("name", sorted(DUAL8))
def test_regularity_certificate_against_direct_z_maps(name):
    from ncquad.cliff import HypersurfaceData, dual_central_element
    w, table, cert = dual_central_element(HypersurfaceData(*_quadric_member(name)))
    assert cert.ok and cert.checked_degree == 8
    assert cert.repeated == REPEATED[name]
    maps = {(n, side): _z_matrix(table, w, n, side)
            for n in range(7) for side in ("left", "right")}
    for n in range(7):
        # z is central, so the one z-map the check builds serves both sides
        got = column_matrix(cert.z_maps[n], table.dims[n + 2])
        assert got == maps[n, "right"] == maps[n, "left"]
        for side in ("left", "right"):
            assert rank(maps[n, side]) == table.dims[n]
    for n in cert.repeated:
        assert maps[n, "left"] == maps[n - 2, "left"]
        assert maps[n, "right"] == maps[n - 2, "right"]
        assert cert.z_maps[n] is cert.z_maps[n - 2]
    assert (cert.z_maps[6] is cert.z_maps[4]) == (6 in cert.repeated)


@pytest.mark.parametrize("name", sorted(DUAL8))
def test_clifford_unit_is_w_squared(name):
    # the unit comes from the certificate's map out of degree 2; multiply,
    # which walks w's words through the right maps, is the oracle
    from ncquad.cliff import HypersurfaceData, clifford_from_dual, dual_central_element
    w, table, cert = dual_central_element(HypersurfaceData(*_quadric_member(name)))
    alg, _ = clifford_from_dual(table, w, cert)
    assert alg.unit == multiply(table, w, 2, w, 2)
