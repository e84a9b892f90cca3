"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; all arithmetic is exact, so every
comparison is strict equality with zero tolerance.
"""

import json
import random
import time
from itertools import product
from math import comb, factorial, gcd

from diagtorus import (
    DiagSubgroup,
    IntMatrix,
    IsoType,
    classify_case,
    codim1_canonical,
    conjugate_in_crn,
    crn_conjugator,
    determinant,
    equal,
    group_dim,
    hermite_normal_form,
    invariant_factors,
    is_orbit_closed,
    is_stable,
    iso_type,
    lattice_of,
    limit_pattern,
    monomial_normalizer,
    normalizer_report,
    orbit_report,
    origin_in_closure,
    pluecker_coordinates,
    pluecker_equal,
    rank,
    smith_normal_form,
    stabilizer,
    transform,
)
from diagtorus.oracle import closedness_search, perm_sign_exhaust, torsion_count
from diagtorus.roots import (
    apply_derivation,
    enumerate_root_vectors,
    root_of,
    root_vector_count,
)


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def random_unimodular(n, rng, steps=8):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m, n)


def test_acceptance_1_snf_soundness():
    rng = random.Random(2024)
    matrices = []
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        matrices.append(IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n))
    start = time.perf_counter()
    for a in matrices:
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == dec.S
        assert abs(determinant(dec.U)) == 1
        assert abs(determinant(dec.V)) == 1
        f = dec.factors
        assert all(x > 0 for x in f)
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"soundness loop took {elapsed:.1f}s"
    for a in matrices:
        base = invariant_factors(a)
        for _ in range(100):
            p = random_unimodular(a.rows, rng)
            q = random_unimodular(a.cols, rng)
            assert invariant_factors(p @ a @ q) == base
    report(1, True, f"1000 SNF decompositions sound in {elapsed:.1f}s; "
                    "invariant factors unchanged by 100k unimodular twists")


def _signature(a):
    p = pluecker_coordinates(a)
    items = sorted(p.items())
    first = next((v for _, v in items if v), 0)
    if first < 0:
        items = [(k, -v) for k, v in items]
    return tuple(items)


def test_acceptance_2_equality_criteria_agree():
    shapes = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
    total_pairs = 0
    for m, n in shapes:
        mats = []
        for flat in product(range(-2, 3), repeat=m * n):
            rows = [flat[i * n:(i + 1) * n] for i in range(m)]
            a = IntMatrix.from_rows([list(r) for r in rows], n)
            if rank(a) == m:
                mats.append(a)
        by_sig = {}
        hermite = {}
        sig_of_hermite = {}
        for a in mats:
            h = hermite_normal_form(a).entries
            s = _signature(a)
            hermite[a.entries] = h
            by_sig.setdefault(s, []).append(a)
            # matrices with equal row lattices must share a signature, which
            # makes the cross-signature pairs trivially correct: both criteria
            # report inequality
            if h in sig_of_hermite:
                assert sig_of_hermite[h] == s
            else:
                sig_of_hermite[h] = s
        for group in by_sig.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    same = hermite[a.entries] == hermite[b.entries]
                    assert pluecker_equal(a, b) == same
                    total_pairs += 1
        # spot-check a sample of cross-signature pairs end to end
        rng = random.Random(99)
        sigs = list(by_sig)
        if len(sigs) > 1:
            for _ in range(400):
                s1, s2 = rng.sample(sigs, 2)
                a = rng.choice(by_sig[s1])
                b = rng.choice(by_sig[s2])
                assert not pluecker_equal(a, b)
                assert hermite[a.entries] != hermite[b.entries]
                total_pairs += 1
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 2)
        n = rng.randint(m, 3)
        while True:
            a = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], n)
            if rank(a) == m:
                break
        b = random_unimodular(m, rng) @ a
        assert pluecker_equal(a, b)
        assert equal(lattice_of(a), lattice_of(b))
    report(2, True, f"Pluecker and Hermite equality agree on {total_pairs} "
                    "enumerated pairs and 500 constructed equal-lattice pairs")


def test_acceptance_3_torsion_and_birational_conjugacy():
    for n in (1, 2, 3):
        for l in product(range(-3, 4), repeat=n):
            g = DiagSubgroup.from_weights(l)
            gl = 0
            for x in l:
                gl = gcd(gl, x)
            for m in range(1, 7):
                expected = m ** (n - 1) * gcd(m, gl)
                assert torsion_count(g, m) == expected, (l, m)
    rng = random.Random(31)
    validated = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        def mk():
            r = rng.randint(0, n)
            return DiagSubgroup.from_matrix(IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)], n))
        g1, g2 = mk(), mk()
        same = conjugate_in_crn(g1, g2)
        assert same == (iso_type(g1) == iso_type(g2))
        w = crn_conjugator(g1, g2)
        assert (w is None) == (not same)
        if w is not None:
            assert equal(transform(g1.lattice, w), g2.lattice)
            validated += 1
    report(3, True, "torsion counts match m^(n-1)*gcd(m, gcd(l)) exhaustively; "
                    f"{validated} conjugator witnesses validated")


def all_nonzero_vectors(max_n, bound):
    for n in range(1, max_n + 1):
        for l in product(range(-bound, bound + 1), repeat=n):
            if any(l):
                yield l


def orbit_of(l):
    from itertools import permutations

    n = len(l)
    out = set()
    for sigma in permutations(range(n)):
        for eps in (1, -1):
            out.add(tuple(eps * l[sigma[j]] for j in range(n)))
    return out


def test_acceptance_4_codim1_canonical_uniqueness():
    start = time.perf_counter()
    by_canonical = {}
    count = 0
    for l in all_nonzero_vectors(4, 2):
        count += 1
        c = codim1_canonical(l)
        for image in orbit_of(l):
            assert codim1_canonical(image) == c, (l, image)
        by_canonical.setdefault(c, []).append(l)
    # two vectors share a canonical form exactly when they are related by a
    # permutation and a global sign: each canonical class is a single orbit
    for c, members in by_canonical.items():
        assert set(members) == orbit_of(members[0])
    rng = random.Random(41)
    vectors = [l for l in all_nonzero_vectors(4, 2)]
    for _ in range(500):
        a = rng.choice(vectors)
        b = rng.choice([v for v in vectors if len(v) == len(a)])
        related = perm_sign_exhaust(a, b) is not None
        assert related == (codim1_canonical(a) == codim1_canonical(b))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"canonical-form sweep took {elapsed:.1f}s"
    report(4, True, f"canonical forms separate all {count} nonzero weight "
                    f"vectors into exact symmetry classes in {elapsed:.1f}s")


def all_patterns(n):
    for bits in product((0, 1), repeat=n):
        yield frozenset(i + 1 for i, b in enumerate(bits) if b)


def test_acceptance_5_orbit_suite():
    cases = 0
    for n in (1, 2, 3, 4):
        for l in product(range(-3, 4), repeat=n):
            for s in all_patterns(n):
                closed = is_orbit_closed(l, s)
                witness = closedness_search(l, s, 9)
                assert closed == (witness is None), (l, s, witness)
                rep = orbit_report(l, s)
                assert rep.orbit_dim + rep.stabilizer_dim == group_dim(l)
                cases += 1

    # free points have trivial stabilizers; with l = 0 the complement of the
    # axes is a single open orbit while axis points have positive-dimensional
    # stabilizers
    for l in [(0, 0, 0), (1, 2, 0), (2, -3)]:
        s = stabilizer(l, frozenset())
        assert s.torus_rank == 0 and s.factors == ()
    rep = orbit_report((0, 0, 0), frozenset())
    assert rep.orbit_dim == 3 and not rep.closed
    assert stabilizer((0, 0, 0), frozenset({1})).torus_rank > 0
    for l in [(1, 2, 0), (1, -1, 3)]:
        assert orbit_report(l, frozenset()).orbit_dim == len(l) - 1

    # each coordinate hyperplane minus the others is one orbit of dimension
    # n - 1 whenever its weight is nonzero
    for l, i in [((1, 2, 0), 1), ((1, 2, 0), 2), ((2, -3, 5), 3)]:
        rep = orbit_report(l, frozenset({i}))
        assert rep.orbit_dim == len(l) - 1

    # stability is equivalent to closedness of the generic orbit and to the
    # weights being nonzero of one sign
    for n in (1, 2, 3):
        for l in product(range(-3, 4), repeat=n):
            same_sign = all(x > 0 for x in l) or all(x < 0 for x in l)
            assert is_stable(l) == same_sign
            assert is_stable(l) == is_orbit_closed(l, frozenset())

    # with no unit weights, a nontrivial stabilizer appears exactly on the axes
    for l in [(2, 3), (2, -2, 4), (3, 3, 3)]:
        n = len(l)
        for s in all_patterns(n):
            nontrivial = stabilizer(l, s) != IsoType(0, ())
            assert nontrivial == bool(s)

    # mixed signs force the origin into every orbit closure
    for l in [(1, -1), (2, -3, 5), (1, 1, -1, 0)]:
        for s in all_patterns(len(l)):
            assert origin_in_closure(l, s)

    # weights (1, ..., 2, ..., 0): the limit along the last coordinates is
    # closed of dimension q - 1, and stabilizers on the axes are trivial,
    # finite, or positive-dimensional according to the axis weight
    l = (1, 2, 0)
    assert limit_pattern(l, frozenset(), (0, 0, 1)) == frozenset({3})
    rep = orbit_report(l, frozenset({3}))
    assert rep.closed and rep.orbit_dim == 1
    assert stabilizer(l, frozenset({1})) == IsoType(0, ())
    assert stabilizer(l, frozenset({2})) == IsoType(0, (2,))
    assert stabilizer(l, frozenset({3})).torus_rank > 0

    # a single unit weight: nontrivial stabilizers sit exactly on the other
    # axes, and the level sets of that coordinate carry (n-1)-dimensional orbits
    l = (1, 0, 0)
    for s in all_patterns(3):
        nontrivial = stabilizer(l, s) != IsoType(0, ())
        assert nontrivial == bool(s - {1})
    assert orbit_report(l, frozenset()).orbit_dim == 2
    assert orbit_report(l, frozenset({1})).orbit_dim == 2

    report(5, True, f"closedness rule matches exhaustive witness search on "
                    f"{cases} (weights, pattern) cases; labeled orbit facts hold")


def test_acceptance_6_normalizer_cases():
    tags = set()
    for n in (1, 2, 3, 4):
        for l in product(range(-3, 4), repeat=n):
            case = classify_case(l)
            assert case.tag in {
                "full_torus", "axis", "same_sign_all_nonzero",
                "no_unit_weights", "zero_and_unit_same_sign", "mixed_signs",
            }
            tags.add(case.tag)
    assert len(tags) == 6
    for n in (1, 2, 3, 4):
        elems = monomial_normalizer((1,) * n)
        assert len(elems) == factorial(n)
        assert all(eps == 1 for _, eps in elems)
    rep = normalizer_report((0, 1, 0))
    assert rep.case.tag == "axis" and rep.case.axis == 2
    assert not rep.contained_in_monomial
    assert rep.explicit_structure == "N_{GL_{n-1}}(D_{n-1}) x Aff_1"
    assert rep.note is not None
    report(6, True, "case classification is total and exclusive; the all-ones "
                    "normalizer is the symmetric group; axis report is explicit")


def test_acceptance_7_roots():
    for n in range(1, 5):
        for d in range(0, 6):
            got = enumerate_root_vectors(n, d)
            assert len(got) == n * comb(d + n - 1, n - 1)
            assert len(set(got)) == len(got)
            assert root_vector_count(n, d) == len(got)
    checked = 0
    for n in (1, 2, 3):
        for rv in enumerate_root_vectors(n, 3):
            expected = root_of(rv).exponents
            for m in product(range(4), repeat=n):
                out = apply_derivation(rv, m)
                if out is None:
                    assert m[rv.i - 1] == 0
                    continue
                coeff, exps = out
                assert coeff == m[rv.i - 1]
                assert tuple(a - b for a, b in zip(exps, m)) == expected
                checked += 1
    report(7, True, f"enumeration counts match the closed form; weight "
                    f"identity verified on {checked} derivation applications")


def test_acceptance_8_cli(capsys):
    from diagtorus.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    goldens = [
        (("hnf", "--matrix", "1 2; 3 4"),
         {"schema_version": 1, "ok": True,
          "result": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]}}),
        (("canonical", "--context", "autn-codim1", "--weights", "1 0"),
         {"schema_version": 1, "ok": True, "result": [-1, 0]}),
        (("isotype", "--weights", "2 4"),
         {"schema_version": 1, "ok": True,
          "result": {"torus_rank": 1, "factors": [2], "dimension": 1,
                     "order": None}}),
        (("conjugate", "--group", "crn", "--a", "2 0", "--b", "0 2"),
         {"schema_version": 1, "ok": True, "result": True,
          "witness": {"unimodular_matrix": {"rows": 2, "cols": 2,
                                            "entries": [[0, 1], [1, 0]]}}}),
        (("oracle-perm-sign", "--a", "1 2", "--b", "-2 -1"),
         {"schema_version": 1, "ok": True, "result": True,
          "witness": {"permutation": [2, 1], "sign": -1}}),
    ]
    for argv, expected in goldens:
        code, out = run(*argv)
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True,
                                 separators=(",", ":")) + "\n"
    # determinism: identical argv, identical bytes
    reruns = [
        ("snf", "--matrix", "2 4; 6 8"),
        ("normalizer", "--weights", "1 -1 0"),
        ("orbit", "--weights", "1 2 0", "--zeros", "2"),
        ("roots", "--dim", "3", "--degree", "2"),
        ("action-report", "--weights", "1 -1"),
        ("lattice-equal", "--a", "1 2; 3 4", "--b", "1 0; 0 2"),
        ("oracle-torsion-count", "--weights", "2 2", "--modulus", "2"),
        ("oracle-lattice-equal", "--a", "2 0", "--b", "0 2"),
        ("oracle-closedness", "--weights", "1 1", "--zeros", "1"),
        ("canonical", "--context", "crn", "--matrix", "2 4; 6 8"),
    ]
    for argv in reruns:
        c1, first = run(*argv)
        c2, second = run(*argv)
        assert c1 == c2 == 0
        assert first == second
    # exit-code contract
    for argv in [("hnf", "--matrix", "1 2; 3"), ("orbit", "--weights", "x"),
                 ("nope",)]:
        code, out = run(*argv)
        assert code == 1 and json.loads(out)["ok"] is False
    for argv in [("canonical", "--context", "aut3-torus", "--weights", "2 4 6"),
                 ("canonical", "--context", "autn-codim1", "--weights", "0 0")]:
        code, out = run(*argv)
        assert code == 2 and json.loads(out)["ok"] is False
    report(8, True, "golden outputs, byte-identical reruns, and the 0/1/2 "
                    "exit-code contract all verified")
