"""Seeded operation lists for the four workloads.

Each workload is a fixed list of operations built from ``random.Random``
seeded with the workload name and the seed, so the same seed gives the same
list.  An operation calls the library only through module attributes that
are looked up at call time, so the traced run sees every call.  Its check
uses only ``ref`` helpers or answers known from how the inputs were built.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import factorial, gcd
from typing import Any, Callable

import ref

WORKLOADS = ("small-queries", "smith-witness", "symmetry-search", "cli-mix")


@dataclass
class Op:
    kind: str
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any], str | None]  # None when the output is right
    size: str
    bits: int = 0
    pair: bool | None = None  # built equal / matching, for paired inputs
    # Name of a documented defect this operation exposes.  It still counts as
    # failed; only an undocumented failure makes the run incorrect.
    known_defect: str | None = None

    def __call__(self):
        return self.fn(*self.args)


class Lib:
    """Handles on the diagtorus modules, bound once the package is imported."""

    def __init__(self):
        from diagtorus import action, cli, diag, intmat, lattice, normalizer, oracle, roots
        self.intmat, self.lattice, self.diag = intmat, lattice, diag
        self.action, self.normalizer, self.roots = action, normalizer, roots
        self.oracle, self.cli = oracle, cli

    def mat(self, rows):
        return self.intmat.IntMatrix.from_rows(rows, len(rows[0]))


# ---------------------------------------------------------------- helpers

def _rand_matrix(rng, m, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _full_rank(rng, m, n, bound):
    while True:
        a = _rand_matrix(rng, m, n, bound)
        k = min(m, n)
        sub = [row[:k] for row in a[:k]]
        if ref.det(sub):
            return a


def _expect(value):
    def check(out):
        return None if out == value else f"expected {value!r}, got {out!r}"
    return check


def _perm_of_rank(n, r):
    """The permutation of range(n) with lexicographic rank r."""
    items = list(range(n))
    out = []
    for k in range(n, 0, -1):
        f = factorial(k - 1)
        i, r = divmod(r, f)
        out.append(items.pop(i))
    return tuple(out)


def _inverse_perm(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _is_perm(p, n):
    return isinstance(p, tuple) and sorted(p) == list(range(n))


def _ladder_rank(n, rung, rungs):
    """The lexicographic rank at the middle of the rung-th of `rungs` equal
    parts of n!.  Search depth is a workload parameter, like size: every seed
    gets the same depths and varies only the values searched."""
    return factorial(n) * (2 * rung + 1) // (2 * rungs)


def _weights(rng, n, bound, zero_share=0.2):
    while True:
        w = [0 if rng.random() < zero_share else rng.randint(-bound, bound)
             for _ in range(n)]
        if any(w):
            return w


def _fmt_matrix(a):
    return "; ".join(" ".join(str(x) for x in row) for row in a)


def _fmt_vec(v):
    return " ".join(str(x) for x in v)


def _matrix_json(a):
    return json.dumps({"rows": len(a), "cols": len(a[0]),
                       "entries": [list(r) for r in a]},
                      sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------- small-queries

def _hermite_equal(lib, a, b):
    lat = lib.lattice
    return lat.equal(lat.lattice_of(a), lat.lattice_of(b))


def _iso_type_of(lib, a):
    return lib.diag.iso_type(lib.diag.DiagSubgroup.from_matrix(a))


def _lib_call(module_name, func):
    def call(lib, *args):
        return getattr(getattr(lib, module_name), func)(*args)
    call.__name__ = f"{module_name}.{func}"
    return call


def _equal_pair(rng, m, n, equal):
    a = _full_rank(rng, m, n, 9)
    u, _ = ref.random_unimodular(rng, m, 2 * m, 1) if m > 1 else ([[-1]], None)
    b = ref.matmul(u, a)
    if not equal:
        k = rng.choice((2, 3))
        b = ref.matmul(u, [[k * x for x in a[0]]] + a[1:])
    return a, b


def _check_iso(torus_rank, factors):
    def check(out):
        got = (out.torus_rank, tuple(out.factors))
        want = (torus_rank, tuple(factors))
        return None if got == want else f"iso type {got} != {want}"
    return check


def _expected_orbit(w, zeros):
    rank, factors = ref.stabilizer(w, zeros)
    order = None
    if rank == 0:
        order = 1
        for f in factors:
            order *= f
    group_dim = len(w) - (1 if any(w) else 0)
    return (rank, factors, rank, order, group_dim - rank,
            ref.orbit_closed(w, zeros), ref.origin_in_closure(w, zeros))


def _check_orbit(w, zeros):
    want = _expected_orbit(w, zeros)

    def check(out):
        got = (out.stabilizer.torus_rank, tuple(out.stabilizer.factors),
               out.stabilizer_dim, out.stabilizer_order, out.orbit_dim,
               out.closed, out.origin_in_closure)
        return None if got == want else f"orbit {got} != {want}"
    return check


def _expected_action(w):
    w = tuple(w)
    mono = None
    if any(w) and all(x >= 0 for x in w):
        mono = w
    elif any(w) and all(x <= 0 for x in w):
        mono = tuple(-x for x in w)
    axes = tuple(i for i, x in enumerate(w, start=1) if x)
    return (len(w) - (1 if any(w) else 0), ref.same_sign_nonzero(w),
            mono is not None, mono, axes)


def _check_action(w):
    want = _expected_action(w)

    def check(out):
        got = (out.group_dim, out.stable, out.has_nonconstant_invariants,
               out.invariant_monomial, tuple(out.nonclosed_codim1_orbit_axes))
        return None if got == want else f"action {got} != {want}"
    return check


def small_queries(lib, rng, per_kind=300):
    ops = []
    shapes = [(m, n) for m in range(1, 5) for n in range(max(m, 2), 8)]
    for i in range(per_kind):
        m, n = shapes[i % len(shapes)]
        size = f"{m}x{n}"
        eq = i % 2 == 0
        a, b = _equal_pair(rng, m, n, eq)
        ops.append(Op("pluecker_equal", _lib_call("lattice", "pluecker_equal"),
                      (lib, lib.mat(a), lib.mat(b)), _expect(eq), size,
                      ref.bits(a + b), pair=eq))
        a, b = _equal_pair(rng, m, n, not eq)
        ops.append(Op("hermite_equal", _hermite_equal, (lib, lib.mat(a), lib.mat(b)),
                      _expect(not eq), size, ref.bits(a + b), pair=not eq))

        a = _full_rank(rng, m, n, 9)
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        v = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
        if i % 2:
            v[rng.randrange(n)] += rng.choice((-1, 1))
        inside = ref.contains(a, v)
        ops.append(Op("contains", _lib_call("lattice", "contains"),
                      (lib, lib.lattice.lattice_of(lib.mat(a)), tuple(v)),
                      _expect(inside), size, ref.bits(a + [v]), pair=inside))

        scale = [rng.choice((1, 1, 2, 3)) for _ in range(m)]
        a = [[s * x for x in row] for s, row in zip(scale, _rand_matrix(rng, m, n, 4))]
        factors = ref.invariant_factors(a)
        ops.append(Op("iso_type", _iso_type_of, (lib, lib.mat(a)),
                      _check_iso(n - len(factors), [f for f in factors if f > 1]),
                      size, ref.bits(a)))

        a = _rand_matrix(rng, m, n, 9)
        h = ref.hnf(a)
        want = (len(h), n, h)
        ops.append(Op("hermite_normal_form", _lib_call("intmat", "hermite_normal_form"),
                      (lib, lib.mat(a)),
                      lambda out, want=want: None if (out.rows, out.cols, out.entries) == want
                      else "HNF differs from the reference",
                      size, ref.bits(a)))

        w = _weights(rng, n, 9)
        zeros = frozenset(j for j in range(1, n + 1) if rng.random() < 0.4)
        ops.append(Op("orbit_report", _lib_call("action", "orbit_report"),
                      (lib, tuple(w), zeros), _check_orbit(w, zeros), f"n{n}",
                      ref.bits([w])))
        w = _weights(rng, n, 9)
        if i % 3 == 0:
            w = [abs(x) for x in w]
        ops.append(Op("action_report", _lib_call("action", "action_report"),
                      (lib, tuple(w)), _check_action(w), f"n{n}", ref.bits([w])))
        w = _weights(rng, n, 9)
        ops.append(Op("codim1_canonical", _lib_call("diag", "codim1_canonical"),
                      (lib, tuple(w)), _expect(ref.codim1_canonical(w)), f"n{n}",
                      ref.bits([w])))
    return ops


# ---------------------------------------------------------- smith-witness

def _check_snf(a):
    def check(out):
        return ref.smith_problem(a, out.U.entries, out.S.entries,
                                 out.V.entries, tuple(out.factors))
    return check


def _constructed(rng, m, n, factors, bound=100):
    """L D R with known diagonal D and random unimodular L, R, grown until
    the entries reach about `bound`."""
    d = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)]
         for i in range(m)]
    left, _ = ref.random_unimodular(rng, m, m, 1) if m > 1 else ([[1]], None)
    a = ref.matmul(left, d)
    while max(abs(x) for row in a for x in row) < bound:
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        for row in a:
            row[i] += q * row[j]
    return a


def _crn_conjugator(lib, g1, g2):
    return lib.diag.crn_conjugator(g1, g2)


def _check_crn(basis1, basis2, n):
    def check(out):
        if out is None or (out.rows, out.cols) != (n, n):
            return "no n x n witness"
        if abs(ref.det(out.entries)) != 1:
            return "witness not unimodular"
        if ref.hnf(ref.matmul(basis1, out.entries)) != basis2:
            return "witness does not carry the lattice"
        return None
    return check


def smith_witness(lib, rng):
    """Size ladders rather than a few sizes with copies: neighbouring rungs
    cost about the same, so the latency percentiles barely depend on the
    seed."""
    ops = []

    def snf(m, n):
        a = _full_rank(rng, m, n, 100)
        ops.append(Op("smith_normal_form", _lib_call("intmat", "smith_normal_form"),
                      (lib, lib.mat(a)), _check_snf(a), f"{m}x{n}", ref.bits(a)))

    for n in range(10, 41, 2):
        snf(n, n)
    for n in (*range(16, 25), 29, 31, 33):  # rungs where p50 and p90 fall
        snf(n, n)
    for n in range(12, 31, 3):
        snf(n - 2, n)
        snf(n + 2, n)
    for n in range(10, 41, 3):
        m = n - n // 5
        chain = [1] * (m - 4) + sorted(rng.choice(((2, 2, 6, 12), (1, 3, 3, 9),
                                                   (2, 4, 4, 8), (1, 1, 5, 10))))
        a = _constructed(rng, m, n, chain)
        ops.append(Op("iso_type", _iso_type_of, (lib, lib.mat(a)),
                      _check_iso(n - m, [f for f in chain if f > 1]),
                      f"{m}x{n}", ref.bits(a)))
    for m, n in ((10, 10), (15, 15), (20, 20), (25, 25), (30, 30), (35, 35), (40, 40),
                 (12, 18), (16, 24), (20, 28), (24, 32)):
        a = _full_rank(rng, m, n, 100)
        mat, _ = ref.random_unimodular(rng, n, 2 * n, 1)
        b = ref.matmul(a, mat)
        g1 = lib.diag.DiagSubgroup.from_matrix(lib.mat(a))
        g2 = lib.diag.DiagSubgroup.from_matrix(lib.mat(b))
        ops.append(Op("crn_conjugator", _crn_conjugator, (lib, g1, g2),
                      _check_crn(g1.lattice.basis.entries, g2.lattice.basis.entries, n),
                      f"{m}x{n}", ref.bits(a + b), pair=True))
    return ops


# -------------------------------------------------------- symmetry-search

def _conjugate_in_gl(lib, g1, g2):
    return lib.diag.conjugate_in_gl(g1, g2)


def _check_gl(a, b, matching, n):
    def check(out):
        if not matching:
            return None if out is None else f"expected no match, got {out!r}"
        if not _is_perm(out, n):
            return f"expected a permutation, got {out!r}"
        if not ref.same_lattice(ref.permute_columns(b, out), a):
            return "permutation does not match the lattices"
        return None
    return check


def _roots_with_tags(lib, n, degree):
    r = lib.roots
    return [(rv, r.root_of(rv, r.DN), r.root_of(rv, r.DN_STAR))
            for rv in r.enumerate_root_vectors(n, degree)]


def _roots_problem(n, degree, rows):
    """Check root-vector rows (i, l, root, root mod the diagonal) against
    the closed-form count, (i, l) order and the root formulas."""
    rows = [(i, tuple(l), tuple(r), tuple(rs)) for i, l, r, rs in rows]
    if len(rows) != ref.root_count(n, degree):
        return "root count differs from n * C(d + n - 1, n - 1)"
    keys = [row[:2] for row in rows]
    if keys != sorted(set(keys)):
        return "root vectors not distinct or not in (i, l) order"
    for i, l, root, root_star in rows:
        if not (1 <= i <= n and len(l) == n and min(l) >= 0 and l[i - 1] == 0
                and sum(l) <= degree):
            return f"bad root vector {(i, l)}"
        exps = list(l)
        exps[i - 1] -= 1
        low = min(exps)
        if root != tuple(exps) or root_star != tuple(x - low for x in exps):
            return f"bad root for {(i, l)}"
    return None


def _check_roots(n, degree):
    def check(out):
        if any((r.relative_to, rs.relative_to) != ("Dn", "Dn_star") for _, r, rs in out):
            return "wrong group tag on a root"
        return _roots_problem(n, degree, [(rv.i, rv.l, r.exponents, rs.exponents)
                                          for rv, r, rs in out])
    return check


def _case(w):
    """(tag, axis) by the normalizer case rules, first match wins."""
    nonzero = [(i, x) for i, x in enumerate(w, start=1) if x]
    if not nonzero:
        return "full_torus", None
    if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
        return "axis", nonzero[0][0]
    if len(nonzero) == len(w) and ref.same_sign_nonzero(w):
        return "same_sign_all_nonzero", None
    if all(abs(x) != 1 for x in w):
        return "no_unit_weights", None
    if 0 in w and len(nonzero) >= 2 and ref.same_sign_nonzero([x for _, x in nonzero]):
        return "zero_and_unit_same_sign", None
    return "mixed_signs", None


def _normalizer_problem(w, case, contained, explained, order, perm_part, centralizer):
    """Check a normalizer report, given as plain values, against the case
    rules, the closed-form order and the closed-form centralizer.
    `explained` is (explicit_structure is not None, note is not None)."""
    w = tuple(w)
    n = len(w)
    want_case = _case(w)
    if case != want_case:
        return f"case {case} != {want_case}"
    partial = want_case[0] in ("axis", "mixed_signs")
    if contained is partial or explained != (want_case[0] == "axis", partial):
        return "containment or explanation does not fit the case"
    want = ref.perm_order(list(w))
    if order != want or len(perm_part) != want or len(set(perm_part)) != want:
        return f"perm_order {order} != closed form {want}"
    for sigma, eps in perm_part:
        if not _is_perm(sigma, n) or eps not in (1, -1) or \
                tuple(w[sigma[j]] for j in range(n)) != tuple(eps * x for x in w):
            return f"({sigma}, {eps}) does not normalize"
    if set(centralizer) != ref.centralizer(list(w)):
        return "centralizer differs from the closed form"
    return None


def _check_normalizer(w):
    def check(out):
        return _normalizer_problem(
            w, (out.case.tag, out.case.axis), out.contained_in_monomial,
            (out.explicit_structure is not None, out.note is not None),
            out.perm_order, out.perm_part, out.centralizer_perm_part)
    return check


def _check_perm_sign(w, other, matching):
    n = len(w)

    def check(out):
        if not matching:
            return None if out is None else f"expected no witness, got {out!r}"
        if not isinstance(out, tuple) or len(out) != 2:
            return f"expected (sigma, eps), got {out!r}"
        sigma, eps = out
        if not _is_perm(sigma, n) or eps not in (1, -1) or \
                any(w[j] != eps * other[sigma[j]] for j in range(n)):
            return "witness does not relate the vectors"
        return None
    return check


def _gl_op(lib, a, b, matching):
    sub = lib.diag.DiagSubgroup.from_matrix
    n = len(a[0])
    return Op("conjugate_in_gl", _conjugate_in_gl, (lib, sub(lib.mat(a)), sub(lib.mat(b))),
              _check_gl(a, b, matching, n), f"n{n}", ref.bits(a + b), pair=matching)


def _normalizer_weights(rng, n, symmetric):
    """Weights with a fixed multiplicity pattern, so perm_order and the
    memory the report takes do not depend on the seed."""
    v1, v2, v3 = (rng.choice((1, -1)) * v for v in rng.sample((1, 2, 3), 3))
    if symmetric:
        half = [v1] * (n // 2 - 1) + [v2]
        w = half + [-x for x in half] + [0] * (n % 2)
    else:
        w = [v1] * (n - 3) + [v2] * 2 + [v3]
    rng.shuffle(w)
    return w


def symmetry_search(lib, rng):
    """Searches whose cost depends on where the answer sits in lexicographic
    order get their targets from a ladder of ranks spread evenly over n!."""
    ops = []
    for n, rungs in ((6, 24), (7, 6)):
        for slot in range(rungs):
            # matching pairs; the row of ones makes every column gcd 1, and
            # the values {0..n-2, n} have no reflection symmetry, so the
            # target is the only matching permutation
            a = [[1] * n, rng.sample(list(range(n - 1)) + [n], n)]
            p = _perm_of_rank(n, _ladder_rank(n, slot, rungs))
            u, _ = ref.random_unimodular(rng, 2, 3, 1)
            ops.append(_gl_op(lib, a, ref.matmul(u, ref.permute_columns(a, _inverse_perm(p))),
                              True))
    for n in (5, 6, 7, 8):
        # ROADMAP's family: every column gcd is 1 and nothing matches, so the
        # search visits all n! leaves; row and column shuffles vary the input
        a = [[1] * n, list(range(n))]
        b = [[1] * n, list(range(n - 1)) + [n]]
        for side in (a, b):
            u, _ = ref.random_unimodular(rng, 2, 3, 1)
            side[:] = ref.permute_columns(ref.matmul(u, side), rng.sample(range(n), n))
        ops.append(_gl_op(lib, a, b, False))
        # pruned early: an index-2 sublattice has other invariant factors
        a = _full_rank(rng, 2, n, 9)
        ops.append(_gl_op(lib, a, [[2 * x for x in a[0]], a[1]], False))
        for symmetric in (True, False):
            w = _normalizer_weights(rng, n, symmetric)
            ops.append(Op("normalizer_report", _lib_call("normalizer", "normalizer_report"),
                          (lib, tuple(w)), _check_normalizer(w), f"n{n}", ref.bits([w])))
    # exhaustive perm/sign searches that find nothing cost the same for
    # every seed; there are enough of them at n = 7 and 8 that the median
    # and the 90th percentile fall among them
    for n, rungs, misses in ((7, 4, 24), (8, 6, 8)):
        for slot in range(rungs):
            w = rng.sample(range(-9, 10), n)
            sigma = _perm_of_rank(n, _ladder_rank(n, slot, rungs))
            eps = rng.choice((1, -1))
            other = [0] * n
            for j in range(n):
                other[sigma[j]] = eps * w[j]
            ops.append(Op("perm_sign_exhaust", _lib_call("oracle", "perm_sign_exhaust"),
                          (lib, tuple(w), tuple(other)), _check_perm_sign(w, other, True),
                          f"n{n}", ref.bits([w]), pair=True))
        for _ in range(misses):
            w = rng.sample(range(-9, 10), n)
            other = rng.sample(w, n)
            other[rng.randrange(n)] += 20
            ops.append(Op("perm_sign_exhaust", _lib_call("oracle", "perm_sign_exhaust"),
                          (lib, tuple(w), tuple(other)), _check_perm_sign(w, other, False),
                          f"n{n}", ref.bits([other]), pair=False))
    for n, degree in ((6, 2), (8, 2), (9, 2), (10, 1), (10, 2), (12, 1)):
        ops.append(Op("enumerate_root_vectors", _roots_with_tags, (lib, n, degree),
                      _check_roots(n, degree), f"n{n}d{degree}"))
    return ops


# ---------------------------------------------------------------- cli-mix

def run_cli(lib, argv):
    """cli.main(argv) in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


def _payload(out):
    code, text = out
    lines = text.splitlines()
    if len(lines) != 1:
        return code, None
    try:
        return code, json.loads(lines[0])
    except ValueError:
        return code, None


def _check_cli(verify):
    """Exit 0 with ok=true, schema 1, and verify(result, witness) is None."""
    def check(out):
        code, obj = _payload(out)
        if code != 0:
            return f"exit code {code}, expected 0"
        if not isinstance(obj, dict) or obj.get("ok") is not True \
                or obj.get("schema_version") != 1:
            return "not an ok payload"
        if set(obj) - {"ok", "schema_version", "result", "witness"}:
            return "unexpected payload keys"
        return verify(obj.get("result"), obj.get("witness"))
    return check


def _check_cli_error(code_want, kinds):
    def check(out):
        code, obj = _payload(out)
        if code != code_want:
            return f"exit code {code}, expected {code_want}"
        if not isinstance(obj, dict) or obj.get("ok") is not False \
                or obj.get("error") not in kinds or obj.get("schema_version") != 1:
            return f"error payload {obj!r}"
        return None
    return check


def _same(value):
    def verify(result, witness):
        if result != value or witness is not None:
            return f"result {result!r} != {value!r}"
        return None
    return verify


def _verify_snf(a):
    def verify(result, witness):
        if witness is not None or not isinstance(result, dict):
            return "bad snf payload"
        mats = [result.get(k) for k in ("U", "S", "V")]
        if any(not isinstance(mt, dict) for mt in mats):
            return "missing matrices"
        return ref.smith_problem(a, *(mt["entries"] for mt in mats),
                                 tuple(result.get("factors", ())))
    return verify


def _verify_gl(a, b, matching, n):
    def verify(result, witness):
        if result is not matching:
            return f"result {result!r}, expected {matching!r}"
        if not matching:
            return None if witness is None else "witness on a non-match"
        p = tuple(x - 1 for x in witness.get("permutation", ()))
        if set(witness) != {"permutation"} or not _is_perm(p, n) or \
                not ref.same_lattice(ref.permute_columns(b, p), a):
            return "permutation witness does not match"
        return None
    return verify


def _verify_crn(a, b, conjugate, n):
    def verify(result, witness):
        if result is not conjugate:
            return f"result {result!r}, expected {conjugate!r}"
        if not conjugate:
            return None if witness is None else "witness on a non-conjugate pair"
        w = witness.get("unimodular_matrix", {}).get("entries")
        if not w or len(w) != n or abs(ref.det(w)) != 1 or \
                not ref.same_lattice(ref.matmul(a, w), b):
            return "unimodular witness does not carry the lattice"
        return None
    return verify


def _verify_perm_sign(w, other, matching):
    def verify(result, witness):
        if result is not matching:
            return f"result {result!r}, expected {matching!r}"
        if not matching:
            return None if witness is None else "witness on a non-match"
        sigma = tuple(x - 1 for x in witness.get("permutation", ()))
        eps = witness.get("sign")
        n = len(w)
        if not _is_perm(sigma, n) or eps not in (1, -1) or \
                any(w[j] != eps * other[sigma[j]] for j in range(n)):
            return "perm/sign witness does not relate the vectors"
        return None
    return verify


def _verify_orbit(w, zeros):
    rank, factors, dim, order, orbit_dim, closed, origin = _expected_orbit(w, zeros)
    want = {"stabilizer": {"torus_rank": rank, "factors": list(factors)},
            "stabilizer_dim": dim, "stabilizer_order": order, "orbit_dim": orbit_dim,
            "closed": closed, "origin_in_closure": origin}
    return _same(want)


def _verify_action(w):
    group_dim, stable, has_inv, mono, axes = _expected_action(w)
    return _same({"group_dim": group_dim, "stable": stable,
                  "has_nonconstant_invariants": has_inv,
                  "invariant_monomial": list(mono) if mono is not None else None,
                  "nonclosed_codim1_orbit_axes": list(axes)})


def _verify_normalizer(w):
    def verify(result, witness):
        if witness is not None or not isinstance(result, dict):
            return "bad normalizer payload"
        return _normalizer_problem(
            w, (result["case"]["tag"], result["case"]["axis"]), result["contained_in_monomial"],
            (result["explicit_structure"] is not None, result["note"] is not None),
            result["perm_order"],
            [(tuple(x - 1 for x in e["permutation"]), e["sign"]) for e in result["perm_part"]],
            [tuple(x - 1 for x in p) for p in result["centralizer_perm_part"]])
    return verify


def _verify_roots(n, degree):
    def verify(result, witness):
        if witness is not None or not isinstance(result, list):
            return "bad roots payload"
        return _roots_problem(n, degree, [(r["i"], r["l"], r["root"], r["root_mod_diagonal"])
                                          for r in result])
    return verify


def _verify_closedness(w, zeros):
    closed = ref.orbit_closed(w, zeros)

    def verify(result, witness):
        if result is not closed:
            return f"closed {result!r}, expected {closed!r}"
        if closed:
            return None if witness is None else "witness on a closed orbit"
        d = witness.get("d", [])
        n = len(w)
        outside = [j for j in range(n) if j + 1 not in zeros]
        if len(d) != n or sum(x * y for x, y in zip(d, w)) or \
                any(d[j] < 0 for j in outside) or not any(d[j] for j in outside):
            return "closedness witness is not a destabilising subgroup"
        return None
    return verify


def _iso_payload(factors, n):
    rank = n - len(factors)
    nontrivial = [f for f in factors if f > 1]
    order = None
    if rank == 0:
        order = 1
        for f in nontrivial:
            order *= f
    return {"torus_rank": rank, "factors": nontrivial, "dimension": rank, "order": order}


def _canonical_crn_payload(factors, n):
    rank = n - len(factors)
    nontrivial = [f for f in factors if f > 1]
    rows = [[d if j == rank + i else 0 for j in range(n)] for i, d in enumerate(nontrivial)]
    rows += [[int(k == j) for k in range(n)] for j in range(rank + len(nontrivial), n)]
    return {"r": rank, "factors": nontrivial,
            "matrix": {"rows": len(rows), "cols": n, "entries": rows}}


def cli_mix(lib, rng, rounds=12):
    ops = []

    def add(kind, argv, check, size, bits=0, pair=None, known=None):
        ops.append(Op(kind, run_cli, (lib, tuple(argv)), check, size, bits, pair, known))

    for i in range(rounds):
        # sizes cycle with the round; only the values are random
        m, n = ((1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (2, 6))[i % 6]
        a = _full_rank(rng, m, n, 9)
        add("snf", ["snf", "--matrix", _fmt_matrix(a)], _check_cli(_verify_snf(a)),
            f"{m}x{n}", ref.bits(a))
        a = _rand_matrix(rng, m, n, 9)
        h = [list(r) for r in ref.hnf(a)]
        hp = {"rows": len(h), "cols": n, "entries": h}
        add("hnf", ["hnf", "--matrix", _fmt_matrix(a)], _check_cli(_same(hp)),
            f"{m}x{n}", ref.bits(a))
        if h:
            # round trip: an emitted HNF payload read back is its own HNF
            add("hnf-json", ["hnf", "--matrix-json", _matrix_json(h)],
                _check_cli(_same(hp)), f"{len(h)}x{n}", ref.bits(h))
        for method in ("hermite", "pluecker"):
            eq = rng.random() < 0.5
            a, b = _equal_pair(rng, m, n, eq)
            add("lattice-equal", ["lattice-equal", "--a", _fmt_matrix(a), "--b",
                                  _fmt_matrix(b), "--method", method],
                _check_cli(_same(eq)), f"{m}x{n}", ref.bits(a + b), eq)
        eq = rng.random() < 0.5
        a, b = _equal_pair(rng, m, n, eq)
        add("lattice-equal-json", ["lattice-equal", "--a-json", _matrix_json(a),
                                   "--b-json", _matrix_json(b)],
            _check_cli(_same(eq)), f"{m}x{n}", ref.bits(a + b), eq)

        w = _weights(rng, n, 9, 0.0)
        add("isotype", ["isotype", "--weights", _fmt_vec(w)],
            _check_cli(_same(_iso_payload(ref.invariant_factors([w]), n))),
            f"n{n}", ref.bits([w]))
        a = [[rng.choice((1, 2, 3)) * x for x in row] for row in _rand_matrix(rng, m, n, 5)]
        factors = ref.invariant_factors(a)
        add("isotype", ["isotype", "--matrix-json", _matrix_json(a)],
            _check_cli(_same(_iso_payload(factors, n))), f"{m}x{n}", ref.bits(a))
        add("canonical-crn", ["canonical", "--context", "crn", "--matrix", _fmt_matrix(a)],
            _check_cli(_same(_canonical_crn_payload(factors, n))), f"{m}x{n}", ref.bits(a))

        gn = (3, 4, 5)[i % 3]
        a = [[1] * gn, rng.sample(range(-6, 7), gn)]
        matching = i % 2 == 0
        if matching:
            p = tuple(rng.sample(range(gn), gn))
            u, _ = ref.random_unimodular(rng, 2, 2, 1)
            b = ref.matmul(u, ref.permute_columns(a, p))
        else:
            b = [[2 * x for x in a[0]], a[1]]
        group = rng.choice(("gln", "monomial"))
        add("conjugate-gl", ["conjugate", "--group", group, "--a", _fmt_matrix(a),
                             "--b", _fmt_matrix(b)],
            _check_cli(_verify_gl(a, b, matching, gn)), f"2x{gn}", ref.bits(a + b), matching)

        a = _full_rank(rng, m, n, 9)
        conj = i % 2 == 0
        if conj:
            mat, _ = ref.random_unimodular(rng, n, n, 1)
            b = ref.matmul(a, mat)
        else:
            b = [[2 * x for x in a[0]]] + a[1:]
        flags = (["--a", _fmt_matrix(a), "--b", _fmt_matrix(b)] if i % 3 else
                 ["--a-json", _matrix_json(a), "--b-json", _matrix_json(b)])
        add("conjugate-crn", ["conjugate", "--group", "crn", *flags],
            _check_cli(_verify_crn(a, b, conj, n)), f"{m}x{n}", ref.bits(a + b), conj)

        w = _weights(rng, n, 9, 0.2)
        sigma = tuple(rng.sample(range(n), n))
        eps = rng.choice((1, -1))
        other = [0] * n
        for j in range(n):
            other[sigma[j]] = eps * w[j]
        matching = i % 2 == 0
        if not matching:
            other[0] += 10
        same = ref.codim1_canonical(w) == ref.codim1_canonical(other)

        def verify_codim1(result, witness, w=w, other=other, same=same):
            if result is not same:
                return f"result {result!r}, expected {same!r}"
            return _verify_perm_sign(w, other, same)(True, witness) if same else \
                (None if witness is None else "witness on a non-match")
        add("conjugate-codim1", ["conjugate", "--group", "autn-codim1", "--a", _fmt_vec(w),
                                 "--b", _fmt_vec(other)],
            _check_cli(verify_codim1), f"n{n}", ref.bits([w, other]), same)
        add("oracle-perm-sign", ["oracle-perm-sign", "--a", _fmt_vec(w), "--b", _fmt_vec(other)],
            _check_cli(_verify_perm_sign(w, other, same)), f"n{n}", ref.bits([w, other]), same)

        w = _weights(rng, n, 9, 0.0)
        add("canonical-codim1", ["canonical", "--context", "autn-codim1", "--weights", _fmt_vec(w)],
            _check_cli(_same(list(ref.codim1_canonical(w)))), f"n{n}", ref.bits([w]))
        add("canonical-crn-codim1", ["canonical", "--context", "crn-codim1", "--weights",
                                     _fmt_vec(w)],
            _check_cli(_same([0] * (n - 1) + [_gcd_all(w)])), f"n{n}", ref.bits([w]))
        while True:
            w3 = [rng.randint(-9, 9) for _ in range(3)]
            if _gcd_all(w3) == 1:
                break
        add("canonical-aut3", ["canonical", "--context", "aut3-torus", "--weights", _fmt_vec(w3)],
            _check_cli(_same(list(ref.codim1_canonical(w3)))), "n3", ref.bits([w3]))

        w = _weights(rng, n, 9)
        zeros = sorted(j for j in range(1, n + 1) if rng.random() < 0.4)
        add("orbit", ["orbit", "--weights", _fmt_vec(w), "--zeros", _fmt_vec(zeros)],
            _check_cli(_verify_orbit(w, frozenset(zeros))), f"n{n}", ref.bits([w]))
        add("action-report", ["action-report", "--weights", _fmt_vec(w)],
            _check_cli(_verify_action(w)), f"n{n}", ref.bits([w]))
        nn = (3, 4, 5)[i % 3]
        w = [rng.choice((1, -1, 2)) for _ in range(nn)]
        add("normalizer", ["normalizer", "--weights", _fmt_vec(w)],
            _check_cli(_verify_normalizer(w)), f"n{nn}", ref.bits([w]))
        dim, degree = ((2, 1), (3, 2), (4, 2), (5, 1))[i % 4]
        add("roots", ["roots", "--dim", str(dim), "--degree", str(degree)],
            _check_cli(_verify_roots(dim, degree)), f"n{dim}d{degree}")

        tn = (2, 3, 4)[i % 3]
        w = _weights(rng, tn, 6, 0.0)
        modulus = rng.randint(2, 6)
        add("oracle-torsion-count", ["oracle-torsion-count", "--weights", _fmt_vec(w),
                                     "--modulus", str(modulus)],
            _check_cli(_same(ref.torsion_count(w, modulus))), f"n{tn}", ref.bits([w]))
        a = _full_rank(rng, 1, 3, 2) + ([[rng.randint(-2, 2) for _ in range(3)]]
                                         if rng.random() < 0.5 else [])
        if ref.rank(a) < len(a):
            a = a[:1]
        eq = i % 2 == 0
        b = ref.matmul(ref.random_unimodular(rng, len(a), 2, 1)[0], a) if eq and len(a) > 1 \
            else ([[-x for x in a[0]]] + a[1:] if eq else [[2 * x for x in a[0]]] + a[1:])
        add("oracle-lattice-equal", ["oracle-lattice-equal", "--a", _fmt_matrix(a),
                                     "--b", _fmt_matrix(b)],
            _check_cli(_same(eq)), f"{len(a)}x3", ref.bits(a + b), eq)
        cn = (2, 3)[i % 2]
        w = _weights(rng, cn, 3, 0.2)
        zeros = sorted(j for j in range(1, cn + 1) if rng.random() < 0.4)
        add("oracle-closedness", ["oracle-closedness", "--weights", _fmt_vec(w),
                                  "--zeros", _fmt_vec(zeros)],
            _check_cli(_verify_closedness(w, frozenset(zeros))), f"n{cn}", ref.bits([w]))

        # malformed input: exit 1
        usage = _check_cli_error(1, ("usage", "value"))
        add("bad-literal", ["hnf", "--matrix", "1 x; 2 3"], _check_cli_error(1, ("value",)), "bad")
        add("bad-ragged", ["snf", "--matrix", "1 2; 3"], usage, "bad")
        add("bad-json", ["hnf", "--matrix-json", '{"rows": 1, "cols": 2, "entries": [[1, 2]'],
            usage, "bad")
        add("bad-json-keys", ["isotype", "--matrix-json", '{"rows": 1}'], usage, "bad")
        add("bad-args", ["orbit", "--zeros", "1"], usage, "bad")
        add("bad-command", ["frobnicate"], usage, "bad")
        add("bad-roots", ["roots", "--dim", "0", "--degree", "1"], usage, "bad")
        add("bad-weights", ["action-report", "--weights", "1 a"], usage, "bad")
        # precondition violations: exit 2
        add("pre-rank", ["lattice-equal", "--method", "pluecker", "--a", "1 2; 2 4",
                         "--b", "1 2; 2 4"], _check_cli_error(2, ("RankDeficient",)), "pre")
        add("pre-dims", ["lattice-equal", "--a", "1 2", "--b", "1 2 3"],
            _check_cli_error(2, ("DimensionMismatch",)), "pre")
        add("pre-zero", ["canonical", "--context", "autn-codim1", "--weights", "0 0 0"],
            _check_cli_error(2, ("ZeroVector",)), "pre")
        add("pre-primitive", ["canonical", "--context", "aut3-torus", "--weights", "2 4 6"],
            _check_cli_error(2, ("NotPrimitive",)), "pre")
        add("pre-zeros", ["orbit", "--weights", "1 2", "--zeros", "9"],
            _check_cli_error(2, ("DimensionMismatch",)), "pre")
        add("pre-too-large", ["oracle-perm-sign", "--a", _fmt_vec(range(9)),
                              "--b", _fmt_vec(range(9))], _check_cli_error(2, ("TooLarge",)), "pre")

    # ROADMAP's accepted bad input: non-integer JSON entries must exit 1
    for entry in ("1.9", "true", '"3"'):
        add("bad-json-entry", ["hnf", "--matrix-json",
                               '{"rows":1,"cols":2,"entries":[[%s,2]]}' % entry],
            _check_cli_error(1, ("usage",)), "bad", known="strict-json")
    # moderate Smith forms, and one whose witnesses pass the 4300-digit
    # int-to-str limit, so emitting it raises from inside cli.main
    for n in (12, 20, 45):
        a = _full_rank(rng, n, n, 100)
        add("snf", ["snf", "--matrix", _fmt_matrix(a)], _check_cli(_verify_snf(a)),
            f"{n}x{n}", ref.bits(a), known="int-str-limit" if n == 45 else None)
    rng.shuffle(ops)
    return ops


def _gcd_all(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


BUILDERS = {
    "small-queries": small_queries,
    "smith-witness": smith_witness,
    "symmetry-search": symmetry_search,
    "cli-mix": cli_mix,
}


def build(lib, workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](lib, rng)

