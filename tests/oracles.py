"""Independent brute-force reference implementations used to derive and
check expected values.

Everything here favors obvious dense loops over the production code's
sparse stores and symmetry shortcuts: inversion goes through the adjugate,
curvature tensors are computed for every index tuple, raising and covariant
derivatives compute every key rather than one orientation of each
antisymmetric pair, and invariant sums walk all D**n assignments with no
abbreviation or zero filtering.  The dense Riemann tensor is built mixed,
R^a_bcd, and then lowered, so the pair exchange and the antisymmetries
that the production code uses to fill components it never computes are
checked against a computation that does not assume them.  The one
exception is ``dense_enumerate``: it walks all D**n assignments too, but
applies the production abbreviation filter, so its output is the
reference for the production sparse join entry for entry.  Products are
formed canonically, one ``*`` and one ``+`` at a time, as the reference
for the production sums that group raw products by denominator.
``rows``, ``normalize``, ``eval_rational`` and
``riemann_independent_nonzero_count`` are helpers that only the tests use.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from curvinv.contraction import detect_abbreviable_pairs
from curvinv.expr import (
    Expr,
    SymbolEnv,
    SymbolicError,
    UnknownSymbolError,
)
from curvinv.tensor import LOWER, Metric, TensorField


def adjugate_inverse(g: Metric):
    """Dense inverse via cofactor expansion; returns a dim x dim Expr grid."""
    dim = g.dim
    m = [[g.component((i, j)) for j in range(dim)] for i in range(dim)]
    det = _determinant(m, g.env)
    if det.is_zero:
        raise ZeroDivisionError("singular metric in oracle")
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            minor = [
                [m[r][c] for c in range(dim) if c != j]
                for r in range(dim)
                if r != i
            ]
            cof = _determinant(minor, g.env)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof / det
    return out


def _determinant(m, env: SymbolEnv) -> Expr:
    n = len(m)
    if n == 0:
        return env.one()
    if n == 1:
        return m[0][0]
    total = env.zero()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _determinant(minor, env)
        total = total + term if j % 2 == 0 else total - term
    return total


def dense_christoffel(g: Metric):
    """Gamma[a][b][c] for every index, from the defining formula."""
    dim, env = g.dim, g.env
    coords = env.coordinates
    ginv = adjugate_inverse(g)
    half = env.one() / env.integer(2)
    gamma = [[[env.zero() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                acc = env.zero()
                for d in range(dim):
                    acc = acc + ginv[a][d] * (
                        g.component((d, c)).diff(coords[b])
                        + g.component((b, d)).diff(coords[c])
                        - g.component((b, c)).diff(coords[d])
                    )
                gamma[a][b][c] = half * acc
    return gamma


def dense_riemann_lowered(g: Metric):
    """R[a][b][c][d] all-lower, every index tuple, no symmetry shortcuts."""
    dim, env = g.dim, g.env
    coords = env.coordinates
    gamma = dense_christoffel(g)
    up = [
        [[[env.zero() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    acc = gamma[a][d][b].diff(coords[c]) - gamma[a][c][b].diff(coords[d])
                    for e in range(dim):
                        acc = acc + gamma[a][c][e] * gamma[e][d][b]
                        acc = acc - gamma[a][d][e] * gamma[e][c][b]
                    up[a][b][c][d] = acc
    low = [
        [[[env.zero() for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    acc = env.zero()
                    for e in range(dim):
                        acc = acc + g.component((a, e)) * up[e][b][c][d]
                    low[a][b][c][d] = acc
    return low


def dense_covariant_derivative(grid, g: Metric):
    """One covariant derivative of an all-lower dense grid (nested lists);
    the new index is appended last."""
    dim, env = g.dim, g.env
    coords = env.coordinates
    gamma = dense_christoffel(g)

    def walk(node, key):
        if isinstance(node, list):
            return [walk(sub, key + (i,)) for i, sub in enumerate(node)]
        out = []
        for e in range(dim):
            acc = node.diff(coords[e])
            for s in range(len(key)):
                for f in range(dim):
                    corr = gamma[f][e][key[s]]
                    if corr.is_zero:
                        continue
                    acc = acc - corr * _lookup(grid, key[:s] + (f,) + key[s + 1 :])
            out.append(acc)
        return out

    return walk(grid, ())


def _lookup(grid, key):
    node = grid
    for i in key:
        node = node[i]
    return node


def rows(metric: Metric) -> list:
    """Sparse rows of the metric: rows(metric)[a] lists (b, g_ab) for the
    nonzero components, by b."""
    dim = metric.dim
    grid = [[metric.component((a, b)) for b in range(dim)] for a in range(dim)]
    return [[(b, v) for b, v in enumerate(row) if not v.is_zero] for row in grid]


def full_contract_slot(field, slot, rows, new_char):
    """``tensor.raise_index`` forming every product at every output key.
    Returns the field and the number of products formed.  ``rows`` are a
    metric's sparse rows and ``new_char`` the slot's new variance, so with
    the metric's own rows and ``LOWER`` it lowers the slot."""
    accumulated = {}
    mults = 0
    for key, value in field.components.items():
        e = key[slot]
        prefix, suffix = key[:slot], key[slot + 1 :]
        for k, weight in rows[e]:
            out_key = prefix + (k,) + suffix
            product = weight * value
            mults += 1
            prior = accumulated.get(out_key)
            accumulated[out_key] = product if prior is None else prior + product
    variance = field.variance[:slot] + (new_char,) + field.variance[slot + 1 :]
    out = TensorField(
        field.env, field.dim, variance, accumulated, antisym_pairs=field.antisym_pairs
    )
    return out, mults


def full_covariant_derivative(t, gamma):
    """``tensor.covariant_derivative`` computing every output key, swapped
    orientations of antisymmetric pairs included."""
    dim, env = t.dim, t.env
    coords = env.coordinates
    pending = {}

    def add(key, value):
        pending.setdefault(key, []).append(value)

    for key, value in t.components.items():
        for e in range(dim):
            d = value.diff(coords[e])
            if not d.is_zero:
                add(key + (e,), d)
        for s in range(t.rank):
            f = key[s]
            prefix, suffix = key[:s], key[s + 1 :]
            for e in range(dim):
                for i in range(dim):
                    w = gamma.component((f, e, i))
                    if w.is_zero:
                        continue
                    add(prefix + (i,) + suffix + (e,), -(w * value))
    zero = env.zero()
    accumulated = {key: sum(parts, zero) for key, parts in pending.items()}
    return TensorField(
        env,
        dim,
        t.variance + (LOWER,),
        accumulated,
        antisym_pairs=t.antisym_pairs,
    )


def normalize(env: SymbolEnv, tree) -> Expr:
    """Canonicalize a raw expression tree.

    A tree is an integer, a symbol name (``"r"``, ``"cos(theta)"``), an
    already-canonical :class:`Expr`, or a tuple ``(op, *args)`` with op one
    of ``+ - * / ** neg``.  Equal inputs (as rational functions) normalize
    to identical values; the map is idempotent.
    """
    if isinstance(tree, Expr):
        if tree.env != env:
            raise UnknownSymbolError("expression belongs to a different environment")
        return tree
    if isinstance(tree, int):
        return env.integer(tree)
    if isinstance(tree, str):
        return env.symbol(tree)
    if isinstance(tree, tuple) and tree:
        op = tree[0]
        if op == "**":
            if len(tree) != 3 or not isinstance(tree[2], int):
                raise SymbolicError("power needs an integer exponent: %r" % (tree,))
            return normalize(env, tree[1]) ** tree[2]
        args = [normalize(env, a) for a in tree[1:]]
        if op == "+":
            out = env.zero()
            for a in args:
                out = out + a
            return out
        if op == "-":
            if len(args) == 1:
                return -args[0]
            out = args[0]
            for a in args[1:]:
                out = out - a
            return out
        if op == "neg" and len(args) == 1:
            return -args[0]
        if op == "*":
            out = env.one()
            for a in args:
                out = out * a
            return out
        if op == "/" and len(args) == 2:
            return args[0] / args[1]
        raise SymbolicError("malformed expression node %r" % (tree,))
    raise SymbolicError("unsupported expression leaf %r" % (tree,))


def riemann_independent_nonzero_count(field: TensorField) -> int:
    """Number of distinct nonzero components modulo the pair antisymmetries
    and the pair-exchange symmetry."""
    reps = set()
    for a, b, c, d in field.components:
        p = (a, b) if a <= b else (b, a)
        q = (c, d) if c <= d else (d, c)
        reps.add((p, q) if p <= q else (q, p))
    return len(reps)


def field_to_grid(field, env: SymbolEnv):
    """Dense nested-list view of a sparse TensorField."""
    dim = field.dim

    def build(rank, key):
        if rank == 0:
            return field.component(key)
        return [build(rank - 1, key + (i,)) for i in range(dim)]

    return build(field.rank, ())


def evaluate_product(spec, entry: tuple, tensors) -> Expr:
    """Canonical product of the components one plan entry addresses."""
    product = None
    for ids, tensor in zip(spec.factor_label_ids(), tensors):
        value = tensor.components[tuple(entry[i] for i in ids)]
        product = value if product is None else product * value
    return product


def sequential_oracle(plan) -> Expr:
    """The plan's multiplier times its canonical products over its own
    tensors, added one at a time in plan order."""
    total = plan.tensors[0].env.zero()
    for entry in plan.sum_index_array:
        total = total + evaluate_product(plan.spec, entry, plan.tensors)
    return total * plan.multiplier


def brute_force_sum(spec, tensors, dim: int) -> Expr:
    """Sum of component products over every assignment of every label;
    no abbreviation, no zero filtering, no multiplier."""
    env = tensors[0].env
    factor_ids = spec.factor_label_ids()
    total = env.zero()
    n = spec.label_count
    assignment = [0] * n
    while True:
        product = env.one()
        for ids, tensor in zip(factor_ids, tensors):
            product = product * tensor.component(tuple(assignment[i] for i in ids))
            if product.is_zero:
                break
        if not product.is_zero:
            total = total + product
        k = 0
        while k < n:
            assignment[k] += 1
            if assignment[k] == dim:
                assignment[k] = 0
                k += 1
            else:
                break
        if k == n:
            break
    return total


def dense_enumerate(spec, tensors, dim: int) -> tuple:
    """Odometer over every dim**label_count assignment, first label fastest:
    skip abbreviated pairs out of order and keep the assignments whose
    components are all stored.  Same result as ``enumerate_indices``'s
    ``sum_index_array``."""
    abbreviated, _ = detect_abbreviable_pairs(spec)
    index = {name: i for i, name in enumerate(spec.label_names)}
    pair_ids = [(index[x], index[y]) for x, y in sorted(abbreviated)]
    factor_ids = spec.factor_label_ids()
    stores = [t.components for t in tensors]
    entries = []
    for reversed_state in itertools.product(range(dim), repeat=spec.label_count):
        state = reversed_state[::-1]
        if any(state[j] <= state[i] for i, j in pair_ids):
            continue
        if all(tuple(state[i] for i in ids) in store for ids, store in zip(factor_ids, stores)):
            entries.append(state)
    return tuple(entries)


def dense_contract_free(spec, tensors, dim: int) -> dict:
    """Nonzero components of ``contract_free``: products over
    ``dense_enumerate`` summed per assignment of the free labels, times the
    abbreviation multiplier."""
    _, multiplier = detect_abbreviable_pairs(spec)
    free_ids = [i for i, name in enumerate(spec.label_names) if name in spec.free_labels]
    sums = {}
    for entry in dense_enumerate(spec, tensors, dim):
        key = tuple(entry[i] for i in free_ids)
        value = evaluate_product(spec, entry, tensors)
        sums[key] = sums[key] + value if key in sums else value
    return {key: total * multiplier for key, total in sums.items() if not total.is_zero}


class EvaluationError(SymbolicError):
    """Exact evaluation failed (missing symbol or vanishing denominator)."""


def eval_rational(expr: Expr, assignment) -> Fraction:
    """Value of ``expr`` at exact rational symbol values.

    The assignment maps generator display names (``"r"``, ``"cos(theta)"``)
    to rationals and must cover every generator ``expr`` mentions; a
    missing one, or a denominator that vanishes, raises EvaluationError.
    """
    names = expr.env.gen_names

    def value(poly):
        total = Fraction(0)
        for mon, coeff in poly.terms():
            term = Fraction(int(coeff))
            for i, e in enumerate(mon):
                if not e:
                    continue
                if names[i] not in assignment:
                    raise EvaluationError("no value assigned to %r" % names[i])
                term *= Fraction(assignment[names[i]]) ** e
            total += term
        return total

    num, den = value(expr.num), value(expr.den)
    if den == 0:
        raise EvaluationError("denominator vanishes at the given assignment")
    return num / den


def random_point(env: SymbolEnv, rng: random.Random) -> dict:
    """Exact rational assignment for every generator, denominators kept odd
    and magnitudes small so metric denominators stay nonzero with high
    probability."""
    point = {}
    for name in env.gen_names:
        point[name] = Fraction(rng.randint(2, 23), rng.choice([5, 7, 9, 11, 13]))
    return point


def agree_at_random_points(e1: Expr, e2: Expr, seed: int, points: int = 10) -> bool:
    """Exact equality of values at ``points`` random rational assignments;
    assignments that hit a vanishing denominator are redrawn."""
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < points:
        attempts += 1
        if attempts > 50 * points:
            raise RuntimeError("could not find enough valid sample points")
        point = random_point(e1.env, rng)
        try:
            v1 = eval_rational(e1, point)
            v2 = eval_rational(e2, point)
        except Exception:
            continue
        if v1 != v2:
            return False
        checked += 1
    return True
