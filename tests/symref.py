"""A sympy oracle for the free constructions, sharing no code with the exact core.

It reads plain data only: factors as lists of (radicand, root index,
{exponents: coefficient}) parts, complexes as (vertices, weight) facet
lists, groups as vertex-permutation generators, tensors as dims and
row-major entries, and a decomposition as the JSON object `to_obj` writes.
Factors become sympy polynomials in the site-blocked symbols x{i}_{v}, scales become `sympy.Rational` and
`sympy.root`, and a decomposition is expanded by the paper's defining sum:
scale**V times the sum, over every assignment of 1..N to the multifacet
labels, of the product over sites of the local at the labels the site reads.
"""

from itertools import product

import sympy


def symbol(site, var):
    return sympy.Symbol(f"x{site}_{var}")


def monomial(site, exps):
    return sympy.Mul(*(symbol(site, v) ** e for v, e in enumerate(exps)))


def scalar(obj):
    """{"r": "num/den", "k": k} as the positive real (num/den)**(1/k)."""
    return sympy.root(sympy.Rational(obj["r"]), obj["k"])


def factor(parts, site):
    """A factor given as (radicand, root index, {exponents: coefficient}) parts."""
    return sympy.Add(*(sympy.root(sympy.Rational(r), k) * sympy.Rational(c) * monomial(site, e)
                       for r, k, terms in parts for e, c in terms.items()))


def elementary(terms):
    """sum over terms of the product over sites of the factors."""
    return sympy.expand(sympy.Add(*(sympy.Mul(*(factor(f, i) for i, f in enumerate(term)))
                                    for term in terms)))


def group(generators, vertex_count):
    """Every vertex permutation that the generators produce."""
    identity = tuple(range(vertex_count))
    found, todo = {identity}, [identity]
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in found:
                found.add(q)
                todo.append(q)
    return sorted(found)


def moved(expr, perm, widths):
    """expr with the variables of site i renamed to those of site perm[i]."""
    return expr.xreplace({symbol(i, v): symbol(perm[i], v)
                          for i, w in enumerate(widths) for v in range(w)})


def closure(terms, perms):
    """Each term moved by each permutation: its factor at site i goes to site perm[i]."""
    out = []
    for term in terms:
        for perm in perms:
            at = [None] * len(term)
            for i, f in enumerate(term):
                at[perm[i]] = f
            out.append(at)
    return out


def average(terms, perms):
    """The group average of the elementary sum: that of the closure over |G|."""
    return elementary(closure(terms, perms)) / len(perms)


def label_positions(facets, vertex_count):
    """The labels a vertex reads: each facet of weight w owns w consecutive labels."""
    positions, start = [[] for _ in range(vertex_count)], 0
    for vertices, weight in facets:
        for v in vertices:
            positions[v].extend(range(start, start + weight))
        start += weight
    return [sorted(p) for p in positions], start


def contraction(facets, dec):
    """The defining label-assignment sum of a decomposition given as its `to_obj`."""
    V = len(dec["site_vars"])
    locals_ = {}
    for entry in dec["locals"]:
        poly = entry["poly"]
        value = sympy.Add(*(sympy.Rational(t["coeff"]) * monomial(entry["site"], t["exps"][0])
                            for t in poly["terms"]))
        if "scale" in entry:
            value *= scalar(entry["scale"])
        key = (entry["site"], tuple(entry["beta"]))
        locals_[key] = locals_.get(key, 0) + value
    positions, label_count = label_positions(facets, V)
    total = []
    for labels in product(range(1, dec["index_size"] + 1), repeat=label_count):
        factors = [locals_.get((i, tuple(labels[p] for p in positions[i]))) for i in range(V)]
        if all(f is not None for f in factors):
            total.append(sympy.Mul(*factors))
    return sympy.expand(scalar(dec["scale"]) ** V * sympy.Add(*total))


def tensor_polynomial(dims, entries):
    """A tensor given by its dims and its entries in row-major order, as the sum
    over its indices of the entry times the product over axes i of x{i}_{index_i}**2."""
    return sympy.Add(*(sympy.Rational(v) * sympy.Mul(*(symbol(i, j) ** 2 for i, j in enumerate(idx)))
                       for idx, v in zip(product(*(range(d) for d in dims)), entries)))


def radpoly(parts):
    """A polynomial given as the JSON list `RadPoly.to_obj` writes: each part's
    scale, one when absent, times its terms, whose exponents are per site."""
    return sympy.expand(sympy.Add(*(
        (scalar(part["scale"]) if "scale" in part else 1)
        * sympy.Rational(t["coeff"])
        * sympy.Mul(*(monomial(i, e) for i, e in enumerate(t["exps"])))
        for part in parts for t in part["poly"]["terms"])))


def equal(a, b):
    """Exact equality of two polynomials with radical coefficients. sympy writes
    a product of rational powers of integers in one form, so expanding their
    difference leaves 0 exactly when they agree."""
    return sympy.expand(a - b) == 0


def sos_members(facets, sos):
    """Each member of an sos decomposition, given as the `to_obj` object of a
    plain one plus the member range "members" that every site shares, each
    local entry carrying its member value "k": member K contracts, at each
    site i, the locals of member value K[i]."""
    return {K: contraction(facets, dict(sos, locals=[e for e in sos["locals"]
                                                     if e["k"] == K[e["site"]]]))
            for K in product(sos["members"], repeat=len(sos["site_vars"]))}
