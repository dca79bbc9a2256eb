"""Reference for the family check: one FKM walk per size.

`necklaces(f, n)` walks the necklaces of size n on their own and builds their
prefix products for that size alone, and `min_trace` keeps the first necklace
in lexicographic order that attains the minimum. `report` and
`transfer_entries` build from them what `bounded_positivity_check(...).to_obj()`
and `transfer_tensor(...).entries` give, so the one walk that serves every size
can be compared with a walk per size.
"""

from operator import mul

from omegadec.familycheck import UNDECIDED_DISCLAIMER


def necklaces(f, n):
    """Yield (index, trace of the matrix product it names) for every necklace
    of size n, in lexicographic order; ``index`` is one list updated in place."""
    D, m, N = f.D, f.m, n + 1
    cols = [tuple(zip(*f.transfer_matrix(j))) for j in range(m)]
    index = [0] * N
    # heads[d] is the product of the matrices index[:d]; heads[:fresh + 1] are current
    heads = [tuple(tuple(int(r == c) for c in range(D)) for r in range(D))] * N
    fresh = 0
    p = 1                   # length of the longest Lyndon prefix of index
    while True:
        if N % p == 0:
            for d in range(fresh, N - 1):
                heads[d + 1] = tuple(tuple(sum(map(mul, row, col)) for col in cols[index[d]])
                                     for row in heads[d])
            fresh = N - 1
            yield index, sum(sum(map(mul, row, col))
                             for row, col in zip(heads[N - 1], cols[index[N - 1]]))
        p = N
        while p and index[p - 1] == m - 1:
            p -= 1
        if not p:
            return
        index[p - 1] += 1
        for j in range(p, N):
            index[j] = index[j - p]
        fresh = min(fresh, p - 1)


def min_trace(f, n):
    """The minimum entry at size n and the first index that attains it."""
    best = witness = None
    for index, trace in necklaces(f, n):
        if best is None or trace < best:
            best, witness = trace, tuple(index)
    return best, witness


def report(f, n_max, n_min=1):
    """What `bounded_positivity_check(f, n_max, n_min).to_obj()` reports,
    with no guard."""
    sizes, first = [], None
    for n in range(n_min, n_max + 1):
        low, witness = min_trace(f, n)
        sizes.append({"n": n, "min_entry": str(low), "witness": list(witness),
                      "violated": low < 0})
        if low < 0 and first is None:
            first = n
    return {"n_min": n_min, "n_max": n_max, "sizes": sizes, "first_violation": first,
            "violation_found": first is not None, "disclaimer": UNDECIDED_DISCLAIMER}


def transfer_entries(f, n):
    """The row-major entries of `transfer_tensor(f, n)`."""
    m, N = f.m, n + 1
    entries = [0] * m ** N
    for index, trace in necklaces(f, n):
        for k in range(N):
            pos = 0
            for i in index[k:] + index[:k]:
                pos = pos * m + i
            entries[pos] = trace
    return entries
