"""Hand-built adversarial diagrams shared across test modules.

These are the counterexamples: diagrams that are valid as polygonal
complexes but fail niceness or admissibility in a controlled way, plus
a disjoint-union helper for product-structure checks and ``mutate``,
the one-node change to a JSON document that the CLI's exit-code test
and the validator's reference test both draw from.
"""

import copy
from functools import reduce

from sutured import pieces, surface
from sutured.surface import Curve, Diagram, Edge, Face


def annular_trap() -> Diagram:
    """An annulus trapping parallel alpha and beta circles that never meet.

    Three concentric bands: suture F1 (outer boundary to the alpha
    circle), F2 between the two circles, suture F3 down to the other
    boundary.  F2 is a closed annular region with no crossings, so the
    diagram has no generators, fails the niceness census at F2, and F2
    alone is a positive domain with constant curve multiplicity.
    """
    edges = {
        "st": Edge("st", "boundary", None, "wt", "wt"),
        "sb": Edge("sb", "boundary", None, "wb", "wb"),
        "al": Edge("al", "alpha", "A", "va", "va"),
        "bl": Edge("bl", "beta", "B", "vb", "vb"),
        "c1": Edge("c1", "seam", None, "wt", "va"),
        "c2": Edge("c2", "seam", None, "va", "vb"),
        "c3": Edge("c3", "seam", None, "vb", "wb"),
    }
    faces = {
        "F1": Face("F1", [("c1", 1), ("al", 1), ("c1", -1), ("st", 1)], True),
        "F2": Face("F2", [("c2", 1), ("bl", 1), ("c2", -1), ("al", -1)], False),
        "F3": Face("F3", [("c3", 1), ("sb", 1), ("c3", -1), ("bl", -1)], True),
    }
    return Diagram(
        {"va", "vb", "wt", "wb"},
        edges,
        faces,
        {"A": Curve("A", True, ["al"])},
        {"B": Curve("B", True, ["bl"])},
        [],
    )


def hexagram() -> Diagram:
    """A disk with two triangles (one per family) crossing in six points.

    The central hexagon HEX alternates six alpha/beta sides and is the
    lone census offender; the six petals are honest bigons; the outer
    face carries the suture.  Inadmissible: doubling HEX and adding all
    petals gives a positive domain with constant curve multiplicity.
    """
    # alpha triangle cA1 -> cA2 -> cA3, beta triangle cB1 -> cB2 -> cB3,
    # crossing at h1..h6 in outline order cA1 h1 cB1 h2 cA2 h3 cB2 ...
    edges = {
        "a1s1": Edge("a1s1", "alpha", "A", "cA1", "h1"),
        "a1m": Edge("a1m", "alpha", "A", "h1", "h2"),
        "a1s2": Edge("a1s2", "alpha", "A", "h2", "cA2"),
        "a2s1": Edge("a2s1", "alpha", "A", "cA2", "h3"),
        "a2m": Edge("a2m", "alpha", "A", "h3", "h4"),
        "a2s2": Edge("a2s2", "alpha", "A", "h4", "cA3"),
        "a3s1": Edge("a3s1", "alpha", "A", "cA3", "h5"),
        "a3m": Edge("a3m", "alpha", "A", "h5", "h6"),
        "a3s2": Edge("a3s2", "alpha", "A", "h6", "cA1"),
        "b1s1": Edge("b1s1", "beta", "B", "cB1", "h2"),
        "b1m": Edge("b1m", "beta", "B", "h2", "h3"),
        "b1s2": Edge("b1s2", "beta", "B", "h3", "cB2"),
        "b2s1": Edge("b2s1", "beta", "B", "cB2", "h4"),
        "b2m": Edge("b2m", "beta", "B", "h4", "h5"),
        "b2s2": Edge("b2s2", "beta", "B", "h5", "cB3"),
        "b3s1": Edge("b3s1", "beta", "B", "cB3", "h6"),
        "b3m": Edge("b3m", "beta", "B", "h6", "h1"),
        "b3s2": Edge("b3s2", "beta", "B", "h1", "cB1"),
        "sm": Edge("sm", "seam", None, "cA2", "vh"),
        "hl": Edge("hl", "boundary", None, "vh", "vh"),
    }
    faces = {
        "HEX": Face(
            "HEX",
            [("a1m", 1), ("b1m", 1), ("a2m", 1),
             ("b2m", 1), ("a3m", 1), ("b3m", 1)],
            False,
        ),
        "PA1": Face("PA1", [("a3s2", 1), ("a1s1", 1), ("b3m", -1)], False),
        "PA2": Face("PA2", [("a1s2", 1), ("a2s1", 1), ("b1m", -1)], False),
        "PA3": Face("PA3", [("a2s2", 1), ("a3s1", 1), ("b2m", -1)], False),
        "PB1": Face("PB1", [("b3s2", 1), ("b1s1", 1), ("a1m", -1)], False),
        "PB2": Face("PB2", [("b1s2", 1), ("b2s1", 1), ("a2m", -1)], False),
        "PB3": Face("PB3", [("b2s2", 1), ("b3s1", 1), ("a3m", -1)], False),
        "OUTER": Face(
            "OUTER",
            [("sm", 1), ("hl", 1), ("sm", -1),
             ("a1s2", -1), ("b1s1", -1), ("b3s2", -1), ("a1s1", -1),
             ("a3s2", -1), ("b3s1", -1), ("b2s2", -1), ("a3s1", -1),
             ("a2s2", -1), ("b2s1", -1), ("b1s2", -1), ("a2s1", -1)],
            True,
        ),
    }
    alpha = Curve(
        "A", True,
        ["a1s1", "a1m", "a1s2", "a2s1", "a2m", "a2s2", "a3s1", "a3m", "a3s2"],
    )
    beta = Curve(
        "B", True,
        ["b1s1", "b1m", "b1s2", "b2s1", "b2m", "b2s2", "b3s1", "b3m", "b3s2"],
    )
    return Diagram(
        {"cA1", "cA2", "cA3", "cB1", "cB2", "cB3",
         "h1", "h2", "h3", "h4", "h5", "h6", "vh"},
        edges,
        faces,
        {"A": alpha},
        {"B": beta},
        [],
    )


def grid_torus() -> Diagram:
    """A once-punctured torus with two parallel circles per family.

    The four crossings cut the torus into four squares; the puncture
    sits in Q4.  Every non-suture region is a rectangle, so the diagram
    is nice, yet the column of squares missing the puncture is a
    positive domain with constant curve multiplicity: the canonical
    nice-but-inadmissible example.
    """
    edges = {
        "a1A": Edge("a1A", "alpha", "A1", "g11", "g12"),
        "a1B": Edge("a1B", "alpha", "A1", "g12", "g11"),
        "a2A": Edge("a2A", "alpha", "A2", "g21", "g22"),
        "a2B": Edge("a2B", "alpha", "A2", "g22", "g21"),
        "b1A": Edge("b1A", "beta", "B1", "g11", "g21"),
        "b1B": Edge("b1B", "beta", "B1", "g21", "g11"),
        "b2A": Edge("b2A", "beta", "B2", "g12", "g22"),
        "b2B": Edge("b2B", "beta", "B2", "g22", "g12"),
        "sp": Edge("sp", "seam", None, "g22", "vp"),
        "hp": Edge("hp", "boundary", None, "vp", "vp"),
    }
    faces = {
        "Q1": Face("Q1", [("b1A", 1), ("a2A", 1), ("b2A", -1), ("a1A", -1)], False),
        "Q2": Face("Q2", [("b1B", 1), ("a1A", 1), ("b2B", -1), ("a2A", -1)], False),
        "Q3": Face("Q3", [("b2A", 1), ("a2B", 1), ("b1A", -1), ("a1B", -1)], False),
        "Q4": Face(
            "Q4",
            [("sp", 1), ("hp", 1), ("sp", -1),
             ("b2B", 1), ("a1B", 1), ("b1B", -1), ("a2B", -1)],
            True,
        ),
    }
    return Diagram(
        {"g11", "g12", "g21", "g22", "vp"},
        edges,
        faces,
        {"A1": Curve("A1", True, ["a1A", "a1B"]),
         "A2": Curve("A2", True, ["a2A", "a2B"])},
        {"B1": Curve("B1", True, ["b1A", "b1B"]),
         "B2": Curve("B2", True, ["b2A", "b2B"])},
        [],
    )


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Both diagrams side by side, ids prefixed to stay distinct."""
    left = surface._prefix_diagram(d1, "L:")
    right = surface._prefix_diagram(d2, "R:")
    out = left.copy()
    out.vertices |= right.vertices
    out.edges.update(right.edges)
    out.faces.update(right.faces)
    out.alpha_curves.update(right.alpha_curves)
    out.beta_curves.update(right.beta_curves)
    out.interfaces = left.interfaces + right.interfaces
    out.eh = left.eh + right.eh
    out.marks = {**left.marks, **right.marks}
    return out


def bigonpair_power(k: int) -> Diagram:
    """``k`` disjoint copies of the bigon pair: 2^k generators, one class."""
    return reduce(disjoint_union, [pieces.bigonpair() for _ in range(k)])


def punctured_grid(n: int, k: int) -> Diagram:
    """Toroidal n x n grid with the squares (i, i) and (i, i + k) punctured.

    Alpha circle ``A{i}`` runs along row i and beta circle ``B{j}`` along
    column j, meeting once at ``g{i}_{j}``, so there are n! generators.
    Each punctured square carries the suture through a seam from its
    first corner to a boundary loop, as in ``grid_torus``.
    """
    g = lambda i, j: f"g{i % n}_{j % n}"  # noqa: E731
    a = lambda i, j: f"a{i % n}_{j % n}"  # noqa: E731  g(i,j) -> g(i,j+1)
    b = lambda i, j: f"b{i % n}_{j % n}"  # noqa: E731  g(i,j) -> g(i+1,j)
    vertices = {g(i, j) for i in range(n) for j in range(n)}
    edges = {}
    for i in range(n):
        for j in range(n):
            edges[a(i, j)] = Edge(a(i, j), "alpha", f"A{i}", g(i, j), g(i, j + 1))
            edges[b(i, j)] = Edge(b(i, j), "beta", f"B{j}", g(i, j), g(i + 1, j))
    punctured = {(i, i) for i in range(n)} | {(i, (i + k) % n) for i in range(n)}
    faces = {}
    for i in range(n):
        for j in range(n):
            word = [(b(i, j), 1), (a(i + 1, j), 1), (b(i, j + 1), -1), (a(i, j), -1)]
            if (i, j) in punctured:
                seam, loop, v = f"s{i}_{j}", f"h{i}_{j}", f"p{i}_{j}"
                vertices.add(v)
                edges[seam] = Edge(seam, "seam", None, g(i, j), v)
                edges[loop] = Edge(loop, "boundary", None, v, v)
                word = [(seam, 1), (loop, 1), (seam, -1)] + word
            faces[f"Q{i}_{j}"] = Face(f"Q{i}_{j}", word, (i, j) in punctured)
    alpha = {f"A{i}": Curve(f"A{i}", True, [a(i, j) for j in range(n)]) for i in range(n)}
    beta = {f"B{j}": Curve(f"B{j}", True, [b(i, j) for i in range(n)]) for j in range(n)}
    return Diagram(vertices, edges, faces, alpha, beta, [])


def relabel(d: Diagram, rng) -> Diagram:
    """Every id renamed by a seeded bijection onto ``n0 .. n<k-1>``, so
    every id-sorted order inside the library changes."""
    ids = sorted(
        d.vertices | set(d.edges) | set(d.faces)
        | set(d.alpha_curves) | set(d.beta_curves)
    )
    slots = list(range(len(ids)))
    rng.shuffle(slots)
    return surface._renamed(d, {x: f"n{t}" for x, t in zip(ids, slots)})


def _nodes(doc, path=()):
    """(path, value) for every value below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,), v
        if isinstance(v, (dict, list)):
            yield from _nodes(v, path + (k,))


def mutate(doc, choose) -> None:
    """Change a JSON document in place at one node: delete it, swap it
    for another string in the document, retype it (a float among the
    new types) or duplicate it, or, in a list of two or more items,
    repeat the two-item stretch it starts (or ends, at the list's end),
    which keeps an odd length odd, as a transverse path's must be.  A
    node that is a list of two or more items may also be cut to its
    first item.  ``choose`` picks one item of a list (a Hypothesis draw
    or a seeded ``Random.choice``)."""
    nodes = list(_nodes(doc))
    path, value = choose(nodes)
    holder = doc
    for k in path[:-1]:
        holder = holder[k]
    key = path[-1]
    ops = ["delete", "swap", "retype", "duplicate"]
    if isinstance(holder, list) and len(holder) >= 2:
        ops.append("repeat")
    if isinstance(value, list) and len(value) >= 2:
        ops.append("shorten")
    op = choose(ops)
    if op == "shorten":
        del value[1:]
    elif op == "repeat":
        start = min(key, len(holder) - 2)
        holder[start:start] = copy.deepcopy(holder[start:start + 2])
    elif op == "delete":
        del holder[key]
    elif op == "swap":
        ids = sorted({v for _p, v in nodes if isinstance(v, str)})
        holder[key] = choose(ids)
    elif op == "retype":
        holder[key] = choose([None, 0, 7, 2.5, True, "", [], {}])
    elif isinstance(holder, list):
        holder.insert(key, copy.deepcopy(value))
    else:
        holder[key] = [value, value] if isinstance(value, list) else [value]
