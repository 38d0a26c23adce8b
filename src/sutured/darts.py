"""The dart index of a diagram, one build per gated diagram: ``surface``
validates from it and cuts along a curve with it, and ``sfc``, handed
the same build, runs its census on it."""

from functools import cached_property


class Darts:
    """Every side of every face word, numbered once as a *dart*.

    Darts run face by face in the order of ``d.faces``, each word from
    its first side; face ``i`` holds the darts in ``darts_of(i)``.  Flat
    lists indexed by dart give the side's ``edge`` id, ``sign`` and
    ``kind`` (its edge's; None for a missing edge), its ``face`` index,
    the ``tail`` vertex it starts at, ``nxt``, the next side of its
    face, and ``mate``, the side of the same edge the other way, or -1,
    as on each side of an edge used more than twice (``validate`` refuses).
    ``pairs`` lists the mated darts once per edge.  The build also keeps
    what ``validate`` reports of the words: ``missing`` (face id, edge
    id) references and ``breaks``.

    A corner is a dart read at its tail, and the next corner around the
    tail is ``nxt[mate[k]]``: vertex links are orbits of that step, kept
    in no other form (``walk`` follows one from a corner until it is open
    or back at that corner, ``orbits`` gives each link's first corner,
    and ``_prv`` gives the side into a corner), and regions and cuts are
    union-finds over face indices (``regions`` is kept, with its
    ``region_groups``).  ``d`` is a ``surface.Diagram``; an edit to it
    needs a new build.
    """

    def __init__(self, d):
        self.d = d
        self.faces = faces = list(d.faces.values())
        self.index = {f.id: i for i, f in enumerate(faces)}  # face id -> face index
        get = d.edges.get
        edge, sign, kind, tail, face, nxt = [], [], [], [], [], []
        self.start = start = []
        self.missing, self.breaks = missing, breaks = [], []
        self.first = first = {}  # edge -> its first dart
        pairs = []
        odd = False  # a side repeats
        k = 0
        for i, f in enumerate(faces):
            start.append(k)
            word = f.word
            if not word:
                breaks.append(f"face {f.id} has an empty word")
                continue
            e, s = word[-1]
            ed = get(e)
            head = None if ed is None else ed.to if s > 0 else ed.frm
            for e, s in word:
                edge.append(e)
                sign.append(s)
                j = first.setdefault(e, k)
                if j != k:
                    pairs.append((j, k))
                    odd = odd or sign[j] == s
                ed = get(e)
                if ed is None:
                    missing.append((f.id, e))
                    kind.append(None)
                    tail.append(None)
                    head = None
                else:
                    kind.append(ed.kind)
                    if s > 0:
                        t, h = ed.frm, ed.to
                    else:
                        t, h = ed.to, ed.frm
                    tail.append(t)
                    if t != head and head is not None:
                        breaks.append(f"face {f.id} word breaks at position {k - start[i]}")
                    head = h
                k += 1
            n = len(word)
            face += [i] * n
            nxt += range(k - n + 1, k)
            nxt.append(k - n)
        start.append(k)
        self.edge, self.sign, self.kind, self.face = edge, sign, kind, face
        self.tail, self.nxt = tail, nxt
        self.mate = mate = [-1] * k
        self.sides = None  # edge -> darts, kept only when a side repeats
        if odd or len(dict(pairs)) != len(pairs):
            self.sides = sides = {}
            for j, e in enumerate(edge):
                sides.setdefault(e, []).append(j)
            pairs = [tuple(ds) for ds in sides.values()
                     if len(ds) == 2 and sign[ds[0]] != sign[ds[1]]]
        for a, b in pairs:
            mate[a], mate[b] = b, a
        self.pairs = pairs

    @cached_property
    def regions(self) -> list:
        """The faces joined across the seams: ``join(("seam",))``."""
        return self.join(("seam",))

    @cached_property
    def region_groups(self) -> list:
        """The regions as sorted lists of face ids: ``groups(regions)``."""
        return self.groups(self.regions)

    def darts_of(self, i: int) -> range:
        """The darts of face ``i``."""
        return range(self.start[i], self.start[i + 1])

    def darts_on(self, e) -> list:
        """The darts of edge ``e``, in dart order."""
        if self.sides is not None:
            return self.sides.get(e, [])
        j = self.first.get(e)
        if j is None:
            return []
        return [j] if self.mate[j] < 0 else [j, self.mate[j]]

    @cached_property
    def crossings(self) -> dict:
        """crossing vertex -> {"alpha": curve id, "beta": curve id}, read
        along the curve chains."""
        out = {}
        for family, curves in (("alpha", self.d.alpha_curves), ("beta", self.d.beta_curves)):
            for c in curves.values():
                for e in c.segments:
                    ed = self.d.edges[e]
                    out.setdefault(ed.frm, {})[family] = c.id
                    out.setdefault(ed.to, {})[family] = c.id
        return {v: fams for v, fams in out.items() if len(fams) == 2}

    def _prv(self, k: int) -> int:
        """The side before ``k`` in its face: the one into the corner ``k``."""
        i = self.face[k]
        return k - 1 if k > self.start[i] else self.start[i + 1] - 1

    def _corner(self, k: int) -> tuple:
        i = self.face[k]
        return self.faces[i].id, k - self.start[i]

    def walk(self, k0: int) -> tuple:
        """``(corners, open)``: the corners around the tail of ``k0``
        from ``k0`` on, until an unmated outgoing side (``open``) or the
        walk is back at ``k0``.  The step is one-to-one, so no other
        corner repeats first.  Read it on a build with no ``breaks``,
        where every step stays at the tail."""
        nxt, mate = self.nxt, self.mate
        ring, k = [], k0
        while True:
            ring.append(k)
            m = mate[k]
            if m < 0:
                return ring, True
            k = nxt[m]
            if k == k0:
                return ring, False

    def orbits(self) -> list:
        """One corner per vertex link of a coherent build (every side
        mated once, no word breaking), the one ``walk`` starts the link
        from: the first corner of each chain, which starts at a corner
        whose incoming side is unmated, in dart order, then the least
        corner of each remaining cycle."""
        nxt, mate = self.nxt, self.mate
        seen = bytearray(len(nxt))
        out = sorted(nxt[j] for j, m in enumerate(mate) if m < 0)
        for k in out:
            seen[k] = 1
            while mate[k] >= 0:
                k = nxt[mate[k]]
                seen[k] = 1
        for k0 in range(len(nxt)):
            if not seen[k0]:
                out.append(k0)
                k = nxt[mate[k0]]
                while k != k0:
                    seen[k] = 1
                    k = nxt[mate[k]]
        return out

    def join(self, kinds, root=None) -> list:
        """face index -> the least face index of its class, the faces
        across every edge of ``kinds`` joined (to the classes of
        ``root``, a result of ``join``, when given)."""
        root = list(range(len(self.faces))) if root is None else list(root)
        kind, face = self.kind, self.face
        for a, b in self.pairs:  # a union-find whose links point down
            if kind[a] in kinds:
                a, b = face[a], face[b]
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                if a < b:
                    root[b] = a
                else:
                    root[a] = b
        for i, r in enumerate(root):
            root[i] = root[r]
        return root

    def groups(self, root) -> list:
        """The classes of ``root`` as sorted lists of face ids, ordered
        as their lists in face order sort."""
        out = {}
        for f, r in zip(self.faces, root):
            out.setdefault(r, []).append(f.id)
        return [sorted(g) for g in sorted(out.values())]
