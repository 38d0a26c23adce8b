"""Acceptance suite: one test per shipped guarantee, one summary line each.

Each criterion accumulates its failures and reports through the shared
board in conftest, so a full run prints nine pass/fail lines.
"""

import itertools

import oracles
import sequences
from conftest import record_criterion
from sutured import glue, modules, pieces, sfc, strands, surface
from sutured.glue import HandleSpec
from sutured.surface import ArcDiagram

FIXTURES = sequences.FIXTURES


def name(x):
    return modules.format_generator(x)


def z1_diagram():
    return ArcDiagram([[], []], {}, "beta")


def z2_diagram():
    return ArcDiagram(
        [["p1", "p2", "p3"], ["q1"]],
        {"p1": 2, "p2": 1, "p3": 2, "q1": 1},
        "beta",
    )


def boundary_set(cx, gens):
    out = set()
    for g in gens:
        out ^= oracles.boundary_of(cx, g)
    return frozenset(out)


# ---------------------------------------------------------------------------
# 1: algebra ranks


def test_criterion_1_algebra_ranks():
    failures = []
    s1 = strands.algebra_summary(z1_diagram())
    if [sm["rank"] for sm in s1["summands"]] != [1]:
        failures.append(f"point-free algebra summands {s1['summands']}")
    s2 = strands.algebra_summary(z2_diagram())
    ranks = [sm["rank"] for sm in s2["summands"]]
    if ranks != [1, 5, 3]:
        failures.append(f"two-arc algebra summand ranks {ranks}")
    record_criterion(1, "algebra ranks 1 and (1,5,3)", failures)


# ---------------------------------------------------------------------------
# 2: one-strand multiplication table


def test_criterion_2_one_strand_products():
    failures = []
    z = z2_diagram()
    by_label = {strands.label(b): b for b in strands.basis(z)}

    def product(*labels):
        out = by_label[labels[0]]
        for lab in labels[1:]:
            out = strands.multiply(out, by_label[lab])
        return strands.render(out)

    for factors, want in [
        (("ι2", "ρ1", "ι1"), "ρ1"),
        (("ι1", "ρ2", "ι2"), "ρ2"),
        (("ι2", "ρ12", "ι2"), "ρ12"),
        (("ρ1", "ρ2"), "ρ12"),
    ]:
        got = product(*factors)
        if got != want:
            failures.append(f"{'·'.join(factors)} = {got}, want {want}")
    movers = ["ρ1", "ρ12", "ρ2"]
    for a, b in itertools.product(movers, movers):
        if (a, b) == ("ρ1", "ρ2"):
            continue
        got = product(a, b)
        if got != "0":
            failures.append(f"{a}·{b} = {got}, want 0")
    record_criterion(2, "one-strand product table", failures)


# ---------------------------------------------------------------------------
# 3: the pairing bimodule is the dual algebra


def test_criterion_3_pairing_bimodule():
    failures = []
    library = modules.bordered_invariant(pieces.az2(), "AA", sector=(1, 1))
    if library.generator_names() != ["{z1}", "{z2}", "{z3}", "{z4}", "{z5}"]:
        failures.append(f"generators {library.generator_names()}")
    bs = oracles.as_reference(library)  # actions read by generator name
    basis_l = modules.algebra_basis(bs, 0)
    basis_r = modules.algebra_basis(bs, 1)
    gen = {name(x): x for x in bs.generators}
    for side, label, x, want in [
        (0, "ρ1", "{z1}", "{z4}"),
        (0, "ρ12", "{z1}", "{z3}"),
        (1, "ρ1", "{z2}", "{z3}"),
        (1, "ρ2", "{z4}", "{z5}"),
    ]:
        a = (basis_l if side == 0 else basis_r)[label]
        got = {name(y) for y in oracles.act(bs, side, a, gen[x])}
        if got != {want}:
            failures.append(f"action {label} on {x} gave {got}, want {want}")
    if any(
        set(r.faces) == {"D1", "D3", "D4"} for r in sfc.action_census(pieces.az2())
    ):
        failures.append("three-face strip D1∪D3∪D4 produced an action record")

    # duality: a·b∨ = Σ_c [b ∈ a·c] c∨ and mirrored on the right
    tags = {"{z1}": "ρ12", "{z2}": "ρ1", "{z3}": "ι2", "{z4}": "ρ2", "{z5}": "ι1"}
    for x in bs.generators:
        b_left = next(iter(basis_l[tags[name(x)]].terms))
        b_right = next(iter(basis_r[tags[name(x)]].terms))
        for a in basis_l.values():
            got = {name(y) for y in oracles.act(bs, 0, a, x)}
            want = {
                nm for nm, t in tags.items()
                if b_left in strands.multiply(a, basis_l[t]).terms
            }
            if got != want:
                failures.append(f"left duality at {name(x)}, {strands.label(a)}")
        for a in basis_r.values():
            got = {name(y) for y in oracles.act(bs, 1, a, x)}
            want = {
                nm for nm, t in tags.items()
                if b_right in strands.multiply(basis_r[t], a).terms
            }
            if got != want:
                failures.append(f"right duality at {name(x)}, {strands.label(a)}")
    record_criterion(3, "pairing bimodule actions and duality", failures)


# ---------------------------------------------------------------------------
# 4: one-handle pipeline equals the direct transport, chain-level


def test_criterion_4_one_handle_routes_agree():
    failures = []
    for key in FIXTURES:
        d = pieces.build(key)
        free = sorted(d.free_boundary_edge_ids())
        for p, q in sorted({(free[0], free[0]), (free[0], free[-1])}):
            try:
                table = glue.glue_one_handle(d, p, q)
            except (ValueError, AssertionError) as err:
                failures.append(f"{key} ({p},{q}): {err}")
                continue
            _d2, sigma, _ = glue.sigma_map(d, HandleSpec("1", p=p, q=q))
            images = {g: oracles.apply_table(table, [g]) for g in table.source.basis}
            if images != {g: oracles.apply_table(sigma, [g]) for g in sigma.source.basis}:
                failures.append(f"{key} ({p},{q}): tables differ")
            staged, direct = table.target, sigma.target
            if (staged.verts, staged.gens, staged.differential) != (
                direct.verts, direct.gens, direct.differential
            ):
                failures.append(f"{key} ({p},{q}): target complexes differ")
            if table.check():
                failures.append(f"{key} ({p},{q}): pipeline table not a chain map")
    record_criterion(4, "one-handle pipeline table equals transport", failures)


# ---------------------------------------------------------------------------
# 5: the two-handle stage identity


def _two_handle_cases():
    for key in FIXTURES:
        d = pieces.build(key)
        for site in sorted(d.free_boundary_edge_ids()):
            base, handle = glue.one_handled(d, site)
            yield f"{key}@{site}", base, glue.two_handle_spec(base, handle)


def test_criterion_5_two_handle_identity():
    failures = []
    for label, base, spec in _two_handle_cases():
        try:
            rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(base, spec))
        except (ValueError, AssertionError) as err:
            failures.append(f"{label}: {err}")
            continue
        rep = rec["identityReport"]
        if not rep["ok"]:
            failures.append(f"{label}: {rep['failures'][0]}")
        if not rep["ranks_agree"]:
            failures.append(f"{label}: stage ranks {rep['ranks']}")
        # re-walk the identity over every cycle, not just a kernel basis
        cx = sfc.differential(base)
        cx5 = rec["H5"]
        marks = {k.split("_")[0]: v for k, v in rec["H3"].diagram.marks.items()
                 if k.split("_")[0] in ("x0", "y0")}
        x0, y0 = f"R:{marks['x0']}", f"R:{marks['y0']}"
        cycles = [
            combo
            for r in range(len(cx.basis) + 1)
            for combo in itertools.combinations(cx.basis, r)
            if not boundary_set(cx, combo)
        ]
        for combo in cycles:
            lift = lambda z, c: [frozenset({f"L:{z}", c} | {f"R:{v}" for v in g})
                                 for g in combo]
            lhs = boundary_set(cx5, lift("z1", y0))
            rhs = frozenset(
                set(lift("z3", y0)) ^ set(lift("z2", x0))
            )
            if lhs != rhs:
                failures.append(f"{label}: identity fails on {len(combo)}-term cycle")
                break
    record_criterion(5, "two-handle stage identity and rank agreement", failures)


# ---------------------------------------------------------------------------
# 6: curve-free surfaces have rank one


def test_criterion_6_curve_free_rank_one():
    failures = []
    surfaces = {"disk": pieces.build("fix-disk")}
    cur = pieces.build("fix-disk")
    for i in range(3):
        free = sorted(cur.free_boundary_edge_ids())
        cur = surface.attach_one_handle(cur, free[0], free[-1])
        surfaces[f"disk+{i + 1} handles"] = cur
    pants = surface.attach_one_handle(pieces.build("fix-disk"), "s0", "s0")
    surfaces["two-holed disk"] = surface.attach_one_handle(
        pants, *sorted(pants.free_boundary_edge_ids())[:2]
    )
    for label, d in surfaces.items():
        if d.alpha_curves or d.beta_curves:
            failures.append(f"{label}: not curve-free")
            continue
        total = sfc.homology(d).total
        if total != 1:
            failures.append(f"{label}: rank {total}")
    record_criterion(6, "curve-free surfaces compute rank one", failures)


# ---------------------------------------------------------------------------
# 7: the property suite over 100 seeded compositions


def _stage_properties(key, specs, failures):
    d = pieces.build(key)
    tag = set(d.eh)
    cur = d
    results = []
    for i, spec in enumerate(specs):
        where = f"{key} seed-stage {i} [{spec.kind}]"
        before = sfc.homology(cur).total
        try:
            d2, table, x0 = glue.sigma_map(cur, spec)
        except (ValueError, AssertionError) as err:
            failures.append(f"{where}: {err}")
            return
        results.append((d2, table, x0))
        for cx in (table.source, table.target):
            classes = dict(zip(cx.basis, cx.labels))
            for g in cx.basis:
                if boundary_set(cx, oracles.boundary_of(cx, g)):
                    failures.append(f"{where}: differential does not square to zero")
                bad = [y for y in oracles.boundary_of(cx, g) if classes[y] != classes[g]]
                if bad:
                    failures.append(f"{where}: differential leaves the class of {name(g)}")
        if table.check():
            failures.append(f"{where}: transport table fails the chain-map law")
        if spec.kind.startswith("bypass"):
            if not table.is_bijection():
                failures.append(f"{where}: bypass table is not an isomorphism")
            after = sfc.homology(d2).total
            if after != before:
                failures.append(f"{where}: bypass changed rank {before}->{after}")
            (alpha,) = set(d2.alpha_curves) - set(cur.alpha_curves)
            (beta,) = set(d2.beta_curves) - set(cur.beta_curves)
            undone, forced = oracles.reference_trivial_destabilize(d2, alpha, beta)
            if forced != x0 or sfc.homology(undone).total != before:
                failures.append(f"{where}: destabilization broke the rank")
        if tag:
            tag |= {x0} if x0 is not None else set()
            cx2 = table.target
            g = frozenset(tag)
            if g not in set(cx2.basis) or oracles.boundary_of(cx2, g):
                failures.append(f"{where}: transported contact tag is not a cycle")
        cur = d2


def test_criterion_7_property_suite():
    failures = []
    for key in FIXTURES:  # the catalog itself, via its canonical sequences
        _stage_properties(key, glue.two_handle_sequence(pieces.build(key)), failures)
    for seed in range(100):
        key, specs = sequences.random_sequence(seed)
        _stage_properties(key, specs, failures)
    record_criterion(7, "property suite over 100 seeded compositions", failures)


# ---------------------------------------------------------------------------
# 8: the two routes agree on ranks and the contact class


def _harness_pairs():
    pairs = []
    for key in FIXTURES:
        d = pieces.build(key)
        free = sorted(d.free_boundary_edge_ids())
        pairs.append((key, [HandleSpec("1", p=free[0], q=free[-1])]))
        pairs.append((key, [HandleSpec("bypass+", site=free[0])]))
        pairs.append((key, glue.two_handle_sequence(d)))
        s1 = HandleSpec("bypass-", site=free[0])
        d2 = glue.sigma_map(d, s1)[0]
        free2 = sorted(d2.free_boundary_edge_ids())
        pairs.append((key, [s1, HandleSpec("1", p=free2[0], q=free2[-1])]))
    return pairs


def test_criterion_8_equivalence_harness():
    failures = []
    pairs = _harness_pairs()
    assert len(pairs) >= 10
    for key, specs in pairs:
        label = f"{key}+" + "/".join(s.kind for s in specs)
        try:
            rep = glue.equivalence_report(pieces.build(key), specs)
        except (ValueError, AssertionError) as err:
            failures.append(f"{label}: {err}")
            continue
        if not rep["ok"]:
            failures.append(f"{label}: {rep['counterexample'] or rep['eh']}")
        # stage-wise contact-class agreement between the two routes
        d = pieces.build(key)
        if not d.eh:
            continue
        cur, tag = d, frozenset(d.eh)
        for spec in specs:
            d2, table, x0 = glue.sigma_map(cur, spec)
            tag2 = frozenset(tag | {x0}) if x0 is not None else tag
            sigma_van = oracles.is_boundary(sfc.differential(d2), [tag2])
            if spec.kind == "1":
                ptable = glue.glue_one_handle(cur, spec.p, spec.q)
                psi_van = oracles.is_boundary(ptable.target, oracles.apply_table(ptable, [tag]))
            elif spec.kind == "2":
                rec = glue.glue_two_handle(cur, spec, table.target, x0)
                psi_van = oracles.is_boundary(
                    rec["H4"], oracles.apply_table(rec["joinTable"], [tag])
                )
            else:
                psi_van = sigma_van  # the bypass map is its own staged route
            if psi_van != sigma_van:
                failures.append(f"{label}: contact classes disagree at [{spec.kind}]")
            cur, tag = d2, tag2
    record_criterion(8, "route comparison harness", failures)


# ---------------------------------------------------------------------------
# 9: independent brute-force oracles


def _oracle_family():
    family = {key: pieces.build(key) for key in FIXTURES}
    family["capped-stabilizer"] = pieces.build("handle1")
    family["capped-bypass-block"] = pieces.build("handle2")
    for key in FIXTURES:
        d = pieces.build(key)
        for spec in glue.two_handle_sequence(d):
            d = glue.sigma_map(d, spec)[0]
        family[f"{key}+surgery"] = d
    for seed in (3, 11):
        key, specs = sequences.random_sequence(seed)
        d = pieces.build(key)
        for spec in specs:
            d = glue.sigma_map(d, spec)[0]
        family[f"seed-{seed}"] = d
    return family


def test_criterion_9_oracle_cross_checks():
    failures = []
    for label, d in sorted(_oracle_family().items()):
        curves = len(d.alpha_curves) + len(d.beta_curves)
        if curves > 6:
            failures.append(f"{label}: {curves} curves exceeds the oracle bound")
            continue
        gens = sfc.generators(d)
        if gens != oracles.powerset_generators(d):
            failures.append(f"{label}: generator sets differ")
            continue
        naive = oracles.naive_differential(d)
        cx = sfc.differential(d)
        if any(oracles.boundary_of(cx, x) != naive[x] for x in cx.basis):
            failures.append(f"{label}: differentials differ")
            continue
        order = sorted(naive)
        idx = {g: i for i, g in enumerate(order)}
        rows = []
        for x in order:
            row = 0
            for y in naive[x]:
                row |= 1 << idx[y]
            if row:
                rows.append(row)
        rank = oracles.naive_f2_rank(rows)
        if sfc.homology(d).total != len(order) - 2 * rank:
            failures.append(f"{label}: homology ranks differ")
    record_criterion(9, "brute-force oracle cross-checks", failures)
