"""Batch interface: deterministic output, exit codes, round-trips."""

import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixtures
import oracles
import sequences
from sutured import cli, glue, modules, pieces, sfc, surface

LISTING = [
    "az1", "az2", "bigonpair", "cap1", "cap2", "disk", "handle1", "handle2",
    "rt2", "stab", "u1", "u2",
    "fix-bigonpair", "fix-disk", "fix-stab",
    "disk-h2", "disk-h3", "disk-h4", "disk-h5", "disk-h6",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(surface.serialize(pieces.build("fix-disk")))
    return str(path)


@pytest.fixture
def stab_file(tmp_path):
    path = tmp_path / "stab.json"
    path.write_text(surface.serialize(pieces.build("fix-stab")))
    return str(path)


def write_plan(tmp_path, specs):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([glue.spec_to_json(s) for s in specs]))
    return str(path)


# ---------------------------------------------------------------------------
# examples and round-trips


def test_examples_listing_is_stable(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.splitlines() == LISTING
    code, out2, _ = run(capsys, "examples", "--format", "json")
    assert json.loads(out2) == {"names": LISTING}


@pytest.mark.parametrize("name", LISTING)
def test_examples_round_trip_and_gates(capsys, name):
    code, out, _ = run(capsys, "examples", name)
    assert code == 0
    d = surface.parse(out)
    assert surface.serialize(d) == out
    assert not surface.validate(d)
    sfc.differential(d)  # nice + admissible gates


def test_examples_out_dir_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "examples", "stab", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "stab.json").read_text() == out


def test_examples_out_dir_writes_every_example(capsys, tmp_path):
    """With no name, ``--out-dir`` writes one file per example, each
    byte-equal to the stdout of ``examples <name>`` and valid."""
    code, out, _ = run(capsys, "examples", "--out-dir", str(tmp_path))
    assert code == 0 and out.splitlines() == cli._example_family() == LISTING
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.json" for n in LISTING)
    for name in LISTING:
        path = tmp_path / f"{name}.json"
        assert run(capsys, "examples", name) == (0, path.read_text(), "")
        assert run(capsys, "validate", str(path))[0] == 0


# sha256 of ``examples <name>`` stdout for the fix-disk 2-handle stages
DISK_STAGE_SHA256 = {
    "disk-h2": "fad25d969e24a4c5111242a66d4131839b6f6460f8963f619a1b9f47a3f25756",
    "disk-h3": "082f99bb650b971ca61cc94ddb6c91ebd5be2613d8f282c8c2a0ff0c4754ca36",
    "disk-h4": "b968beb1b6364325af0c799ff09d7b4c723e263f7676ff6f160a35b1cab815a3",
    "disk-h5": "838403e29ffd43dfc1225bf779596979a1914afde8374420a2bbeba2fd73aecf",
    "disk-h6": "0572f2e3680af51fbccd6f582bc10f7e6ccb96a8b05ec2c7b39838e4472df129",
}


@pytest.mark.parametrize("name", sorted(DISK_STAGE_SHA256))
def test_disk_stage_examples_are_pinned(capsys, name):
    code, out, _ = run(capsys, "examples", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DISK_STAGE_SHA256[name]


# sha256 of ``bordered`` stdout, text and json, on the documents ``examples``
# writes: each catalog piece in each kind its interface count allows, az2's
# (1, 1) sector and disk-h3's type-D structure
BORDERED_SHA256 = {
    ("az1 --kind AA", "text"): "d1901ca9a7f531cb38de5f1d730c440be5f1be14d7703d73cfbe3c79ce016596",
    ("az1 --kind AA", "json"): "0b2b75691c44721f4808a0ecd8836c89ca94c17ade303b587041c835996be6b8",
    ("az2 --kind AA", "text"): "6ffdf34fe135a76b0828d9324cc6eb7dcd04a8be03aa58c936715a569c3db9d1",
    ("az2 --kind AA", "json"): "1260c0d84ba0f30382d2a85fa1ce572f596238a642e3027cd7bab9f21f1ebf4e",
    ("az2 --kind AA --sector 1,1", "text"): "3a67c789321210a4e04d16e76c6c037ee1aeed5d2b98d81f8318aa52145bdafd",
    ("az2 --kind AA --sector 1,1", "json"): "5dcd7ece772652f73e6cbe97d58ef81e67f5efb825cad2044b31a3669ee5556f",
    ("cap1 --kind A", "text"): "db44f2aa2dd2f485d58fbff636c4f2a4e092572c184b0ed796a8393ff4dd0f12",
    ("cap1 --kind A", "json"): "03f2ccc5225c904de70eb5ecbad72bd12dc67985089fd0226dc2a6e46a6f9fdf",
    ("cap1 --kind D", "text"): "539386ab47cb52563a823a020376a49c910e40f6e324c2a0de5602d5d8f248c4",
    ("cap1 --kind D", "json"): "c01956d584fad8144a8e5fa3cafd572d4ad53cb5b0b9f59577ec568e6352ef11",
    ("cap2 --kind A", "text"): "3956412ddb3972b981e3acd6bf3c06f763c1ca75d854fd1efcbce047dee82bbf",
    ("cap2 --kind A", "json"): "c09d0d0767d34526ea4d8ff77b12ce0ad24d787f6b71498893c530f348ade072",
    ("cap2 --kind D", "text"): "539386ab47cb52563a823a020376a49c910e40f6e324c2a0de5602d5d8f248c4",
    ("cap2 --kind D", "json"): "14075a871fe502c4fb174d8e1a93e2edbe4e7fccb825a0b8d0496f4e567ed62c",
    ("rt2 --kind A", "text"): "9dfe5e7e220f7c357960824b0ee6b6f3f83d1448f1f997b1bab56d132a582462",
    ("rt2 --kind A", "json"): "8372d1b065de23823aac060f068dcc38bd870edd5fdafce79dbbffb314c53d32",
    ("rt2 --kind D", "text"): "84ab3961b8c7767cfe5d574ba53f9bdf3059919fe163abdcb7910c4f68e6c696",
    ("rt2 --kind D", "json"): "cf31578758ccc5c720c23ddfff61601c4b3f4411eb67d3a17b42dc6de0fb62f0",
    ("u1 --kind A", "text"): "b0499a8bf08c2182b2ab929ca5c7513ddf2dd3990f69606bc2ea1d8fd4263084",
    ("u1 --kind A", "json"): "51947d57270c1767a9a187dbcf97c7421101bdc0fe48476a55637f9fbf80d597",
    ("u1 --kind D", "text"): "539386ab47cb52563a823a020376a49c910e40f6e324c2a0de5602d5d8f248c4",
    ("u1 --kind D", "json"): "84d81140a221157c7da1bd4b43d8a4ec3402bee749a1565e928a9c3b3da3ff8b",
    ("u2 --kind A", "text"): "53c23d23b7a650b1184f7a7c06b2d1d3775a62a193b2fef2bc3236f718395ca9",
    ("u2 --kind A", "json"): "0972c1f63617f0f07498e638c1f29c72d2fd24f89fbf66febfac3ac0bb594015",
    ("u2 --kind D", "text"): "539386ab47cb52563a823a020376a49c910e40f6e324c2a0de5602d5d8f248c4",
    ("u2 --kind D", "json"): "9af5f7dbdccfb628bcbba79fd0afc619e7eb0329c96fc74eb619e56c07b80de6",
    ("disk-h3 --kind D", "text"): "2b02024c1dc98ee986586b1808c9c2d830266c13b13b34630879bb8392a48094",
    ("disk-h3 --kind D", "json"): "e737115a996abc10349a44920a5fafa89a7428a3e481f79c16ac192bc20f262b",
}


@pytest.mark.parametrize("case,fmt", sorted(BORDERED_SHA256))
def test_bordered_stdout_is_pinned(capsys, tmp_path, case, fmt):
    name, *options = case.split()
    code, text, _ = run(capsys, "examples", name)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    code, out, _ = run(capsys, "bordered", str(path), *options, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BORDERED_SHA256[case, fmt]


def test_examples_listing_runs_the_two_handle_pipeline_once(capsys, tmp_path, monkeypatch):
    """The listing writes disk-h3 … disk-h6 from one run of the fix-disk
    2-handle pipeline."""
    calls, real = [], glue.glue_two_handle
    monkeypatch.setattr(glue, "glue_two_handle", lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(capsys, "examples", "--out-dir", str(tmp_path))
    assert code == 0 and len(calls) == 1


def test_examples_unknown_name(capsys):
    code, _, err = run(capsys, "examples", "fix-torus")
    assert code == 1
    assert "unknown example" in json.loads(err)["error"]


def test_examples_refuses_an_unknown_stage_before_the_pipeline(capsys, monkeypatch):
    """``disk-h9`` names no stage: it is refused as any unknown name is,
    before the fix-disk 2-handle pipeline runs."""
    calls = []
    monkeypatch.setattr(glue, "glue_two_handle", lambda *a: calls.append(a))
    code, out, err = run(capsys, "examples", "disk-h9")
    assert (code, out, calls) == (1, "", [])
    assert json.loads(err) == {"error": "unknown example 'disk-h9'"}


# ---------------------------------------------------------------------------
# inspection verbs


def test_homology_text_and_json(capsys, disk_file):
    code, out, _ = run(capsys, "homology", disk_file)
    assert code == 0
    assert out == "rank 1 (1 Spin^c class)\n"
    code, out, _ = run(capsys, "homology", disk_file, "--format", "json")
    assert json.loads(out) == {"by_class": {"0": 1}, "total": 1}


@pytest.mark.parametrize("d", [fixtures.punctured_grid(5, 1), fixtures.bigonpair_power(6)],
                         ids=["grid-5", "bigonpair^6"])
def test_homology_builds_no_basis(capsys, tmp_path, monkeypatch, d):
    """The ``homology`` verb ranks the complex from its class labels: the
    ``basis`` and ``position`` views are never built."""
    path = tmp_path / "d.json"
    path.write_text(surface.serialize(d))
    rank, built, real = sfc.homology(d).total, [], sfc.differential

    def keeping(d, darts=None):
        built.append(real(d, darts))
        return built[-1]

    monkeypatch.setattr(sfc, "differential", keeping)
    code, out, _ = run(capsys, "homology", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["total"] == rank
    (cx,) = built
    assert len(cx.gens) == len(sfc.generators(d)) > 1
    assert {"basis", "position"}.isdisjoint(vars(cx))


def test_generators_listing(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(surface.serialize(pieces.build("fix-bigonpair")))
    code, out, _ = run(capsys, "generators", str(path))
    assert code == 0
    assert out.splitlines() == ["{x}", "{y}"]


def test_validate_accepts_and_rejects(capsys, tmp_path, disk_file):
    code, out, _ = run(capsys, "validate", disk_file)
    assert code == 0 and out == "ok\n"
    doc = json.loads(Path(disk_file).read_text())
    doc["tags"]["eh"] = ["ghost"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True, indent=1))
    code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 1
    assert any("missing vertex" in p for p in json.loads(out)["problems"])
    trunc = tmp_path / "trunc.json"
    trunc.write_text("{\"vertices\": [")
    code, _, err = run(capsys, "validate", str(trunc))
    assert code == 1 and "error" in json.loads(err)


def test_invalid_documents_are_refused_on_read(capsys, tmp_path):
    doc = json.loads(surface.serialize(pieces.build("fix-stab")))
    doc["alpha_curves"][0]["segments"].append("ghost")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for verb in ("generators", "homology"):
        code, out, err = run(capsys, verb, str(bad))
        assert code == 1 and out == ""
        reason = json.loads(err)["error"]
        assert "invalid diagram document" in reason and "ghost" in reason
    code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 1 and json.loads(out)["problems"]


CATALOG = sorted(pieces.catalog()) + ["fix-bigonpair", "fix-disk", "fix-stab"]


def _handle_documents():
    """Label -> (base diagram, plan); the plans use every handle kind."""
    stab = pieces.build("fix-stab")
    one, two = glue.two_handle_sequence(stab)
    mid, _handle = glue.one_handled(stab)
    return {
        "1 then 2": (stab, [glue.spec_to_json(one), glue.spec_to_json(two)]),
        "2": (mid, [glue.spec_to_json(two)]),
        "bypass": (stab, [{"kind": "bypass+", "site": "bd"}]),
    }


HANDLE_DOCUMENTS = _handle_documents()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path, data):
    """A diagram, handle spec or handle plan document with one node
    deleted, swapped for another id, retyped or duplicated."""
    target = data.draw(st.sampled_from(["diagram", "spec", "plan"]))
    if target == "diagram":
        doc = json.loads(surface.serialize(pieces.build(data.draw(st.sampled_from(CATALOG)))))
        plan_doc = []
    else:
        base, plan_doc = HANDLE_DOCUMENTS[data.draw(st.sampled_from(sorted(HANDLE_DOCUMENTS)))]
        plan_doc = copy.deepcopy(plan_doc)
        doc = plan_doc[0] if target == "spec" else plan_doc
    fixtures.mutate(doc, lambda items: data.draw(st.sampled_from(items)))
    diagram = tmp_path / "mutated.json"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    if target == "diagram":
        diagram.write_text(json.dumps(doc))
        runs = (["validate"], ["generators"], ["homology"],
                ["bordered", "--kind", "D"], ["bordered", "--kind", "A"],
                ["verify-equivalence", "--handles", str(plan)])
    else:
        diagram.write_text(surface.serialize(base))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(plan_doc[0] if plan_doc else []))
        runs = (["attach", "--spec", str(spec)], ["glue", "--spec", str(spec)],
                ["verify-equivalence", "--handles", str(plan)])
    for verb, *opts in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([verb, str(diagram), *opts]) in (0, 1, 2)


def test_missing_file_is_a_domain_rejection(capsys):
    code, _, err = run(capsys, "homology", "/nonexistent.json")
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "{deep}"],
        ["verify-equivalence", "{stab}", "--handles", "{deep}"],
        ["attach", "{stab}", "--spec", "{deep}"],
    ],
    ids=["diagram", "handles", "spec"],
)
def test_deeply_nested_documents_are_domain_rejections(capsys, tmp_path, stab_file, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(a.format(deep=deep, stab=stab_file) for a in argv))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "document nests too deeply"}


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "homology")
    assert code == 1 and "error" in json.loads(err)
    code, _, err = run(capsys, "no-such-verb")
    assert code == 1


def test_help_says_what_each_document_verb_does(capsys):
    """``--help`` gives validate, generators and homology each its own
    text, none of them the verb followed by "a diagram document"."""
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0
    lines = {line.split()[0]: line.split(None, 1)[1]
             for line in capsys.readouterr().out.splitlines()
             if line.split()[:1] in (["validate"], ["generators"], ["homology"])}
    assert len(set(lines.values())) == len(lines) == 3
    assert all(not text.startswith(verb) for verb, text in lines.items())


# ---------------------------------------------------------------------------
# algebra and bordered


def test_algebra_summary_and_table(capsys):
    code, out, _ = run(capsys, "algebra", "--arc-diagram", "Z2", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "summand 0: rank 1: ι∅"
    assert lines[1] == "summand 1: rank 5: ι1 ι2 ρ1 ρ12 ρ2"
    assert lines[2] == "summand 2: rank 3: ι12 ρ12|ι1 ρ1|ρ2"
    products = set(lines[3:])
    assert "ρ1 · ρ2 = ρ12" in products
    assert "ρ2 · ρ1 = 0" in products
    assert "ι2 · ρ1 = ρ1" in products
    code, out, _ = run(capsys, "algebra", "--arc-diagram", "Z1")
    assert out == "summand 0: rank 1: ι∅\n"
    code, _, err = run(capsys, "algebra", "--arc-diagram", "Z9")
    assert code == 1 and "unknown arc diagram" in json.loads(err)["error"]


def test_bordered_dump(capsys, tmp_path):
    path = tmp_path / "az2.json"
    path.write_text(surface.serialize(pieces.build("az2")))
    code, out, _ = run(capsys, "bordered", str(path), "--kind", "AA",
                       "--sector", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["generators"]) == 5
    assert "m[1|1|0](ρ1, {z1}) = {z4}" in payload["dump"]
    rt = tmp_path / "rt2.json"
    rt.write_text(surface.serialize(pieces.build("rt2")))
    code, out, _ = run(capsys, "bordered", str(rt), "--kind", "D")
    assert code == 0 and "δ¹({z1})" in out


def test_bordered_refuses_impossible_sectors(capsys, tmp_path):
    """rt2 has one interface of 2 arcs: a count outside 0..2 is refused
    with the interface named, and an entry that is no int with
    ``--sector`` named."""
    rt = tmp_path / "rt2.json"
    rt.write_text(surface.serialize(pieces.build("rt2")))
    for count in ("-1", "99"):
        code, out, err = run(capsys, "bordered", str(rt), "--kind", "D", "--sector", count)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == f"sector count {count} for interface 0 is outside 0..2"
    for bad in (",", "1,x"):
        code, out, err = run(capsys, "bordered", str(rt), "--kind", "D", "--sector", bad)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == f"--sector takes comma-separated ints, not {bad!r}"
    code, _, _ = run(capsys, "bordered", str(rt), "--kind", "D", "--sector", "0")
    assert code == 0


# ---------------------------------------------------------------------------
# attachment verbs


def test_attach_then_glue(capsys, tmp_path, stab_file, monkeypatch):
    specs = glue.two_handle_sequence(pieces.build("fix-stab"))
    spec1 = tmp_path / "h1.json"
    spec1.write_text(json.dumps(glue.spec_to_json(specs[0])))
    code, out, _ = run(capsys, "attach", stab_file, "--spec", str(spec1))
    assert code == 0
    mid = tmp_path / "mid.json"
    mid.write_text(out)
    assert sfc.homology(surface.parse(out)).total == 1

    spec2 = tmp_path / "h2.json"
    spec2.write_text(json.dumps(glue.spec_to_json(specs[1])))
    built, ranked = [], []
    real, real_homology = sfc.differential, sfc.homology
    monkeypatch.setattr(sfc, "differential", lambda d, darts=None: built.append(d) or real(d, darts))
    monkeypatch.setattr(sfc, "homology", lambda d: ranked.append(d) or real_homology(d))
    glue._handle_blocks.cache_clear()
    glue._twist_block.cache_clear()
    code, out, _ = run(capsys, "glue", str(mid), "--spec", str(spec2),
                       "--format", "json")
    assert code == 0
    # the base, the five bordered invariants (four of them the builtin
    # blocks' -- u2, cap2, the block and rt2 -- built once per process;
    # the fifth is H3, ranked from the same complex) and H6; the join's
    # source and target (H4) and H5 are box tensor products, not built
    assert len(built) == 7
    # H4, H5 and H6 are ranked once, by the pipeline; the verb ranks H3
    assert len(ranked) == 4
    payload = json.loads(out)
    assert payload["identityReport"]["ok"]
    assert payload["stages"]["H5"]["rank"] == payload["stages"]["H6"]["rank"] == 1
    assert out == json.dumps(payload, sort_keys=True, indent=1,
                             ensure_ascii=False) + "\n"


def test_glue_one_handle_table(capsys, tmp_path, stab_file):
    spec = tmp_path / "h1.json"
    spec.write_text(json.dumps({"kind": "1", "p": "bd", "q": "bd"}))
    code, out, _ = run(capsys, "glue", stab_file, "--spec", str(spec))
    assert code == 0
    assert out.splitlines() == ["{c} -> {c}", "rank 1"]


def test_glue_rejects_bypass_specs(capsys, tmp_path, stab_file):
    spec = tmp_path / "byp.json"
    spec.write_text(json.dumps({"kind": "bypass+", "site": "bd"}))
    code, _, err = run(capsys, "glue", stab_file, "--spec", str(spec))
    assert code == 1 and "bypass" in json.loads(err)["error"]


def test_attach_rejects_malformed_specs(capsys, tmp_path, stab_file):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"kind": "1"}))
    code, _, err = run(capsys, "attach", stab_file, "--spec", str(spec))
    assert code == 1 and "malformed handle spec" in json.loads(err)["error"]
    spec.write_text(json.dumps({"kind": "8", "p": "bd"}))
    code, _, err = run(capsys, "attach", stab_file, "--spec", str(spec))
    assert code == 1 and "unknown handle kind" in json.loads(err)["error"]


@pytest.mark.parametrize("verb", ["attach", "glue", "verify-equivalence"])
def test_paths_crossing_an_edge_twice_are_refused(capsys, tmp_path, stab_file, verb):
    """A transverse path that crosses one edge twice is a domain
    rejection, not a traceback, on every verb that attaches a 2-handle."""
    spec = {"kind": "2", "p": "bd", "q": "bd",
            "a_path": ["F", "a2", "F", "a2", "F"], "b_path": ["F"]}
    path = tmp_path / "spec.json"
    if verb == "verify-equivalence":
        path.write_text(json.dumps([spec]))
        opts = ["--handles", str(path)]
    else:
        path.write_text(json.dumps(spec))
        opts = ["--spec", str(path)]
    code, out, err = run(capsys, verb, stab_file, *opts)
    assert (code, out) == (1, "")
    assert "cross each edge at most once" in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# equivalence runs


def test_verify_equivalence_clean(capsys, tmp_path, stab_file):
    plan = write_plan(tmp_path, glue.two_handle_sequence(pieces.build("fix-stab")))
    code, out, _ = run(capsys, "verify-equivalence", stab_file, "--handles", plan)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "equivalent"
    assert "EH: nonvanishing" in lines
    code, out, _ = run(capsys, "verify-equivalence", stab_file, "--handles", plan,
                       "--format", "json")
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("name", ["handle1", "disk-h5"])
def test_staged_routes_glue_pieces_that_share_mark_names(capsys, tmp_path, name):
    """``handle1`` and ``disk-h5`` carry mark names that the pieces the
    staged routes concatenate onto them carry too: the concatenation
    suffixes the second piece's mark, so the 1-handle (``handle1``) and
    the two-handle sequence (``disk-h5``) glue and agree with ``attach``."""
    d = cli._build_example(name)
    specs = glue.two_handle_sequence(d)[:1 if name == "handle1" else 2]
    # the 1-handle glues onto d, the 2-handle onto the 1-handled d
    for key, diagram in (("base", d), ("glued", d if len(specs) == 1 else glue.one_handled(d)[0])):
        (tmp_path / f"{key}.json").write_text(surface.serialize(diagram))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(glue.spec_to_json(specs[-1])))
    code, out, err = run(capsys, "glue", str(tmp_path / "glued.json"), "--spec", str(spec))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "verify-equivalence", str(tmp_path / "base.json"),
                         "--handles", write_plan(tmp_path, specs))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "equivalent"


@pytest.mark.parametrize("value", ["float", "bool", "padded", "zero-led", "short"])
def test_malformed_numbers_and_entries_refuse_the_document(capsys, tmp_path, value):
    """A ``matching`` value that is not an int (a bool is not one), an
    ``arcs`` key that is not the decimal form of an int, or a
    ``boundary`` entry that is not a two-item list is refused with a
    reason naming the field, not read through ``int`` or unpacked bare."""
    doc = json.loads(surface.serialize(pieces.build("rt2")))
    arc_diagram, itf = doc["arc_interfaces"][0]["arc_diagram"], doc["arc_interfaces"][0]
    if value == "float":  # each raised by 0.5, which ``int`` would read back
        arc_diagram["matching"] = {p: a + 0.5 for p, a in arc_diagram["matching"].items()}
    elif value == "bool":
        arc_diagram["matching"] = {p: a == 1 for p, a in arc_diagram["matching"].items()}
    elif value in ("padded", "zero-led"):
        form = " {} " if value == "padded" else "0{}"
        itf["arcs"] = {form.format(a): c for a, c in itf["arcs"].items()}
    else:
        doc["faces"][0]["boundary"][0] = doc["faces"][0]["boundary"][0][:1]
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(doc))
    field = {"float": "matching", "bool": "matching", "short": "boundary"}.get(value, "arcs")
    for verb, *opts in (["validate"], ["bordered", "--kind", "D"]):
        code, out, err = run(capsys, verb, str(bad), *opts)
        assert (code, out) == (1, "")
        reason = json.loads(err)["error"]
        assert reason.startswith("malformed diagram document")
        assert f"{field} " in reason


def _tagged_file(tmp_path, d, tag):
    """``d`` written with its contact tag set to ``tag``."""
    doc = json.loads(surface.serialize(d))
    doc["tags"]["eh"] = tag
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    return str(path)


@pytest.mark.parametrize("plan", [
    [],
    [{"kind": "bypass+", "site": "bd"}],
    [{"kind": "1", "p": "bd", "q": "bd"}],
])
def test_verify_equivalence_refuses_a_tag_off_the_generators(capsys, tmp_path, plan):
    """A vertex on the alpha curve, not a crossing: refused with a JSON
    reason before any stage runs, not reported as a disagreement."""
    path = _tagged_file(tmp_path, pieces.build("fix-stab"), ["m"])
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, err = run(capsys, "verify-equivalence", path, "--handles", str(plan_path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "contact tag {m} is not a generator"}


def test_verify_equivalence_refuses_a_tag_off_the_cycles(capsys, tmp_path):
    d = fixtures.punctured_grid(3, 1)
    cx = sfc.differential(d)
    g = next(x for x in cx.basis if oracles.boundary_of(cx, x))
    path = _tagged_file(tmp_path, d, sorted(g))
    code, out, err = run(capsys, "verify-equivalence", path, "--handles",
                         write_plan(tmp_path, []))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"contact tag {modules.format_generator(g)} is not a cycle"}


def test_verify_equivalence_flags_broken_contact_tag(capsys, tmp_path, stab_file, monkeypatch):
    """A cycle tag whose transport leaves the generators is an internal
    fault: the report flags it and the exit code is 2."""
    real = glue.sigma_map
    monkeypatch.setattr(glue, "sigma_map", lambda cur, spec: real(cur, spec)[:2] + ("ghost",))
    plan = write_plan(tmp_path, [glue.HandleSpec("bypass+", site="bd")])
    code, out, err = run(capsys, "verify-equivalence", stab_file, "--handles", plan)
    assert code == 2
    assert out.splitlines()[-2:] == [
        "EH: ERROR transported tag {c,ghost} is not a generator", "NOT EQUIVALENT"
    ]
    assert "not a generator" in json.dumps(json.loads(err)["repro"])


def test_verify_equivalence_rejects_non_list_plans(capsys, tmp_path, stab_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"kind": "1", "p": "bd", "q": "bd"}))
    code, _, err = run(capsys, "verify-equivalence", stab_file,
                       "--handles", str(plan))
    assert code == 1 and "JSON list" in json.loads(err)["error"]


@pytest.mark.parametrize("pool", ["edges", "faces", "alpha_curves", "beta_curves"])
def test_duplicate_ids_refuse_the_document(capsys, tmp_path, pool):
    """A second entry with an id already in its pool would replace the
    first unseen; the document is refused instead."""
    doc = json.loads(surface.serialize(pieces.build("fix-stab")))
    twin = dict(doc[pool][0])
    if pool == "edges":
        twin["kind"] = "seam"
    doc[pool].append(twin)
    bad = tmp_path / "twin.json"
    bad.write_text(json.dumps(doc))
    label = {"edges": "edge", "faces": "face"}.get(pool, pool[:-1].replace("_", " "))
    for verb in ("validate", "homology"):
        code, out, err = run(capsys, verb, str(bad))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"duplicate {label} id {twin['id']}"}


def _mistyped(doc, value):
    if value == "sign":
        for f in doc["faces"]:
            f["boundary"] = [[e, "x" if s == "-" else s] for e, s in f["boundary"]]
    elif value == "suture":
        doc["faces"][0]["suture"] = "no"
    else:
        doc["alpha_curves"][0]["closed"] = "false"


@pytest.mark.parametrize("key", ["fix-stab", "fix-bigonpair"])
@pytest.mark.parametrize("value", ["sign", "suture", "closed"])
def test_malformed_values_refuse_the_document(capsys, tmp_path, key, value):
    """A boundary sign other than "+" or "-", or a suture or closed flag
    that is not a JSON boolean, is refused, not read as -1 or through
    ``bool``."""
    doc = json.loads(surface.serialize(pieces.build(key)))
    _mistyped(doc, value)
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(doc))
    for verb in ("validate", "homology"):
        code, out, err = run(capsys, verb, str(bad))
        assert (code, out) == (1, "")
        reason = json.loads(err)["error"]
        assert reason.startswith("malformed diagram document")
        assert ("signs" if value == "sign" else "booleans") in reason


def _unlisted(doc, case):
    """``doc`` with one list field given as a string or an object, or one
    object (``marks``, ``tags``, the document itself) given as a list."""
    if case == "document":
        return [doc]
    if case in ("edges", "faces", "alpha_curves", "beta_curves", "arc_interfaces"):
        doc[case] = {str(k): x for k, x in enumerate(doc[case])}
    elif case == "boundary":
        doc["faces"][0]["boundary"] = dict(doc["faces"][0]["boundary"])
    elif case == "tags":
        doc["tags"] = []
    elif case.startswith(("interface", "arc-diagram")):
        itf = doc["arc_interfaces"][0]
        owner = itf if case.startswith("interface") else itf["arc_diagram"]
        if case.endswith("intervals"):
            owner["intervals"] = {str(k): iv for k, iv in enumerate(owner["intervals"])}
        else:
            owner["intervals"][1] = "".join(owner["intervals"][1])
    elif case == "vertices-string":
        doc["vertices"] = "".join(doc["vertices"])
    elif case == "vertices-object":
        doc["vertices"] = {v: k for k, v in enumerate(doc["vertices"])}
    elif case == "segments":
        doc["beta_curves"][0]["segments"] = "".join(doc["beta_curves"][0]["segments"])
    elif case == "eh":
        doc["tags"]["eh"] = "".join(doc["tags"]["eh"])
    else:
        doc["tags"]["marks"] = [list(pair) for pair in doc["tags"]["marks"].items()]
    return doc


@pytest.mark.parametrize("case, key, field", [
    ("vertices-string", "fix-stab", "vertices"),
    ("vertices-object", "fix-stab", "vertices"),
    ("segments", "fix-stab", "segments"),
    ("eh", "fix-stab", "eh"),
    ("marks", "rt2", "marks"),
    ("interface-intervals", "rt2", "interface intervals"),
    ("interface-interval", "rt2", "interface intervals"),
    ("arc-diagram-intervals", "rt2", "arc_diagram intervals"),
    ("arc-diagram-interval", "rt2", "arc_diagram intervals"),
    ("edges", "fix-stab", "edges"),
    ("faces", "fix-stab", "faces"),
    ("alpha_curves", "fix-stab", "alpha_curves"),
    ("beta_curves", "fix-stab", "beta_curves"),
    ("arc_interfaces", "fix-stab", "arc_interfaces"),
    ("arc_interfaces", "rt2", "arc_interfaces"),
    ("boundary", "fix-stab", "boundary"),
    ("tags", "fix-stab", "tags"),
    ("document", "fix-stab", "document"),
])
def test_fields_of_the_wrong_json_type_refuse_the_document(capsys, tmp_path, case, key, field):
    """A list field given as a string or an object, or an object (``marks``,
    ``tags``, the document) given as a list, is refused with a reason
    naming the field, not iterated into characters, keys or pairs, nor
    read as empty (fix-stab has no interfaces, so ``arc_interfaces`` is
    an empty object there)."""
    doc = _unlisted(json.loads(surface.serialize(pieces.build(key))), case)
    bad = tmp_path / "unlisted.json"
    bad.write_text(json.dumps(doc))
    for verb in ("validate", "homology"):
        code, out, err = run(capsys, verb, str(bad))
        assert (code, out) == (1, "")
        reason = json.loads(err)["error"]
        assert reason.startswith("malformed diagram document")
        assert f"{field} must be a " in reason


def _cli_stdout(argv, seed):
    """stdout of the CLI run in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    src = str(Path(surface.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "sutured.cli", *argv], env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    """``verify-equivalence`` over bigonpair^3 with a six-step plan, and
    ``validate`` on documents with several problems, print the same
    bytes under two hash seeds: no set order reaches the output."""
    base = fixtures.bigonpair_power(3)
    specs = sequences.shaped_plan(base, ("1", "2", "b", "2", "1", "b"), random.Random(5))
    diagram = tmp_path / "base.json"
    diagram.write_text(surface.serialize(base))
    plan = write_plan(tmp_path, specs)
    flipped = json.loads(surface.serialize(pieces.build("fix-stab")))
    for face in flipped["faces"][:2]:
        face["suture"] = not face["suture"]
    flipped["tags"]["marks"]["ghost"] = "nowhere"
    broken = json.loads(surface.serialize(pieces.build("az2")))
    broken["faces"][0]["boundary"].reverse()
    broken["edges"][1]["kind"] = "ridge"
    runs = [["verify-equivalence", str(diagram), "--handles", plan, "--format", "json"]]
    for name, doc in (("flipped", flipped), ("broken", broken)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs.append(["validate", str(path), "--format", "json"])
    for argv in runs:
        code, out = _cli_stdout(argv, 0)
        assert code == (0 if argv[0] == "verify-equivalence" else 1)
        assert len(json.loads(out)) > 0
        assert (code, out) == _cli_stdout(argv, 1)


# sha256 of ``verify-equivalence --format json`` stdout for two seven-stage
# plans; the reports carry every stage's table ``digest``.
ROUTE_STDOUT_SHA256 = {
    "fix-stab": "59460d5322d15eba0676776510ac25d661596d32574fcdfc58a37b99f3db4864",
    "bigonpair^3": "fc96218efda5d7eb732c7b812602328855ed7f82fe082d481fef0ca0d715dd08",
}


@pytest.mark.parametrize("name,shape", [("fix-stab", ("1", "2", "b", "1", "2")),
                                        ("bigonpair^3", ("2", "1", "b", "2", "b"))])
def test_route_report_stdout_is_pinned(capsys, tmp_path, name, shape):
    """The table digests and the rest of the report reach stdout unchanged."""
    base = fixtures.bigonpair_power(3) if name == "bigonpair^3" else pieces.build(name)
    specs = sequences.shaped_plan(base, shape, random.Random(11))
    assert len(specs) == 7 and {s.kind[0] for s in specs} == {"1", "2", "b"}
    diagram = tmp_path / "base.json"
    diagram.write_text(surface.serialize(base))
    code, out, _ = run(capsys, "verify-equivalence", str(diagram),
                       "--handles", write_plan(tmp_path, specs), "--format", "json")
    assert code == 0
    assert all(len(b["digest"]) == 64 for b in json.loads(out)["stages"])
    assert hashlib.sha256(out.encode()).hexdigest() == ROUTE_STDOUT_SHA256[name]


def test_glue_table_lines_are_pinned(capsys, tmp_path):
    """``glue --format text`` prints each table's rendered lines as they were."""
    d = pieces.build("fix-bigonpair")
    base2, handle = glue.one_handled(d)
    cases = [
        (d, glue.HandleSpec("1", p="ci", q="co"),
         ["{x} -> {x}", "{y} -> {y}", "rank 2"]),
        (base2, glue.two_handle_spec(base2, handle),
         ["{x} -> {L:L:c,L:R:z3,R:w20,R:x}", "{y} -> {L:L:c,L:R:z3,R:w20,R:y}",
          "identity ok on 2 cycles", "stage ranks H3=4 H4=2 H5=2 H6=2"]),
    ]
    for base, spec, lines in cases:
        diagram = tmp_path / "base.json"
        diagram.write_text(surface.serialize(base))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(glue.spec_to_json(spec)))
        code, out, _ = run(capsys, "glue", str(diagram), "--spec", str(spec_file),
                           "--format", "text")
        assert (code, out.splitlines()) == (0, lines)


def test_two_handle_over_distinct_feet_is_refused_by_the_router(capsys, tmp_path):
    """The chord router's reachable refusal reaches the user as exit 1
    with one JSON reason: a 1-handle on fix-bigonpair with its feet on
    two different edges, then the canonical 2-handle spec over it, whose
    paths start in the face at one foot only.  The spec router planned
    in ROADMAP item 7 turns this case into a pass."""
    base, handle = surface.one_handle_parts(pieces.build("fix-bigonpair"), "ci", "co")
    diagram, spec = tmp_path / "base.json", tmp_path / "spec.json"
    diagram.write_text(surface.serialize(base))
    spec.write_text(json.dumps(glue.spec_to_json(glue.two_handle_spec(base, handle))))
    code, out, err = run(capsys, "attach", str(diagram), "--spec", str(spec))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "vertex w12 is not an unambiguous corner ([])"}


# ---------------------------------------------------------------------------
# the cyclic collector's pause


def _command_lines(tmp_path):
    """One command line per verb, text and JSON, over catalog pieces, a
    bigonpair^3 plan and grid(4,1)."""
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    stab, az2, rt2, grid, bp3 = (
        write(f"{key}.json", surface.serialize(d)) for key, d in (
            ("stab", pieces.build("fix-stab")), ("az2", pieces.build("az2")),
            ("rt2", pieces.build("rt2")), ("grid", fixtures.punctured_grid(4, 1)),
            ("bp3", fixtures.bigonpair_power(3))))
    one, two = glue.two_handle_sequence(pieces.build("fix-stab"))
    mid = write("mid.json", surface.serialize(glue.sigma_map(pieces.build("fix-stab"), one)[0]))
    spec1, spec2 = (write(f"spec{k}.json", json.dumps(glue.spec_to_json(s)))
                    for k, s in ((1, one), (2, two)))
    plan = write_plan(tmp_path, sequences.shaped_plan(
        fixtures.bigonpair_power(3), ("1", "2", "b"), random.Random(5)))
    lines = [
        ["validate", grid], ["generators", grid], ["generators", az2],
        ["homology", grid], ["homology", bp3],
        ["attach", stab, "--spec", spec1],
        ["glue", stab, "--spec", spec1],
        ["glue", mid, "--spec", spec2],
        ["algebra", "--arc-diagram", "Z2", "--table"],
        ["bordered", az2, "--kind", "AA", "--sector", "1,1"], ["bordered", rt2, "--kind", "D"],
        ["verify-equivalence", bp3, "--handles", plan],
        ["examples"], ["examples", "disk-h5"],
    ]
    return [argv + fmt for argv in lines for fmt in ([], ["--format", "json"])]


class _Writes(io.StringIO):
    """stdout that records whether the collector was on at each write."""

    def __init__(self):
        super().__init__()
        self.enabled = []

    def write(self, s):
        self.enabled.append(gc.isenabled())
        return super().write(s)


def _made_by_sutured(obj):
    """An instance of a ``sutured`` class, a function from a ``sutured``
    module, or a cell holding either."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return (module or "").split(".")[0] == "sutured"


def test_every_verb_runs_with_the_collector_paused_and_leaves_no_cycles(tmp_path):
    """Every verb writes its output with the collector off, and after
    each command a collection finds nothing made by ``sutured``: the
    library's objects are freed by reference counting alone, which is
    what makes the pause safe."""
    argvs = _command_lines(tmp_path)
    assert {argv[0] for argv in argvs} == {
        "validate", "generators", "homology", "attach", "glue", "algebra",
        "bordered", "verify-equivalence", "examples"}
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)  # keep what a collection finds, to read it
    try:
        for argv in argvs:
            out = _Writes()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0, argv
            assert gc.isenabled()
            assert out.enabled and not any(out.enabled), argv
            gc.collect()
            found = [type(x).__name__ for x in gc.garbage if _made_by_sutured(x)]
            gc.garbage.clear()
            assert found == [], argv
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_callers_collector_state(stab_file, monkeypatch, enabled):
    """``main`` puts the collector back as it found it, on or off, after
    exit codes 0, 1 and 2 and after an exception that escapes it."""
    def failing(error):
        def homology(d):
            raise error
        return homology

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["homology", stab_file]) == 0
        assert gc.isenabled() is enabled
        assert cli.main(["homology", stab_file + ".missing"]) == 1
        assert gc.isenabled() is enabled
        monkeypatch.setattr(sfc, "homology", failing(AssertionError("planted")))
        assert cli.main(["homology", stab_file]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(sfc, "homology", failing(KeyError("planted")))
        with pytest.raises(KeyError):
            cli.main(["homology", stab_file])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
