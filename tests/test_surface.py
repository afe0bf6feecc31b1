"""The public surface is what the README documents: `icmod.__all__` and the CLI."""

import argparse
import ast
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import icmod
from bench import spans
from icmod.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_public_names() -> dict[str, str]:
    """name -> defining module, from the bullets under "### Public names"."""
    section = README.split("### Public names", 1)[1]
    section = re.split(r"^#{1,3} ", section, maxsplit=1, flags=re.M)[0]
    names = {}
    for bullet in re.findall(r"^- (.*?)(?=^- |\Z)", section, flags=re.M | re.S):
        module, *listed = re.findall(r"`(\w+)`", bullet)
        for name in listed:
            assert name not in names, f"{name} is listed twice"
            names[name] = module
    return names


def test_all_is_the_readme_list():
    names = readme_public_names()
    assert set(icmod.__all__) == set(names)
    assert len(icmod.__all__) == len(set(icmod.__all__))
    for name, module in names.items():
        owner = importlib.import_module(module if module == "icmod" else f"icmod.{module}")
        assert getattr(icmod, name) is getattr(owner, name), name


def test_subcommands_are_the_readme_list():
    listed = re.search(r"The subcommands are (.*?`)\.", README, flags=re.S).group(1)
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(re.findall(r"`([\w-]+)`", listed)) == sorted(subparsers.choices)


def traced_owner(target: str) -> tuple[object, str]:
    """'staircase.MonomialIdeal.product' -> (MonomialIdeal, 'product')."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"icmod.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def test_every_traced_target_is_bound():
    # the benchmark's tracer wraps each target by name, so a renamed or
    # deleted target, or the `truncation_margin` it reads, fails here
    originals = {target: getattr(*traced_owner(target)) for target in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        unbound = [t for t in spans.TARGETS if getattr(*traced_owner(t)) is originals[t]]
    finally:
        tracer.uninstall()
    assert unbound == []
    assert all(getattr(*traced_owner(t)) is originals[t] for t in spans.TARGETS)


def test_the_verifier_calls_the_traced_oracles():
    # the verifier looks the module oracles up when it runs, so the tracer,
    # which rebinds them by name, records the spans it reports per layer:
    # mu for both certificates, and the length for the one that checks it
    stair_b = icmod.normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])
    cube = icmod.normalize([(3, 0), (2, 1), (1, 2), (0, 3)])
    certs = [icmod.choose_k(stair_b), icmod.choose_k(cube)]
    assert ("length_refutes_splitting", True) in certs[1].checks
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert all(icmod.verify_certificate(cert) for cert in certs)
    finally:
        tracer.active = False
        tracer.uninstall()
    called = Counter(spans.TARGETS[fid] for fid, *_ in tracer.spans)
    assert (called["oracle.module_min_gens"], called["oracle.module_colength"]) == (2, 1)


def test_oracle_reads_nothing_of_the_graded_counts():
    # the oracle cross-checks the graded counts of `presentation`, so it may
    # take the presentation type and Fitt_0 from there and nothing else
    tree = ast.parse((ROOT / "src" / "icmod" / "oracle.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "presentation":
                taken |= {alias.name for alias in node.names}
            assert "presentation" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all("presentation" not in alias.name for alias in node.names)
    assert taken == {"Presentation2", "finite_fitting0"}


def test_cli_import_loads_no_dataclasses():
    # the value types are tuples: `dataclasses` would pull in `inspect`, `ast`
    # and `dis`, about 1 MB in every process
    code = "import sys, icmod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out == "[]\n"


def test_every_certificate_field_is_in_the_decide_json(capsys):
    # a document carries the whole certificate, so it can be read back: a
    # field the JSON does not carry fails here
    keys = {"ideal": "normalized_input"}
    for argv, closed in ((["(x^2, x*y, y^3)"], False), (["(x^3, y^2)", "--close-first"], True)):
        assert main(["decide", *argv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for field in icmod.Certificate._fields:
            if field == "closed_input":
                assert (field in doc) == closed
            else:
                assert keys.get(field, field) in doc, field
