"""A fixed corpus of gral commands, each run in process through cli.main.

Each command is one line of words; a word `@name` stands for the fixture
file `name.json` that `write_fixtures` puts in a scratch directory.  A run
is pinned by the sha256 of its exit code, stdout and stderr, with the
scratch directory written as `{dir}`, in golden/corpus.sha256.  A refusal
that argparse words (its stderr opens with `usage:`) pins only its exit
code, stdout and the program prefix of its error line: argparse's usage
and message text change with the Python release and the terminal width.

    PYTHONPATH=src python tests/corpus.py --pin        # re-pin the digests
    PYTHONPATH=src python tests/corpus.py --write DIR  # dump every full run

Re-pinning is how a change names an output change: diff two --write dumps
to see what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from conftest import diamond_chain, table_m2_z2, table_upper_z2, table_z2xz2
from gral import cli
from gral.coeffring import ring_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "corpus.sha256"

# each ring with two coefficients for the elements: a unit and, where the
# ring has one, an element that is not
RINGS = {
    "z2": ({"kind": "mod", "n": 2}, 1, 1),
    "z4": ({"kind": "mod", "n": 4}, 1, 2),
    "z6": ({"kind": "mod", "n": 6}, 5, 3),
    "z2xz3": ({"kind": "product", "factors": [{"kind": "mod", "n": 2},
                                              {"kind": "mod", "n": 3}]}, [1, 2], [0, 1]),
    "m2z2": (ring_spec(table_m2_z2()), 6, 8),  # the swap, and the unit e11
}
TABLE_RINGS = {"z2xz2": ring_spec(table_z2xz2()), "upperz2": ring_spec(table_upper_z2())}
# composite moduli past 1,000, answered part by part
LARGE_RINGS = {"z1001": {"kind": "mod", "n": 1001}, "z30030": {"kind": "mod", "n": 30030}}


def _graph(vertices, edges, x=None):
    out = {"vertices": vertices,
           "edges": [{"name": n, "src": s, "dst": d} for n, s, d in edges]}
    if x is not None:
        out["x"] = x
    return out


GRAPHS = {
    "a1": _graph(["v"], []),
    "vw": _graph(["v", "w"], [("f", "v", "w")]),
    "loop": _graph(["v"], [("e", "v", "v")]),
    "2cycle": _graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")]),
    "rose2": _graph(["v"], [("e", "v", "v"), ("f", "v", "v")]),
    "toeplitz": _graph(["u", "w"], [("e", "u", "u"), ("f", "u", "w")]),
    # relative Cohn specs: X a proper subset of Reg(E)
    "vwc": _graph(["v", "w"], [("f", "v", "w")], []),
    "rose2c": _graph(["v"], [("e", "v", "v"), ("f", "v", "v")], []),
    "toeplitzc": _graph(["u", "w"], [("e", "u", "u"), ("f", "u", "w")], []),
    "2cyclec": _graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")], ["v"]),
    # 2^20 paths from v0 to v20, none of them in M_1
    "chain20": diamond_chain(20),
}


def _path(p):
    return {"vertex": p} if isinstance(p, str) else p


# elements as (coefficient slot, alpha, beta) terms; slot 0 is the unit
ELEMENTS = {
    "rose2": {
        "estar": [(1, "v", ["e"])],
        "mix0": [(0, ["e"], ["f"]), (1, "v", "v")],
        "neg2": [(1, "v", ["f", "e"]), (0, ["e"], ["f", "f", "e"])],
    },
    "toeplitz": {
        "fstar": [(0, "w", ["f"])],
        "neg2": [(1, "w", ["e", "f"]), (0, ["f"], ["e", "e", "f"])],
    },
    "rose2c": {"estar": [(0, "v", ["e"])]},
    "a1": {"v": [(1, "v", "v")]},
}
TWO_E = [{"coeff": 2, "alpha": ["e"], "beta": {"vertex": "v"}}]  # 2.e on rose2

CORNERS = {
    "corner-z6": {"ring": {"kind": "mod", "n": 6}, "e": 1,
                  "alpha": {str(i): i for i in range(6)}},
    "corner-z4": {"ring": {"kind": "mod", "n": 4}, "e": 1,
                  "alpha": {str(i): i for i in range(4)}},
    "corner-swap": {"ring": {"kind": "product", "factors": [{"kind": "mod", "n": 2}] * 2},
                    "e": [1, 1], "alpha": {json.dumps([a, b], separators=(",", ":")): [b, a]
                                           for a in range(2) for b in range(2)}},
}
CORNER_ELEMENTS = {
    "csl-2t": {"terms": [{"degree": 1, "coeff": 2}]},
    "csl-neg": {"terms": [{"degree": -1, "coeff": 3}]},
    "csl-swap": {"terms": [{"degree": -2, "coeff": [1, 0]}]},
}

MAPS = {
    "map-a1-vw": {"vmap": {"v": "v"}, "emap": {}, "sourceX": [], "targetX": ["v"]},
    "map-loop": {"vmap": {"v": "v"}, "emap": {"e": "e"}},
    "map-bad": {"vmap": {"v": "v", "w": "v"}, "emap": {"f": "e"}},
}

# malformed files: each must be refused with one error line
BROKEN = {
    "bad-kind": {"kind": "field", "n": 2},
    "bad-n": {"kind": "mod", "n": "two"},
    "bad-table": {"kind": "table", "size": 2, "zero": 0, "one": 1,
                  "add": [[0, 1]], "mul": [[0, 0], [0, 1]]},
    "bad-edge": {"vertices": ["v"], "edges": [{"name": "e", "src": "v", "dst": "u"}]},
    "bad-x": {"vertices": ["v"], "edges": [], "x": ["v"]},
    "bad-term": [{"coeff": 1, "alpha": ["g"], "beta": {"vertex": "v"}}],
    "bad-range": [{"coeff": 1, "alpha": ["f"], "beta": {"vertex": "v"}}],
    "bad-coeff": [{"coeff": 7, "alpha": {"vertex": "v"}, "beta": {"vertex": "v"}}],
    "bad-corner": {"ring": {"kind": "mod", "n": 4}, "e": 1, "alpha": {"0": 0}},
}


def _element(graph, name, ring):
    _, *coeffs = RINGS[ring]
    return [{"coeff": coeffs[slot], "alpha": _path(a), "beta": _path(b)}
            for slot, a, b in ELEMENTS[graph][name]]


def fixtures() -> dict:
    """{file stem: JSON value} of every file the commands name."""
    files = {name: spec for name, (spec, *_) in RINGS.items()}
    files.update(TABLE_RINGS, **LARGE_RINGS, **GRAPHS, **CORNERS, **CORNER_ELEMENTS, **MAPS,
                 **BROKEN)
    files["rose2-2e"] = TWO_E
    for graph, elements in ELEMENTS.items():
        for name in elements:
            for ring in RINGS:
                files[f"{graph}-{name}-{ring}"] = _element(graph, name, ring)
    return files


def _commands():
    """(command, whether it also runs with --json)"""
    for ring in [*RINGS, *TABLE_RINGS]:
        yield f"check-ring @{ring}", True
    yield "check-ring @z1001", False
    for ring in RINGS:
        both = ring in ("z6", "m2z2")
        for graph, elements in ELEMENTS.items():
            for name in elements:
                yield (f"lpa witness --graph @{graph} --ring @{ring}"
                       f" --element @{graph}-{name}-{ring}"), both
        yield (f"lpa decompose --graph @rose2 --ring @{ring} --element @rose2-mix0-{ring}"
               " --level 2"), both
        for graph in ("toeplitz", "rose2c"):
            yield (f"lpa verdict --graph @{graph} --ring @{ring} --degree-bound 1 --size-bound 1"
                   " --samples 3 --seed 3"), both
        for graph in ("toeplitz", "2cyclec"):
            yield (f"lpa classify --graph @{graph} --ring @{ring}"
                   " --degree-bound 2 --size-bound 2"), both
    yield "lpa witness --graph @rose2 --ring @z30030 --element @rose2-2e", False
    yield "lpa verdict --graph @rose2 --ring @z6 --degree-bound 2 --size-bound 2 --samples 4", False
    yield "lpa verdict --graph @rose2 --ring @z4 --degree-bound 2 --size-bound 2", False
    # a1 has only degree 0; on vw, degrees +-2 and +-3 have no spanning monomial
    for graph in ("a1", "vw"):
        yield f"lpa classify --graph @{graph} --ring @z2 --degree-bound 3 --size-bound 3", False
    yield "lpa classify --graph @vwc --ring @z2 --degree-bound 3 --size-bound 2", False
    yield "lpa classify --graph @toeplitz --ring @z2xz2 --degree-bound 2 --size-bound 2", False
    yield "lpa classify --graph @chain20 --ring @z2 --degree-bound 1 --size-bound 1", True
    for corner in CORNERS:
        yield f"corner witness --corner @{corner} --degree-bound 2", True
    yield "corner witness --corner @corner-z4 --element @csl-2t", True
    yield "corner witness --corner @corner-z6 --element @csl-neg", True
    yield "corner witness --corner @corner-swap --element @csl-swap", True
    for graph in ("rose2c", "toeplitzc", "2cyclec"):
        yield f"graph cover --graph @{graph}", True
    yield "morphism check --source @a1 --target @vw --map @map-a1-vw --ring @z2", True
    yield "morphism check --source @loop --target @loop --map @map-loop --ring @z6", True
    yield "morphism check --source @vw --target @loop --map @map-bad", True
    yield "examples", True
    # refusals: exit 2 with one error line
    for ring in ("bad-kind", "bad-n", "bad-table", "missing"):
        yield f"check-ring @{ring}", False
    yield "lpa witness --graph @bad-edge --ring @z2 --element @rose2-estar-z2", False
    yield "lpa classify --graph @bad-x --ring @z2", False
    for element in ("bad-term", "bad-range", "bad-coeff"):
        yield f"lpa witness --graph @vw --ring @z4 --element @{element}", False
    yield "corner witness --corner @bad-corner", False
    yield "corner witness --corner @corner-z6 --element @csl-neg --size-bound 2", False
    yield "lpa verdict --graph @rose2 --ring @z2 --samples -1", False
    yield "lpa decompose --graph @rose2 --ring @z2 --element @rose2-estar-z2", False
    yield "lpa witness --graph @rose2 --ring @z4 --element @rose2-neg2-z4 --method oracle", False
    yield "lpa frobnicate", False


def commands() -> list:
    """Every command line, with its --json twin where it has one."""
    out = []
    for line, both in _commands():
        out += [line, line + " --json"] if both else [line]
    return out


def write_fixtures(directory: pathlib.Path) -> None:
    for name, value in fixtures().items():
        (directory / f"{name}.json").write_text(json.dumps(value), encoding="utf-8")


def run(line: str, directory: pathlib.Path):
    """(exit code, stdout, stderr) of one command, the directory written
    as {dir}."""
    argv = [str(directory / f"{word[1:]}.json") if word.startswith("@") else word
            for word in line.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, *(s.getvalue().replace(str(directory), "{dir}") for s in (out, err))


def pinned(result) -> tuple:
    """The part of a run that its digest pins."""
    code, out, err = result
    if err.startswith("usage:"):
        err = "".join(line.partition("error:")[0] + "error:\n"
                      for line in err.splitlines() if "error:" in line)
    return code, out, err


def digest(result) -> str:
    return hashlib.sha256(json.dumps(list(pinned(result))).encode("utf-8")).hexdigest()


def contract_breaches(result) -> list:
    """What a run breaks of the exit contract: exit 0, 1 or 2, no traceback,
    and on exit 2 an empty stdout and exactly one error: line."""
    code, out, err = result
    found = []
    if code not in (0, 1, 2):
        found.append(f"exit {code}")
    if "Traceback" in out + err:
        found.append("traceback")
    if code == 2 and (out or sum("error:" in line for line in err.splitlines()) != 1):
        found.append("not one error line")
    return found


def run_all(directory: pathlib.Path) -> dict:
    """{command: (exit code, stdout, stderr)}, the search cap at its default."""
    write_fixtures(directory)
    cap = os.environ.pop("GRAL_SEARCH_CAP", None)
    try:
        return {line: run(line, directory) for line in commands()}
    finally:
        if cap is not None:
            os.environ["GRAL_SEARCH_CAP"] = cap


def read_golden() -> dict:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {line[66:]: line[:64] for line in lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    mode.add_argument("--write", metavar="DIR", help="dump every run into DIR")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(pathlib.Path(tmp))
    if args.pin:
        GOLDEN.write_text("".join(f"{digest(r)}  {line}\n" for line, r in results.items()),
                          encoding="utf-8")
    else:
        out = pathlib.Path(args.write)
        out.mkdir(parents=True, exist_ok=True)
        for i, (line, (code, stdout, stderr)) in enumerate(results.items()):
            (out / f"{i:03d}.txt").write_text(
                f"$ gral {line}\nexit={code}\n--- stdout\n{stdout}--- stderr\n{stderr}",
                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
