"""Digests of the seeded command-line output, for byte-identity checks.

Prints one line per command: the command, its exit codes, and the first
12 hex digits of the sha256 of its stdout (``out``) and of its stderr
(``err``), each with ``--format text`` and with ``--format structured``.
A demo prints one digest of each stream.  The commands are ``measure``,
``verify`` and ``decompose`` on the three demo models, ``propagate`` on
each demo model over one forward and one backward interval, the built-in
``verify`` suite at seeds 0, 7 and 13 and at the refused seeds -1 and
-2, ``measure`` (also with
``--steps-per-segment 3`` and ``8``) and ``verify`` on the two
``verify_cli``-shaped benchmark models (seeds 1 and 271828), ``verify``
on the seed-1 model with ``--trials`` 1, 65535, 65536, 65537 and 250000
(``TRIAL_COUNTS``: one draw, both sides of 2**16 and one count above the
default 100000; the counts are one multinomial draw whatever the trial
count, and these five keep the lines comparable), ``verify`` on
two post-selected models (``POST_SELECTED_MODELS``: a d=8, N_t=4 model
pinned at both ends, and a qubit pinned at its first and at a middle grid
time), ``verify`` on two qubit models whose first time is free
(``FREE_FIRST_MODELS``: one pinned only at its last time, pure
retrodiction, and one with no pin), ``measure`` (also with ``--steps-per-segment 2``) on the two
``family_large``-shaped benchmark models (d=8, N_t=5, 4096 histories;
seeds 1 and 271828),
``decompose`` and ``measure`` (also with ``--steps-per-segment 2``) on
``bundle_2x2`` with its pivot 9e-13 after its grid time, and ``verify``
on the seed-1 ``verify_cli`` model with its first pin 9e-13 after its
grid time (both inside the time matcher's tolerance: every route,
``verify``'s transfer chain and collapse chain included, carries a pin
from its own time), the seven demos, ``measure`` and ``verify`` on five malformed
models (``ERROR_MODELS``: coincident grid times, a non-increasing grid,
an off-grid constraint, a qutrit constraint state on a qubit model, a
constraint state entry of 1e300, whose squared norm overflows), whose
lines digest the error message and exit code, and, last, ``envariance``
of the swap on A for each state in ``STATE_FILES`` (an equal-amplitude
pair, a lopsided pair, a state file missing its amplitudes, which exits
2, and two that exit 3: two amplitudes for a 2 x 2 pair, and ``dim_a``
0), and, appended after them so that earlier lines keep their places,
``measure --steps-per-segment 3`` and ``verify`` on the seed-1
``verify_cli`` model with each Hamiltonian segment cut at 0.37 of its
length (``cut_segments``: each piece keeps its segment's generator, so
contour sub-steps straddle the cuts and join two exponentials), and
``propagate`` over the whole grid forward and from its last time back to
its second, ``measure --steps-per-segment 3`` and ``verify`` on the
seed-1 ``verify_cli`` model with its ``hamiltonian`` list reversed in the
file (``reversed_commands``: the schedule sorts its segments, so each
sorted segment must keep its own generator and eigendecomposition).  The
benchmark models, the off-grid bundle and model, the malformed
models and the envariance inputs are written to a temporary directory and run there
by bare file name.  Each command shows its own warnings, also one that
an earlier command in the same process showed.

Run it in two checkouts and compare the output:

    python3 scripts/cli_digests.py > after.txt

or let it compare against a git revision of this repository:

    python3 scripts/cli_digests.py --against REF

which extracts REF with ``git archive`` into a temporary directory, runs
this script's command list there on REF's ``src/``, demos and models,
prints each pair of lines that differ (``-`` REF, ``+`` this checkout) and
exits 1 if any line differs.

The program is imported from ``src/`` of the checkout holding this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qcontour import cli  # noqa: E402
from perfbench.workloads import (FamilyLarge, VerifyCli,  # noqa: E402
                                 model_document, raw_model)

DEMO_MODELS = ("born_qubit", "bundle_2x2", "post_selected_qubit")
BENCH_SEEDS = (1, 271828)
#: Monte Carlo trial counts: one draw, both sides of 2**16, and one count
#: above the default 100000
TRIAL_COUNTS = (1, 65535, 65536, 65537, 250000)
_E0, _E1 = [[1, 0], [0, 0]], [[0, 0], [1, 0]]


def _qubit_model(grid, constraints):
    """A qubit model over ``grid`` with the X generator on [0, 2] and the
    given (time, state) constraints."""
    return {"dim": 2, "grid": grid,
            "hamiltonian": [{"t_start": 0.0, "t_end": 2.0,
                             "matrix": [_E1, _E0]}],
            "constraints": [{"time": t, "state": state}
                            for t, state in constraints]}


#: malformed models by file name: each error path's message and exit code
ERROR_MODELS = {
    "coincident-grid.json": _qubit_model(
        [0.0, 1.0, 1.0 + 1e-13], [(0.0, _E0), (1.0 + 1e-13, _E1)]),
    "non-increasing-grid.json": _qubit_model([0.0, 1.5, 1.0], [(0.0, _E0)]),
    "off-grid-constraint.json": _qubit_model([0.0, 1.0], [(0.5, _E0)]),
    "qutrit-constraint.json": _qubit_model([0.0, 1.0],
                                           [(0.0, [*_E0, [0, 0]])]),
    "overflow-constraint.json": _qubit_model([0.0, 1.0],
                                             [(0.0, [[1e300, 0], [0, 0]])]),
}

#: post-selected models, one per file: d=8 pinned at both ends, and a
#: qubit pinned at its first and at a middle grid time
POST_SELECTED_MODELS = (
    {"post_selected-d8.json": model_document(raw_model(1, 2, 8, 4, 2))},
    {"middle-pin-qubit.json": _qubit_model(
        [0.0, 0.5, 1.0, 1.5], [(0.0, _E0), (1.0, _E1)])},
)

#: models whose first time is free, one per file: a qubit pinned only at
#: its last time, and one with no pin
FREE_FIRST_MODELS = (
    {"last-pin-qubit.json": _qubit_model([0.0, 0.5, 1.0, 1.5],
                                         [(1.5, _E1)])},
    {"unpinned-qubit.json": _qubit_model([0.0, 0.5, 1.0], [])},
)

#: the X (swap) transformation on A, for the envariance commands
SWAP_FILE = {"swap.json": {"matrix": [_E1, _E0]}}


def _pair_state(a, b):
    """The two-qubit state a|00> + b|11>, as a state file."""
    return {"dim_a": 2, "dim_b": 2,
            "amplitudes": [[a, 0], [0, 0], [0, 0], [b, 0]]}


#: envariance states by file name
STATE_FILES = {
    "equal-pair.json": _pair_state(math.sqrt(0.5), math.sqrt(0.5)),
    "lopsided-pair.json": _pair_state(math.sqrt(0.8), math.sqrt(0.2)),
    "missing-amplitudes.json": {"dim_a": 2, "dim_b": 2},
    "short-amplitudes.json": {"dim_a": 2, "dim_b": 2,
                              "amplitudes": _E0},
    "zero-dim-a.json": {"dim_a": 0, "dim_b": 2, "amplitudes": _E0},
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``qcontour ARGV``, run in this
    process.

    Python shows a warning once per code location, so a warning that an
    earlier command showed would be missing from this command's stderr.
    ``catch_warnings`` keeps the active filters (under
    ``PYTHONWARNINGS=error::RuntimeWarning`` a warning still raises) and
    marks them changed, which empties every once-per-location registry,
    so each command shows its own warnings.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_line(argv: list[str]) -> str:
    runs = [run_cli(argv + ["--format", fmt])
            for fmt in ("text", "structured")]
    codes = "/".join(str(code) for code, _, _ in runs)
    return f"{' '.join(argv)}  exit {codes}" \
        f"  out {' '.join(digest(out) for _, out, _ in runs)}" \
        f"  err {' '.join(digest(err) for _, _, err in runs)}"


def commands():
    for command in ("measure", "verify", "decompose"):
        for name in DEMO_MODELS:
            yield [command, f"demos/models/{name}.json"]
    for name in DEMO_MODELS:
        path = f"demos/models/{name}.json"
        grid = [repr(float(t)) for t in json.loads(
            Path(path).read_text(encoding="utf-8"))["grid"]]
        yield ["propagate", path, grid[0], grid[1]]
        yield ["propagate", path, grid[-1], grid[0]]
    for seed in (0, 7, 13, -1, -2):
        yield ["verify", "--seed", str(seed)]


def bench_commands():
    """(input files by name, argv) of each command on a model that is
    written to the temporary directory."""
    for seed in BENCH_SEEDS:
        name = f"verify_cli-{seed}.json"
        files = {name: model_document(VerifyCli.raw(seed))}
        yield files, ["measure", name]
        for steps in ("3", "8"):
            yield files, ["measure", name, "--steps-per-segment", steps]
        yield files, ["verify", name]
    files = {"verify_cli-1.json": model_document(VerifyCli.raw(1))}
    for trials in TRIAL_COUNTS:
        yield files, ["verify", "verify_cli-1.json", "--trials", str(trials)]
    for files in POST_SELECTED_MODELS + FREE_FIRST_MODELS:
        yield files, ["verify", *files]
    for seed in BENCH_SEEDS:
        name = f"family_large-{seed}.json"
        files = {name: model_document(FamilyLarge.raw(seed))}
        yield files, ["measure", name]
        yield files, ["measure", name, "--steps-per-segment", "2"]
    bundle = json.loads((ROOT / "demos/models/bundle_2x2.json").read_text(
        encoding="utf-8"))
    bundle["constraints"][0]["time"] += 9e-13
    files = {"bundle_2x2-off-grid.json": bundle}
    yield files, ["decompose", *files]
    yield files, ["measure", *files]
    yield files, ["measure", *files, "--steps-per-segment", "2"]
    pinned = model_document(VerifyCli.raw(1))
    pinned["constraints"][0]["time"] += 9e-13
    files = {"verify_cli-1-off-grid.json": pinned}
    yield files, ["verify", *files]


def error_commands():
    for name, doc in ERROR_MODELS.items():
        for command in ("measure", "verify"):
            yield {name: doc}, [command, name]


def envariance_commands():
    for name, doc in STATE_FILES.items():
        yield {name: doc, **SWAP_FILE}, ["envariance", name, *SWAP_FILE]


def cut_segments(doc):
    """``doc`` with each Hamiltonian segment cut at 0.37 of its length,
    off every sub-step tick of 3 or 8 sub-steps; both pieces keep the
    segment's generator."""
    pieces = []
    for seg in doc["hamiltonian"]:
        cut = seg["t_start"] + 0.37 * (seg["t_end"] - seg["t_start"])
        pieces += [dict(seg, t_end=cut), dict(seg, t_start=cut)]
    return dict(doc, hamiltonian=pieces)


def cut_commands():
    files = {"verify_cli-1-cut.json": cut_segments(
        model_document(VerifyCli.raw(1)))}
    yield files, ["measure", *files, "--steps-per-segment", "3"]
    yield files, ["verify", *files]


def reversed_commands():
    doc = model_document(VerifyCli.raw(1))
    name = "verify_cli-1-reversed.json"
    files = {name: dict(doc, hamiltonian=doc["hamiltonian"][::-1])}
    grid = [repr(float(t)) for t in doc["grid"]]
    yield files, ["propagate", name, grid[0], grid[-1]]
    yield files, ["propagate", name, grid[-1], grid[1]]
    yield files, ["measure", name, "--steps-per-segment", "3"]
    yield files, ["verify", name]


def temp_lines(commands):
    """``cli_line`` of each command, run in a temporary directory holding
    its input files, each written as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for files, argv in commands:
            for name, doc in files.items():
                Path(name).write_text(json.dumps(doc), encoding="utf-8")
            yield cli_line(argv)
        os.chdir(ROOT)


def digest_lines():
    """One line per command, as described above."""
    os.chdir(ROOT)
    for argv in commands():
        yield cli_line(argv)
    yield from temp_lines(bench_commands())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in sorted((ROOT / "demos").glob("[0-9]*.py")):
        done = subprocess.run([sys.executable, str(demo.relative_to(ROOT))],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=600)
        yield f"demos/{demo.name}  exit {done.returncode}" \
            f"  out {digest(done.stdout)}  err {digest(done.stderr)}"
    yield from temp_lines(error_commands())
    yield from temp_lines(envariance_commands())
    yield from temp_lines(cut_commands())
    yield from temp_lines(reversed_commands())


def lines_at(ref: str) -> list[str]:
    """The digest lines of this script's command list, run at ``ref``."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                 stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout,
                       check=True)
        script = Path(tree) / "scripts" / Path(__file__).name
        shutil.copy(__file__, script)
        done = subprocess.run([sys.executable, str(script)], cwd=tree,
                              stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REF",
                        help="print the lines that differ from those at "
                             "git revision REF; exit 1 if any does")
    args = parser.parse_args()
    if args.against is None:
        for line in digest_lines():
            print(line, flush=True)
        return 0
    theirs = lines_at(args.against)
    ours = list(digest_lines())
    differ = [(a, b) for a, b in itertools.zip_longest(theirs, ours,
                                                       fillvalue="")
              if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    print(f"{len(differ)} of {len(ours)} lines differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
