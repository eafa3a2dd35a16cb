"""Digests of the seeded command-line output, for byte-identity checks.

Prints one line per command: the command, its exit code, and the first 12
hex digits of the sha256 of its stdout with ``--format text`` and with
``--format structured``.  A demo prints one digest, of its stdout.  The
commands are ``measure``, ``verify`` and ``decompose`` on the three demo
models, the built-in ``verify`` suite at seeds 0, 7 and 13, ``measure``
(also with ``--steps-per-segment 3`` and ``8``) and ``verify`` on the two
``verify_cli``-shaped benchmark models (seeds 1 and 271828, written to a
temporary directory and run there by bare file name), and the seven demos.

Run it in two checkouts and compare the output:

    python3 scripts/cli_digests.py > after.txt

The program is imported from ``src/`` of the checkout holding this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qcontour import cli  # noqa: E402
from perfbench.workloads import VerifyCli, model_document  # noqa: E402

DEMO_MODELS = ("born_qubit", "bundle_2x2", "post_selected_qubit")
BENCH_SEEDS = (1, 271828)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``qcontour ARGV``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_line(argv: list[str]) -> str:
    runs = [run_cli(argv + ["--format", fmt])
            for fmt in ("text", "structured")]
    codes = "/".join(str(code) for code, _ in runs)
    return f"{' '.join(argv)}  exit {codes}  " \
        + " ".join(digest(text) for _, text in runs)


def commands():
    for name in DEMO_MODELS:
        path = f"demos/models/{name}.json"
        yield ["measure", path]
        yield ["verify", path]
    yield ["decompose", "demos/models/bundle_2x2.json"]
    for seed in (0, 7, 13):
        yield ["verify", "--seed", str(seed)]


def bench_commands():
    for seed in BENCH_SEEDS:
        name = f"verify_cli-{seed}.json"
        yield name, seed, ["measure", name]
        for steps in ("3", "8"):
            yield name, seed, ["measure", name, "--steps-per-segment", steps]
        yield name, seed, ["verify", name]


def main() -> int:
    os.chdir(ROOT)
    for argv in commands():
        print(cli_line(argv), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, seed, argv in bench_commands():
            Path(name).write_text(json.dumps(model_document(
                VerifyCli.raw(seed))), encoding="utf-8")
            print(cli_line(argv), flush=True)
        os.chdir(ROOT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in sorted((ROOT / "demos").glob("[0-9]*.py")):
        done = subprocess.run([sys.executable, str(demo.relative_to(ROOT))],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=600)
        print(f"demos/{demo.name}  exit {done.returncode}  "
              f"{digest(done.stdout)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
