"""Write golden_cli.json: sha256 digests of every artifact the cli_artifacts
commands write.

    python3 perfbench/capture_golden.py

Run it only on a commit whose artifacts are known to be right; the benchmark
fails any op whose artifacts stop matching these digests.  The commands run
twice, in two directories, and the digests are written only if both runs
agree byte for byte.
"""

import json
import shutil
import sys

from workloads import (CLI_COMMANDS, GOLDEN, ROOT, SRC, cli_argv,
                       make_ops, run_cli_subprocess, sha256, write_cli_inputs)


def capture(workdir):
    workdir.mkdir(parents=True)
    write_cli_inputs(workdir)
    for op in make_ops("cli_artifacts", 0):
        rc, _ = run_cli_subprocess(cli_argv(op.args[0], workdir), workdir)
        if rc != 0:
            raise SystemExit(f"{op.args[0]} exited with {rc}")
    names = [f for c in CLI_COMMANDS.values() for f in c[2]]
    return {f: sha256(workdir / f) for f in sorted(names)}


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    base = ROOT / ".bench_work" / "golden"
    try:
        first, second = capture(base / "a"), capture(base / "b")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    if first != second:
        raise SystemExit("artifacts differ between two runs; not writing digests")
    GOLDEN.write_text(json.dumps(first, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(first)} digests to {GOLDEN}")
