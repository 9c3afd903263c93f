"""Replay the golden CLI corpus and, with ``--accept``, re-record it.

    python tests/golden/regen.py            # report moved cases, write nothing
    python tests/golden/regen.py --accept   # rewrite moved files and MANIFEST.tsv

Every case in ``MANIFEST.tsv`` runs in-process against the checkout's
``src`` on freshly built fixtures, exactly as ``tests/test_golden.py``
runs it. A case moves when its exit code or output differs from the
record; each moved case is printed with its old and new exit code and
SHA-256, with or without ``--accept``. Without ``--accept`` the script
exits 1 when a case moved. To add a case, append a manifest line with
``-`` as its digest and run with ``--accept``.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from test_golden import (  # noqa: E402
    GOLDEN,
    MANIFEST,
    SEED_ENV_VAR,
    golden_name,
    read_manifest,
    run_argv,
    split_command,
    write_fixtures,
)


def replay(directory: Path) -> list[tuple[int, bytes, str]]:
    """(exit code, output, command) of every manifest case, run in ``directory``."""
    results = []
    cwd, env = os.getcwd(), os.environ.pop(SEED_ENV_VAR, None)
    os.chdir(directory)
    try:
        for _, _, command in read_manifest():
            argv, seed_env = split_command(command)
            if seed_env is not None:
                os.environ[SEED_ENV_VAR] = seed_env
            code, output = run_argv(argv, directory)
            os.environ.pop(SEED_ENV_VAR, None)
            results.append((code, output, command))
    finally:
        os.chdir(cwd)
        if env is not None:
            os.environ[SEED_ENV_VAR] = env
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accept", action="store_true",
                        help="rewrite the moved golden files and the manifest")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        results = replay(Path(tmp))
    moved = 0
    for (old_code, old_digest, command), (code, output, _) in zip(read_manifest(), results):
        path = GOLDEN / golden_name(command)
        digest = hashlib.sha256(output).hexdigest()
        same_file = path.exists() and path.read_bytes() == output
        if (code, digest) == (old_code, old_digest) and same_file:
            continue
        moved += 1
        print(f"moved: {command}\n  exit {old_code} -> {code}\n"
              f"  sha256 {old_digest} -> {digest}\n  file {path.name}")
        if args.accept:
            path.write_bytes(output)
    if args.accept and moved:
        lines = ["exit\tsha256\tcommand"] + [
            f"{code}\t{hashlib.sha256(output).hexdigest()}\t{command}"
            for code, output, command in results]
        MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(results)} cases, {moved} moved" + (", re-recorded" if args.accept and moved else ""))
    return 1 if moved and not args.accept else 0


if __name__ == "__main__":
    sys.exit(main())
