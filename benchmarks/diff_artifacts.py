"""Diff two directories of experiment metric snapshots.

Usage:  python benchmarks/diff_artifacts.py BASE_DIR HEAD_DIR

Compares every ``*.json`` snapshot that ``run_experiments.py`` wrote
(e.g. with ``--smoke --artifacts-dir DIR``) in the two directories after
dropping wall-clock-derived metrics, with the same canonical form
``tests/test_determinism.py`` uses.  Prints each snapshot that differs or
exists on one side only, with the metrics that changed.  Exits 0 when
every snapshot is identical, 1 on any difference, 2 on bad arguments.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from tests.test_determinism import canonical_bytes, strip_wall_clock  # noqa: E402

#: Changed metrics printed per differing snapshot.
SHOWN = 20


def changed_metrics(base: Path, head: Path) -> list[str]:
    """``section.name: base -> head`` for every metric that differs."""
    a = strip_wall_clock(json.loads(base.read_text()))
    b = strip_wall_clock(json.loads(head.read_text()))
    lines = []
    for section in sorted(set(a) | set(b)):
        old, new = a.get(section, {}), b.get(section, {})
        for name in sorted(set(old) | set(new)):
            if name not in old or name not in new or old[name] != new[name]:
                lines.append(
                    f"{section}.{name}: {old.get(name, '<absent>')} -> "
                    f"{new.get(name, '<absent>')}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (Path(arg) for arg in args)
    names = sorted({p.name for d in (base, head) for p in d.glob("*.json")})
    differing = 0
    for name in names:
        missing = [str(d) for d in (base, head) if not (d / name).is_file()]
        if missing:
            print(f"{name}: missing from {missing[0]}")
        elif canonical_bytes(base / name) != canonical_bytes(head / name):
            changes = changed_metrics(base / name, head / name)
            print(f"{name}: {len(changes)} metric(s) differ")
            for line in changes[:SHOWN]:
                print(f"  {line}")
        else:
            continue
        differing += 1
    print(f"{len(names) - differing} of {len(names)} snapshots identical")
    return 1 if differing or not names else 0


if __name__ == "__main__":
    sys.exit(main())
