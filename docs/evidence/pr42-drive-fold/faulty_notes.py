"""Compare the notes of the seeded faulty drive runs between two trees.

    python docs/evidence/pr42-drive-fold/faulty_notes.py --ref REF

``tests/disk/test_command_machine.py::faulty_run_digest`` hashes, per
run, every completion (instant, outcome, a latency term), the drive
counters, the injector's audit trail and the platter extents and
bytes.  A digest that moves says only *that* something moved.  This
script records the notes that go into each digest, on REF (exported
with ``git archive`` into a temporary directory) and on the working
tree, and compares them note by note: floats are compared after
rounding to 1e-6 ms, every note that still differs is printed in
full, and the largest raw float difference among the others is
reported.  Platter bytes are compared by their sha256.

Run it from the root of the repository.  ``--record`` (used by the
comparison itself) prints one tree's notes as JSON, measured on the
code under the current directory.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Tuple

HERE = os.path.abspath(__file__)


class _Recorder:
    """Stands in for the digest object: keeps every update."""

    def __init__(self) -> None:
        self.updates: List[bytes] = []

    def update(self, data: bytes) -> None:
        self.updates.append(bytes(data))

    def hexdigest(self) -> str:
        return hashlib.sha256(b"".join(self.updates)).hexdigest()


def record() -> Dict[str, Any]:
    """Every pinned run's digest and notes, on the tree under cwd."""
    sys.path[:0] = ["src", "."]
    import tests.disk.test_command_machine as machine

    recorders: List[_Recorder] = []

    class _Hashlib:
        @staticmethod
        def sha256(data: bytes = b"", *rest: Any) -> Any:
            if data:  # a payload digest inside a note
                return hashlib.sha256(data)
            recorders.append(_Recorder())
            return recorders[-1]

    machine.hashlib = _Hashlib  # type: ignore[assignment]
    runs = {}
    for key in sorted(machine.FAULTY_RUN_GOLDEN, key=repr):
        digest = machine.faulty_run_digest(*key)
        notes = []
        for update in recorders[-1].updates:
            try:
                notes.append(["note", repr(ast.literal_eval(update.decode()))])
            except (UnicodeDecodeError, ValueError, SyntaxError):
                notes.append(["platter", hashlib.sha256(update).hexdigest(),
                              len(update)])
        runs[repr(key)] = {"digest": digest,
                           "pinned": machine.FAULTY_RUN_GOLDEN[key],
                           "notes": notes}
    return runs


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (list, tuple)):
        return type(value)(_rounded(item) for item in value)
    return value


def _float_gap(old: Any, new: Any) -> float:
    """Largest |old - new| over the floats at the same place."""
    if isinstance(old, float) and isinstance(new, float):
        return abs(old - new)
    if isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)) \
            and len(old) == len(new):
        return max((_float_gap(a, b) for a, b in zip(old, new)), default=0.0)
    return 0.0


def _tree_notes(root: str) -> Dict[str, Any]:
    out = subprocess.run([sys.executable, HERE, "--record"], cwd=root,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _export(ref: str, root: str) -> None:
    archive = os.path.join(root, "tree.tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "archive", ref], check=True, stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(root)
    os.remove(archive)


def compare(ref: str) -> int:
    with tempfile.TemporaryDirectory(prefix="faulty-notes-") as root:
        _export(ref, root)
        old_runs = _tree_notes(root)
    new_runs = _tree_notes(os.getcwd())
    largest = 0.0
    print(f"REF {ref} vs working tree; floats compared rounded to 1e-6\n")
    for key, old in old_runs.items():
        new = new_runs[key]
        differences: List[Tuple[Any, Any]] = []
        for old_note, new_note in zip(old["notes"], new["notes"]):
            if old_note[0] == new_note[0] == "note":
                before = ast.literal_eval(old_note[1])
                after = ast.literal_eval(new_note[1])
                if _rounded(before) != _rounded(after):
                    differences.append((before, after))
                else:
                    largest = max(largest, _float_gap(before, after))
            elif old_note != new_note:
                differences.append((old_note, new_note))
        print(f"run {key}: digest {old['digest'][:12]} -> "
              f"{new['digest'][:12]} (REF's pin held: "
              f"{old['digest'] == old['pinned']}); notes "
              f"{len(old['notes'])} -> {len(new['notes'])}, "
              f"{len(differences)} differ after rounding")
        for before, after in differences:
            print(f"    REF:  {before}\n    tree: {after}")
    print(f"\nlargest float difference among the notes equal after "
          f"rounding: {largest:.3g} ms")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", help="the commit to compare against")
    parser.add_argument("--record", action="store_true",
                        help="print this tree's notes as JSON")
    args = parser.parse_args()
    if args.record:
        json.dump(record(), sys.stdout)
        return 0
    if not args.ref:
        parser.error("--ref is required")
    return compare(args.ref)


if __name__ == "__main__":
    sys.exit(main())
