"""What every command of the traffic script prints and writes.

For each CLI invocation of `test_traffic._traffic`, keyed by its order:
the argv, the exit code, stdout, stderr, the warnings raised, and the
sha256 of every file it wrote. The temporary root and the timestamps of
run directory names are rewritten, in paths and in every text file, and
the leaves of `manifest.json`'s `environment` block (numpy and BLAS
versions, thread variables, CPU count) are blanked, so that another
machine reads the same digests.

    python tests/traffic_digests.py > digests.json

prints them as JSON. `tests/fixtures/traffic_digests.json` holds the
recorded ones, and `test_traffic.test_every_command_writes_the_recorded_
outputs` runs this script under `variant_digests.PINNED_ENV` and
compares. A change that moves an output records them again and says in
CHANGES.md which output moved and why. Like `variant_digests.py`, it
prints nothing and exits 1 outside PINNED_ENV, naming each pin that is
unset or different.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from nliexpl import cli

# a run directory's name: its start time, the seed, and a suffix when
# another run of the same second took the name
STAMP = re.compile(r"\d{8}-\d{6}-seed(\d+)(?:\.\d+)?")


def _files(root: Path) -> dict:
    """path -> (mtime, size) of every file under `root`."""
    found = {}
    for p in root.rglob("*"):
        if p.is_file():
            stat = p.stat()
            found[p] = (stat.st_mtime_ns, stat.st_size)
    return found


class Recorder:
    """The recorded run's runner (`_traffic`'s `run`): runs `nliexpl
    argv` and appends what it printed and wrote to `entries`."""

    def __init__(self, root: Path):
        self.root = root
        self.entries: dict[str, dict] = {}

    def _rewrite(self, text: str) -> str:
        return STAMP.sub(r"<stamp>-seed\1", text.replace(str(self.root), "<tmp>"))

    def _digest(self, path: Path) -> str:
        data = path.read_bytes()
        try:
            text = self._rewrite(data.decode("utf-8"))
        except UnicodeDecodeError:   # params.bin
            return hashlib.sha256(data).hexdigest()
        if path.name == "manifest.json" and "environment" in (
                manifest := json.loads(text)):
            env = manifest["environment"]
            manifest["environment"] = {
                k: {kk: "<machine>" for kk in v} if isinstance(v, dict)
                else "<machine>" for k, v in env.items()}
            text = json.dumps(manifest, indent=1)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __call__(self, argv, code=0):
        argv = [str(a) for a in argv]
        before = _files(self.root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(sys, "argv", ["nliexpl", *argv]):
            warnings.simplefilter("always")
            got = cli.main()   # as the console script calls it
        written = [p for p, stat in _files(self.root).items()
                   if before.get(p) != stat]
        self.entries[f"{len(self.entries):02d}"] = {
            "argv": [self._rewrite(a) for a in argv],
            "exit": got,
            "stdout": self._rewrite(out.getvalue()),
            "stderr": self._rewrite(err.getvalue()),
            "warnings": list(dict.fromkeys(
                f"{w.category.__name__}: {w.message}" for w in caught)),
            "files": {self._rewrite(str(p.relative_to(self.root))): self._digest(p)
                      for p in sorted(written)},
        }


def traffic_digests() -> dict:
    import pytest

    from test_traffic import _traffic

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        run = Recorder(Path(tmp))
        _traffic(Path(tmp), monkeypatch, run)
    return run.entries


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from variant_digests import refuse_unpinned
    refuse_unpinned()
    json.dump(traffic_digests(), sys.stdout, indent=1)
    print()
