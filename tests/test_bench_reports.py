"""Every benchmark query still prints the reports it printed before.

bench/workloads.py builds the corpora of the three benchmark workloads
from a seed.  This test builds them for seeds 1 and 7919, runs every
query through cli.main in-process and hashes, in corpus order, the
argv, exit code, stdout and stderr of each, with the corpus directory
replaced by a fixed token.  The digests were recorded at commit 62cdc9c;
a change that alters any report byte of any of the 856 queries fails
here, and the failure names the workload and the seed.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from gq3 import cli

ROOT = Path(__file__).resolve().parent.parent
TOKEN = "<corpus>"

DIGESTS = {
    ("groups", 1):
        "438684a7c293b44dd8eca69ade87404a5dee440c4d09e958d82aee8046fd1f63",
    ("certificates", 1):
        "ff73d025688d897129364bfb6f780da5c62fe0df51a3e4150c25cad55d95097a",
    ("milnor", 1):
        "94f7d0e871e9a92e6044310fb160891237dc58eeb0f8736b520fa7a8773f6fdc",
    ("groups", 7919):
        "2bc964f6204d98a3c1a9609c4b41f02010d08f8f702843939f22437dc5f642c9",
    ("certificates", 7919):
        "6fd793d712108bdf65e99e35874266290418a0c029bd3494bd1dcfe410ffc294",
    ("milnor", 7919):
        "452357cab5070fc122f802e51fba40f28555f24ac048c2f1474258f11049667a",
}


def _load_workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def corpus_digest(workloads, workload: str, seed: int, workdir: Path) -> str:
    workdir.mkdir()
    corpus = workloads.build(workload, seed, str(workdir))
    for path, text in corpus.files.items():
        Path(path).write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    for query in corpus.queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
        record = (query.argv, code, out.getvalue(), err.getvalue())
        digest.update(repr(record).replace(str(workdir), TOKEN).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload, seed", list(DIGESTS))
def test_bench_reports_are_unchanged(workload, seed, tmp_path):
    workloads = _load_workloads_module()
    got = corpus_digest(workloads, workload, seed, tmp_path / f"{workload}_{seed}")
    assert got == DIGESTS[workload, seed], f"{workload} seed {seed}: reports changed"
