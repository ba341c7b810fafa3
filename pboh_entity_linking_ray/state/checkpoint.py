"""Per-stage Parquet checkpoints + lineage manifests (resume-after-failure).

The reference has no inference-time checkpointing (SURVEY.md §4.1 —
training dumps weights every 20 rounds only); the north_rule requires
every stage checkpointed as Parquet with per-partition lineage and
byte-identical resume.  Layout:

    {root}/stage={name}/part-*.parquet      (atomic: tmp dir + rename)
    {root}/manifest/{name}.json             (written last, atomically)

A stage whose manifest exists is skipped on re-run and its Parquet is
read back instead — the resume contract tested by tests/test_resume.py.
The manifest carries row count, per-file partition lineage and optional
stage metrics (pair counts, score histogram — the analog of the
reference's diagnostic histograms, eval/cweb/GlobalCountersCWEB.scala:102-134).
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import contextlib
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Iterator
from typing import Any

import pyarrow.parquet as pq
import ray.data


@contextlib.contextmanager
def private_build(final: str,
                  complete: Callable[[], bool] = lambda: False
                  ) -> Iterator[str]:
    """Yield a private temp dir beside ``final`` to build into, then
    rename it into place: two writers never fill or delete each other's
    in-flight build, and readers see all of ``final`` or none of it.
    If the body raises, the temp dir is removed.  If ``complete()``
    holds once the build is done (a complete output appeared
    meanwhile), that output is kept and this build is dropped."""
    parent = os.path.dirname(final) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent, prefix=os.path.basename(final) + ".")
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if complete():
        shutil.rmtree(tmp, ignore_errors=True)
        return
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)


class StageRunner:
    def __init__(self, root: str | None):
        self.root = root
        if root:
            os.makedirs(os.path.join(root, "manifest"), exist_ok=True)

    def manifest_path(self, name: str) -> str:
        assert self.root
        return os.path.join(self.root, "manifest", f"{name}.json")

    def stage_dir(self, name: str) -> str:
        assert self.root
        return os.path.join(self.root, f"stage={name}")

    def is_complete(self, name: str) -> bool:
        return bool(self.root) and os.path.exists(self.manifest_path(name))

    def read_manifest(self, name: str) -> dict[str, Any]:
        with open(self.manifest_path(name)) as f:
            return json.load(f)

    @staticmethod
    def _read(out_dir: str) -> ray.data.Dataset:
        # no hive partitioning: the ``stage=<name>`` directory name is a
        # layout detail, not a column of the stage's output
        return read_parquet_clean(out_dir, partitioning=None)

    def run(
        self,
        name: str,
        fn: Callable[[], ray.data.Dataset],
        metrics: dict[str, Any] | None = None,
    ) -> ray.data.Dataset:
        """Execute (or resume) one stage.  ``fn`` builds the lazy Dataset;
        with a checkpoint root it is consumed by ``write_parquet`` (the
        streaming sink) and read back, otherwise returned lazily."""
        if not self.root:
            return fn()
        out_dir = self.stage_dir(name)
        if self.is_complete(name):
            return self._read(out_dir)

        with private_build(out_dir) as tmp:
            fn().write_parquet(tmp)

        partitions = []
        total = 0
        for f in sorted(os.listdir(out_dir)):
            if not f.endswith(".parquet"):
                continue
            md = pq.read_metadata(os.path.join(out_dir, f))
            partitions.append({"file": f, "rows": md.num_rows})
            total += md.num_rows
        manifest = {
            "stage": name,
            "row_count": total,
            "partitions": partitions,
            "metrics": metrics or {},
        }
        mp = self.manifest_path(name)
        with open(mp + ".tmp", "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(mp + ".tmp", mp)
        return self._read(out_dir)

    def add_metrics(self, name: str, extra: dict[str, Any]) -> None:
        if not self.root or not self.is_complete(name):
            return
        m = self.read_manifest(name)
        m["metrics"].update(extra)
        mp = self.manifest_path(name)
        with open(mp + ".tmp", "w") as f:
            json.dump(m, f, indent=1)
        os.replace(mp + ".tmp", mp)
