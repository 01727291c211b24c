"""Machine-readable experiment export: schema-versioned JSON documents.

Every experiment the CLI (or a script) runs can be serialized to a
single JSON document with three sections:

* ``experiment`` — the :class:`~repro.validation.reporting.ExperimentResult`
  itself (id, title, columns, rows, notes);
* ``manifest`` — a :class:`RunManifest`: everything needed to tell
  whether two runs are comparable — package version, Python version,
  git SHA, the architecture fingerprints / workloads / modes / seeds the
  grid covered, the calibration schema, and the CLI knobs;
* ``telemetry`` — the volatile counters from the PR-1 runner summary
  (wall times, job count, events, calibration cache hits/misses).

Determinism contract: the ``experiment`` and ``manifest`` sections are
**byte-identical for any ``--jobs`` value** (the runner's guarantee
carried into the export); ``telemetry`` is the one legitimately volatile
section.  The manifest's ``content_digest`` is a SHA-256 over the
canonical form (everything except telemetry), so two exports are
comparable by a single field: equal digest ⇔ identical results and
provenance, whatever machine load or parallelism produced them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro import __version__ as package_version
from repro.errors import ValidationError
from repro.hw.arch import arch_by_name
from repro.quartz.calibration import CALIBRATION_CACHE_SCHEMA, arch_fingerprint
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunnerStats

#: Schema identity of the export document.
EXPORT_SCHEMA = "quartz-repro/experiment"
#: Bump when the document layout changes incompatibly.
EXPORT_SCHEMA_VERSION = 1


def git_sha() -> Optional[str]:
    """The current checkout's commit SHA, or ``None`` outside a repo."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    if completed.returncode != 0 or not sha:
        return None
    return sha


@dataclass(frozen=True)
class RunManifest:
    """Provenance attached to every exported experiment.

    Two runs with equal manifests (ignoring ``content_digest``, which
    additionally covers the result rows) were produced by the same code,
    on the same simulated testbeds, from the same seeds — so any
    difference in their rows is a real behaviour change.
    """

    package_version: str
    python_version: str
    git_sha: Optional[str]
    #: arch name -> :func:`~repro.quartz.calibration.arch_fingerprint`.
    archs: dict = field(default_factory=dict)
    workloads: tuple = ()
    modes: tuple = ()
    seeds: tuple = ()
    calibration_seeds: tuple = ()
    calibration_schema: int = CALIBRATION_CACHE_SCHEMA
    #: The CLI/config knobs of the invocation (experiment id, --arch,
    #: --trials, ...).  Volatile knobs (``--jobs``) belong in telemetry.
    knobs: dict = field(default_factory=dict)
    #: The :meth:`~repro.faults.plan.FaultPlan.to_dict` of a faulted
    #: invocation (None for clean runs).  Digest-covered, so a faulted
    #: export can never pass for a clean one.
    faults: Optional[dict] = None
    #: The :meth:`~repro.pmem.crash.CrashPlan.to_dict` of a crash-checked
    #: invocation (None otherwise).  Digest-covered for the same reason:
    #: the crash-point plan is part of what the results mean.
    crash: Optional[dict] = None
    #: The :meth:`~repro.explore.ExplorePlan.to_dict` of a model-checking
    #: invocation (None otherwise).  Digest-covered: pruning and budget
    #: settings decide what "explored exhaustively" means.
    explore: Optional[dict] = None
    #: The service scenario of a KV-service invocation (None otherwise):
    #: trace/cache/client configuration, via
    #: :meth:`~repro.service.kvservice.ServiceConfig.to_dict`.
    #: Digest-covered — the offered load is part of what tails mean.
    service: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "package_version": self.package_version,
            "python_version": self.python_version,
            "git_sha": self.git_sha,
            "archs": dict(sorted(self.archs.items())),
            "workloads": list(self.workloads),
            "modes": list(self.modes),
            "seeds": list(self.seeds),
            "calibration_seeds": list(self.calibration_seeds),
            "calibration_schema": self.calibration_schema,
            "knobs": dict(self.knobs),
            **_sections(vars(self)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        try:
            return cls(
                package_version=str(payload["package_version"]),
                python_version=str(payload["python_version"]),
                git_sha=payload.get("git_sha"),
                archs=dict(payload.get("archs", {})),
                workloads=tuple(payload.get("workloads", ())),
                modes=tuple(payload.get("modes", ())),
                seeds=tuple(payload.get("seeds", ())),
                calibration_seeds=tuple(payload.get("calibration_seeds", ())),
                calibration_schema=int(
                    payload.get("calibration_schema", CALIBRATION_CACHE_SCHEMA)
                ),
                knobs=dict(payload.get("knobs", {})),
                **_sections(payload),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(f"malformed manifest payload: {error}")


#: The optional, digest-covered manifest sections (see RunManifest).
MANIFEST_SECTIONS = ("faults", "crash", "explore", "service")


def _sections(source: dict) -> dict:
    """Copy every manifest section out of *source* (None when absent)."""
    return {
        name: dict(source[name]) if source.get(name) is not None else None
        for name in MANIFEST_SECTIONS
    }


def build_manifest(
    stats: Optional[RunnerStats] = None,
    knobs: Optional[dict] = None,
    **sections: Optional[dict],
) -> RunManifest:
    """Assemble a manifest from a driver invocation's runner stats.

    ``stats`` is the :func:`~repro.validation.runner.consume_run_stats`
    aggregate (its provenance sets are deterministic for any job count);
    ``knobs`` records the invocation's configuration flags; ``sections``
    fills the optional :data:`MANIFEST_SECTIONS`: ``faults`` the active
    :meth:`~repro.faults.plan.FaultPlan.to_dict`, ``crash`` the
    :meth:`~repro.pmem.crash.CrashPlan.to_dict` of a crash-checked
    invocation, ``explore`` the :meth:`~repro.explore.ExplorePlan.to_dict`
    of a model-checking one, ``service`` the scenario dict of a
    KV-service one.
    """
    unknown = set(sections) - set(MANIFEST_SECTIONS)
    if unknown:
        raise TypeError(f"unknown manifest section(s): {sorted(unknown)}")
    archs: dict = {}
    workloads: tuple = ()
    modes: tuple = ()
    seeds: tuple = ()
    calibration_seeds: tuple = ()
    if stats is not None:
        archs = {
            name: arch_fingerprint(arch_by_name(name))
            for name in sorted(stats.arch_names)
        }
        workloads = tuple(sorted(stats.workloads))
        modes = tuple(sorted(stats.modes))
        seeds = tuple(sorted(stats.seeds))
        calibration_seeds = tuple(sorted(stats.calibration_seeds))
    return RunManifest(
        package_version=package_version,
        python_version=platform.python_version(),
        git_sha=git_sha(),
        archs=archs,
        workloads=workloads,
        modes=modes,
        seeds=seeds,
        calibration_seeds=calibration_seeds,
        knobs=dict(knobs or {}),
        **_sections(sections),
    )


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------


def canonical_document(document: dict) -> dict:
    """The digest-covered portion: everything except ``telemetry``.

    The manifest's ``content_digest`` field (absent until
    :func:`build_document` stamps it) is also excluded, so the digest
    can be recomputed from a finished document.
    """
    canonical = {
        key: value for key, value in document.items() if key != "telemetry"
    }
    manifest = canonical.get("manifest")
    if isinstance(manifest, dict):
        canonical["manifest"] = {
            key: value
            for key, value in manifest.items()
            if key != "content_digest"
        }
    return canonical


def canonical_json(document: dict) -> str:
    """Minified, key-sorted JSON of the canonical portion."""
    return json.dumps(
        canonical_document(document), sort_keys=True, separators=(",", ":")
    )


def content_digest(document: dict) -> str:
    """SHA-256 hex digest over :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def experiment_digest(document: dict) -> str:
    """SHA-256 over the ``experiment`` section alone.

    Unlike :func:`content_digest` this ignores the manifest, whose
    ``git_sha`` / version fields legitimately change between commits —
    so it is the digest to pin in golden regression tests: it moves if
    and only if simulated results move.
    """
    section = document.get("experiment")
    if section is None:
        raise ValidationError("document has no 'experiment' section")
    text = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_document(
    result: ExperimentResult,
    manifest: RunManifest,
    telemetry: Optional[dict] = None,
) -> dict:
    """Assemble the full export document and stamp its content digest."""
    document = {
        "schema": EXPORT_SCHEMA,
        "schema_version": EXPORT_SCHEMA_VERSION,
        "experiment": result.to_dict(),
        "manifest": manifest.to_dict(),
        "telemetry": telemetry,
    }
    document["manifest"]["content_digest"] = content_digest(document)
    return document


def dumps_document(document: dict) -> str:
    """Pretty, key-sorted JSON text of a document (newline-terminated)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_experiment_json(
    path: Union[str, Path],
    result: ExperimentResult,
    stats: Optional[RunnerStats] = None,
    knobs: Optional[dict] = None,
    manifest: Optional[RunManifest] = None,
    **sections: Optional[dict],
) -> dict:
    """Serialize one experiment to *path*; returns the written document.

    The manifest defaults to :func:`build_manifest` over ``stats``,
    ``knobs`` and the manifest ``sections``; telemetry is taken from
    ``stats`` when present.
    """
    if manifest is None:
        manifest = build_manifest(stats=stats, knobs=knobs, **sections)
    telemetry = stats.telemetry() if stats is not None else None
    document = build_document(result, manifest, telemetry=telemetry)
    Path(path).write_text(dumps_document(document), encoding="utf-8")
    return document


def load_experiment_json(path: Union[str, Path]) -> dict:
    """Load and validate an export document written by this module.

    Checks the schema identity and version, verifies the stored content
    digest against the document body, and returns the document dict.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValidationError(f"cannot load experiment export: {error}")
    if not isinstance(document, dict) or document.get("schema") != EXPORT_SCHEMA:
        raise ValidationError(f"{path}: not a {EXPORT_SCHEMA} document")
    if document.get("schema_version") != EXPORT_SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: unsupported schema version "
            f"{document.get('schema_version')!r} "
            f"(supported: {EXPORT_SCHEMA_VERSION})"
        )
    stored = (document.get("manifest") or {}).get("content_digest")
    if stored is not None and stored != content_digest(document):
        raise ValidationError(
            f"{path}: content digest mismatch (document was modified "
            "after export)"
        )
    return document


def result_from_document(document: dict) -> ExperimentResult:
    """Rebuild the :class:`ExperimentResult` from a loaded document."""
    return ExperimentResult.from_dict(document["experiment"])


def manifest_from_document(document: dict) -> RunManifest:
    """Rebuild the :class:`RunManifest` from a loaded document."""
    return RunManifest.from_dict(document["manifest"])
