"""Subject-per-file binary ingestion, dataset manifests, synthetic data.

Each subject's matrix lives in its own container file so workers can
load their subjects in parallel. The container is deliberately tiny:

====== ======= =====================================================
offset size    field
====== ======= =====================================================
0      4       magic, ASCII ``SFAB``
4      4       version, little-endian uint32, currently 1
8      4       dtype code, little-endian uint32; 0 = IEEE-754 f64 LE
12     8       rows, little-endian uint64
20     8       cols, little-endian uint64
28     8*r*c   payload, row-major float64
====== ======= =====================================================

A dataset manifest is a JSON file::

    {
      "name": "...",
      "grid_dims": [nx, ny, nz],            # optional
      "subjects": [
        {"id": "...", "data_path": "...", "coords_path": "..."},
        ...
      ]
    }

Paths are resolved relative to the manifest's directory. ``coords_path``
is optional for response-model fits and required for topographic fits.

Synthetic subjects are produced by spatially partitioning a set of seed
subjects, filling each partition of each new subject from a randomly
chosen seed subject, and then permuting each partition along the TR
dimension (one permutation per partition, shared by all of its voxels).
Partition-source draws and permutations come from one pinned portable
stream per synthetic subject (see :mod:`factorfit.rng`), consumed in
block-lexicographic order, so outputs are byte-reproducible anywhere
and subject ``i`` never changes when more subjects are requested.
"""

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DatasetConsistencyError,
    FormatError,
    InvalidInputError,
    ShapeError,
)
from .kernels import VoxelGrid, _all_finite
from .rng import PortableRng

__all__ = [
    "SubjectData",
    "ManifestEntry",
    "Manifest",
    "SynthSpec",
    "save_matrix",
    "load_matrix",
    "read_header",
    "load_subject",
    "load_manifest",
    "write_manifest",
    "generate_synthetic",
]

MAGIC = b"SFAB"
VERSION = 1
DTYPE_F64_LE = 0

_HEADER = struct.Struct("<4sIIQQ")
HEADER_SIZE = _HEADER.size  # 28

@dataclass
class SubjectData:
    """One subject's voxels-by-TRs matrix plus optional voxel coordinates."""

    subject_id: str
    X: np.ndarray
    grid: Optional[VoxelGrid] = None

    @property
    def n_voxels(self):
        return self.X.shape[0]

    @property
    def n_trs(self):
        return self.X.shape[1]


@dataclass
class ManifestEntry:
    subject_id: str
    data_path: Path
    coords_path: Optional[Path] = None


@dataclass
class Manifest:
    name: str
    subjects: list
    grid_dims: Optional[tuple] = None
    path: Optional[Path] = None


@dataclass
class SynthSpec:
    """Inputs of the permutation-based synthetic generator."""

    seed_manifest: Path
    n_subjects: int
    partition_dims: tuple = (16, 16, 8)
    base_seed: int = 0

    def validate(self):
        if self.n_subjects < 1:
            raise InvalidInputError("n_subjects must be at least 1")
        if len(self.partition_dims) != 3 or any(d < 1 for d in self.partition_dims):
            raise InvalidInputError("partition dims must be three integers >= 1")


def save_matrix(path, X):
    """Write a 2-D float64 matrix into the SFAB container.

    The payload is the little-endian, row-major bytes of ``X``, written
    straight from its buffer: an input that already is C-contiguous
    ``<f8`` is not copied, any other is converted once.
    """
    X = np.ascontiguousarray(X, dtype="<f8")
    if X.ndim != 2:
        raise ShapeError(f"container stores 2-D matrices, got ndim={X.ndim}")
    if not _all_finite(X):
        raise InvalidInputError("refusing to store non-finite entries")
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_F64_LE, X.shape[0], X.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(X.data)


def read_header(path):
    """Validate a container header and return (rows, cols) without the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _read_header(fh, path):
    """Read and validate the header at the start of open file ``fh``, and
    check the file's size against it before anything is sized from it."""
    raw = fh.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header", offset=len(raw), field="header")
    magic, version, dtype, rows, cols = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0, field="magic")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4, field="version")
    if dtype != DTYPE_F64_LE:
        raise FormatError(f"{path}: unsupported dtype code {dtype}", offset=8, field="dtype")
    expected = 8 * rows * cols
    got = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    if got < expected:
        raise FormatError(
            f"{path}: payload has {got} bytes, header promises {expected}",
            offset=HEADER_SIZE,
            field="payload",
        )
    if got > expected:
        raise FormatError(
            f"{path}: trailing bytes after payload",
            offset=HEADER_SIZE + expected,
            field="payload",
        )
    return int(rows), int(cols)


def load_matrix(path):
    """Read a matrix back, validating header fields, payload length and finiteness."""
    with open(path, "rb") as fh:
        X = np.empty(_read_header(fh, path), dtype="<f8")
        if fh.readinto(X) != X.nbytes:  # the file shrank after the header check
            raise FormatError(f"{path}: payload shrank", offset=HEADER_SIZE, field="payload")
    if not _all_finite(X):
        raise InvalidInputError(f"{path}: payload holds non-finite entries")
    return X


def load_subject(data_path, coords_path=None, subject_id=None):
    """Load a subject matrix and, when given, its voxel coordinates."""
    data_path = Path(data_path)
    subject_id = subject_id or data_path.stem
    X = load_matrix(data_path)
    grid = None
    if coords_path is not None:
        coords = load_matrix(coords_path)
        if coords.shape != (X.shape[0], 3):
            raise DatasetConsistencyError(
                f"coordinates {coords.shape} do not match {X.shape[0]} voxels",
                offenders=[subject_id],
            )
        try:
            grid = VoxelGrid.from_positions(coords)
        except InvalidInputError as exc:
            raise InvalidInputError(
                f"subject {subject_id}, coordinates {coords_path}: {exc}"
            ) from None
    return SubjectData(subject_id, X, grid)


def load_manifest(path, model=None):
    """Parse and eagerly validate a dataset manifest.

    Reads every referenced subject header (not the payloads). With
    ``model="srm"`` additionally requires an equal TR count across
    subjects; with ``model="htfa"`` requires coordinates for every
    subject. A manifest that is not a JSON object with a "subjects" list
    (and a "grid_dims" list, if given) raises :class:`FormatError`. An
    empty subject list, a repeated subject id, or a subject entry without
    string "id" and "data_path" values raises
    :class:`DatasetConsistencyError`. Every one of these names the manifest.
    """
    path = Path(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"manifest {path} is not valid JSON: {exc}") from None
    subjects = doc.get("subjects") if isinstance(doc, dict) else None
    if not isinstance(subjects, list):
        raise FormatError(f'manifest {path} must be a JSON object with a "subjects" list')
    if not isinstance(doc.get("grid_dims") or [], list):
        raise FormatError(f'manifest {path}: "grid_dims" must be a list')
    base = path.parent
    entries = []
    seen = set()
    for i, item in enumerate(subjects):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("id"), str)
            and isinstance(item.get("data_path"), str)
            and isinstance(item.get("coords_path") or "", str)
        ):
            raise DatasetConsistencyError(
                f'manifest {path}: subject entry {i} needs string "id" and "data_path" '
                'values (and "coords_path", if given)'
            )
        sid = item["id"]
        if sid in seen:
            raise DatasetConsistencyError(f"manifest {path}: duplicate subject id", offenders=[sid])
        seen.add(sid)
        coords = item.get("coords_path")
        entries.append(
            ManifestEntry(
                subject_id=sid,
                data_path=base / item["data_path"],
                coords_path=(base / coords) if coords else None,
            )
        )
    if not entries:
        raise DatasetConsistencyError(f"manifest {path} lists no subjects")
    dims = {}
    for entry in entries:
        dims[entry.subject_id] = read_header(entry.data_path)
        if entry.coords_path is not None:
            crows, ccols = read_header(entry.coords_path)
            if ccols != 3 or crows != dims[entry.subject_id][0]:
                raise DatasetConsistencyError(
                    "coordinate file does not match subject voxels",
                    offenders=[entry.subject_id],
                )
    if model == "srm":
        cols = {sid: rc[1] for sid, rc in dims.items()}
        reference = cols[entries[0].subject_id]
        offenders = [sid for sid, c in cols.items() if c != reference]
        if offenders:
            raise DatasetConsistencyError(
                f"subjects disagree on TR count (expected {reference})",
                offenders=offenders,
            )
    if model == "htfa":
        offenders = [e.subject_id for e in entries if e.coords_path is None]
        if offenders:
            raise DatasetConsistencyError(
                "topographic fits need voxel coordinates for every subject",
                offenders=offenders,
            )
    grid_dims = tuple(doc["grid_dims"]) if doc.get("grid_dims") else None
    return Manifest(doc.get("name", path.stem), entries, grid_dims, path)


def write_manifest(path, manifest):
    path = Path(path)
    doc = {
        "name": manifest.name,
        "subjects": [
            {
                "id": e.subject_id,
                "data_path": str(e.data_path.relative_to(path.parent)),
                **(
                    {"coords_path": str(e.coords_path.relative_to(path.parent))}
                    if e.coords_path
                    else {}
                ),
            }
            for e in manifest.subjects
        ],
    }
    if manifest.grid_dims:
        doc["grid_dims"] = list(manifest.grid_dims)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    manifest.path = path
    return path


def _load_seed_subjects(manifest):
    subjects = [
        load_subject(e.data_path, e.coords_path, e.subject_id)
        for e in manifest.subjects
    ]
    first = subjects[0]
    if first.grid is None:
        raise DatasetConsistencyError(
            "seed subjects need voxel coordinates",
            offenders=[first.subject_id],
        )
    offenders = [
        s.subject_id
        for s in subjects[1:]
        if s.grid is None
        or s.grid.positions.shape != first.grid.positions.shape
        or not np.array_equal(s.grid.positions, first.grid.positions)
        or s.n_trs != first.n_trs
    ]
    if offenders:
        raise DatasetConsistencyError(
            "seed subjects disagree on grid or TR count", offenders=offenders
        )
    return subjects


def _partition_voxels(grid, dims):
    """Group voxel indices into spatial blocks, block-lexicographic order."""
    block_of = grid.voxel_axis_index // np.asarray(dims, dtype=np.intp)
    _, block, counts = np.unique(block_of, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(block.ravel(), kind="stable")
    return np.split(order, np.cumsum(counts)[:-1])


def generate_synthetic(spec, out_dir):
    """Write ``spec.n_subjects`` synthetic subjects plus a manifest.

    Subject ``i`` is a pure function of ``(base_seed, i)``: per spatial
    partition, first a seed subject is drawn, then (in a second pass
    over the same partitions) a TR permutation is drawn and applied to
    all voxels of the partition.
    """
    spec.validate()
    manifest_in = load_manifest(spec.seed_manifest)
    seeds = _load_seed_subjects(manifest_in)
    grid = seeds[0].grid
    n_trs = seeds[0].n_trs
    blocks = _partition_voxels(grid, spec.partition_dims)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    coords_path = out_dir / "coords.sfab"
    save_matrix(coords_path, grid.positions)

    entries = []
    for i in range(1, spec.n_subjects + 1):
        stream = PortableRng(spec.base_seed, i)
        X = np.empty((grid.n_voxels, n_trs))
        sources = [stream.randbelow(len(seeds)) for _ in blocks]
        for block, j in zip(blocks, sources):
            X[block] = seeds[j].X[block]
        for block in blocks:
            perm = stream.permutation(n_trs)
            X[block] = X[np.ix_(block, perm)]
        sid = f"synth-{i:04d}"
        data_path = out_dir / f"{sid}.sfab"
        save_matrix(data_path, X)
        entries.append(ManifestEntry(sid, data_path, coords_path))

    out = Manifest(
        name=f"{manifest_in.name}-synth",
        subjects=entries,
        grid_dims=grid.axis_counts,
    )
    write_manifest(out_dir / "manifest.json", out)
    return out
