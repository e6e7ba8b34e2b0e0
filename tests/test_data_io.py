import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from datagen import cuboid_grid, traced_peak, write_dataset
from factorfit import data_io
from factorfit.data_io import (
    _FINITE_CHUNK,
    HEADER_SIZE,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_matrix,
    load_subject,
    read_header,
    save_matrix,
    write_manifest,
)
from factorfit.errors import DatasetConsistencyError, FormatError, InvalidInputError
from factorfit.kernels import VoxelGrid
from factorfit.rng import PortableRng


class TestContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 7))
        path = tmp_path / "m.sfab"
        save_matrix(path, X)
        back = load_matrix(path)
        assert back.tobytes() == X.tobytes()
        assert back.shape == X.shape

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert raw[:4] == b"SFAB"
        version, dtype = struct.unpack_from("<II", raw, 4)
        rows, cols = struct.unpack_from("<QQ", raw, 12)
        assert (version, dtype, rows, cols) == (1, 0, 3, 2)
        assert len(raw) == HEADER_SIZE + 3 * 2 * 8

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError) as excinfo:
            load_matrix(path)
        assert excinfo.value.field == "payload"
        assert excinfo.value.offset == HEADER_SIZE

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as excinfo:
            load_matrix(path)
        assert excinfo.value.offset == 0
        assert excinfo.value.field == "magic"

    def test_bad_version_and_dtype(self, tmp_path):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as excinfo:
            read_header(path)
        assert excinfo.value.field == "version"
        raw[4:8] = struct.pack("<I", 1)
        raw[8:12] = struct.pack("<I", 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as excinfo:
            read_header(path)
        assert excinfo.value.field == "dtype"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"junk")
        for read in (read_header, load_matrix):
            with pytest.raises(FormatError, match="m.sfab: trailing bytes") as excinfo:
                read(path)
            assert excinfo.value.offset == HEADER_SIZE + 32

    @pytest.mark.parametrize("rows", [2**40, 2**62])
    def test_corrupt_row_count_refused_before_allocation(self, tmp_path, rows):
        # the header claims rows x 20, the file holds 4 x 20; sizing a
        # buffer from the header would ask for 160 TiB or more
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((4, 20)))
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<Q", rows)
        path.write_bytes(bytes(raw))
        for read in (read_header, load_matrix):
            with pytest.raises(FormatError, match="m.sfab: payload has 640 bytes") as excinfo:
                read(path)
            assert excinfo.value.field == "payload"
            assert excinfo.value.offset == HEADER_SIZE

    def test_views_and_byte_orders_write_little_endian_rows(self, tmp_path):
        """The payload is the C-order little-endian bytes of X, whatever
        the layout or byte order of the array passed in."""
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 5))
        path = tmp_path / "m.sfab"
        for X in (base.T, base.astype(">f8"), base.astype(">f8").T, base[::2, 1:]):
            save_matrix(path, X)
            raw = path.read_bytes()
            assert raw[HEADER_SIZE:] == np.ascontiguousarray(X, "<f8").tobytes()
            assert struct.unpack_from("<QQ", raw, 12) == X.shape

    def test_non_finite_refused(self, tmp_path):
        with pytest.raises(InvalidInputError):
            save_matrix(tmp_path / "m.sfab", np.array([[np.inf]]))

    def test_non_finite_payload_names_file(self, tmp_path):
        # another tool wrote a valid header over a NaN payload
        path = tmp_path / "nan.sfab"
        header = struct.pack("<4sIIQQ", b"SFAB", 1, 0, 2, 2)
        path.write_bytes(header + np.array([1.0, np.nan, 2.0, 3.0]).astype("<f8").tobytes())
        with pytest.raises(InvalidInputError, match="nan.sfab"):
            load_matrix(path)

    def test_non_finite_found_past_the_first_chunk(self, tmp_path):
        X = np.ones((_FINITE_CHUNK // 2 + 3, 4))
        X[-1, 2] = np.inf
        with pytest.raises(InvalidInputError):
            save_matrix(tmp_path / "m.sfab", X)
        path = tmp_path / "nan.sfab"
        X[-1, 2] = np.nan
        path.write_bytes(struct.pack("<4sIIQQ", b"SFAB", 1, 0, *X.shape) + X.tobytes())
        with pytest.raises(InvalidInputError, match="nan.sfab"):
            load_matrix(path)

    def test_load_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.sfab"
        save_matrix(path, np.ones((3, 2)))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(data_io, "open", counting_open, raising=False)
        assert load_matrix(path).shape == (3, 2)
        assert opened == [path]


class TestContainerMemory:
    """The finiteness checks hold one chunk of flags, not a V x T boolean
    (6.6 MB for this matrix); a 64-row block of it would be 1.1 MB."""

    SLACK = 64 * 1024

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(12).standard_normal((3000, 2201))

    def test_save_peaks_at_one_chunk(self, tmp_path, matrix):
        peak = traced_peak(save_matrix, tmp_path / "m.sfab", matrix)
        assert peak <= _FINITE_CHUNK + self.SLACK, peak

    def test_load_peaks_at_the_matrix_plus_one_chunk(self, tmp_path, matrix):
        path = tmp_path / "m.sfab"
        save_matrix(path, matrix)
        peak = traced_peak(load_matrix, path)
        assert peak <= matrix.nbytes + _FINITE_CHUNK + self.SLACK, peak - matrix.nbytes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
def test_property_round_trip_bit_identical(tmp_path_factory, X):
    """Any finite matrix, signed zeros and subnormals included, comes back
    with the same shape and bytes."""
    path = tmp_path_factory.mktemp("sfab") / "m.sfab"
    save_matrix(path, X)
    back = load_matrix(path)
    assert back.shape == X.shape
    assert back.tobytes() == X.tobytes()


def _write_set(tmp_path, trs_list, with_coords=True):
    grid = cuboid_grid(3, 3, 2)
    rng = np.random.default_rng(1)
    matrices = [rng.standard_normal((grid.n_voxels, t)) for t in trs_list]
    return write_dataset(tmp_path, matrices, grid if with_coords else None)


class TestManifest:
    def test_valid_srm_manifest(self, tmp_path):
        path = _write_set(tmp_path, [475, 475])
        manifest = load_manifest(path, model="srm")
        assert len(manifest.subjects) == 2

    def test_unequal_trs_rejected_for_srm(self, tmp_path):
        path = _write_set(tmp_path, [475, 300])
        with pytest.raises(DatasetConsistencyError) as excinfo:
            load_manifest(path, model="srm")
        assert "sub-01" in excinfo.value.offenders

    def test_missing_coords_rejected_for_htfa(self, tmp_path):
        path = _write_set(tmp_path, [20, 20], with_coords=False)
        with pytest.raises(DatasetConsistencyError):
            load_manifest(path, model="htfa")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = _write_set(tmp_path, [10, 10])
        doc = json.loads(path.read_text())
        doc["subjects"][1]["id"] = doc["subjects"][0]["id"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetConsistencyError):
            load_manifest(path)

    @pytest.mark.parametrize("doc, error, text", [
        ({}, FormatError, 'must be a JSON object with a "subjects" list'),
        ({"subjects": []}, DatasetConsistencyError, "lists no subjects"),
        ({"subjects": [{"id": "s", "data_path": "a.sfab"}, {"id": "s", "data_path": "b.sfab"}]},
         DatasetConsistencyError, "duplicate subject id: s"),
    ], ids=["no-subjects-key", "empty-subjects", "repeated-id"])
    def test_subject_list_errors_name_the_manifest(self, tmp_path, doc, error, text):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as info:
            load_manifest(path)
        assert f"manifest {path}" in str(info.value)
        assert text in str(info.value)

    def test_load_subject_with_coords(self, tmp_path):
        path = _write_set(tmp_path, [10, 10])
        manifest = load_manifest(path, model="htfa")
        entry = manifest.subjects[0]
        subject = load_subject(entry.data_path, entry.coords_path, entry.subject_id)
        assert subject.grid is not None
        assert subject.X.shape[0] == subject.grid.n_voxels

    def test_duplicate_coordinates_name_the_file(self, tmp_path):
        path = _write_set(tmp_path, [10])
        entry = load_manifest(path, model="htfa").subjects[0]
        coords = load_matrix(entry.coords_path)
        coords[3] = coords[7]
        save_matrix(entry.coords_path, coords)
        with pytest.raises(InvalidInputError) as info:
            load_subject(entry.data_path, entry.coords_path, entry.subject_id)
        message = str(info.value)
        assert f"subject {entry.subject_id}" in message
        assert str(entry.coords_path) in message
        assert "17 distinct points for 18 voxels" in message


class TestPortableRng:
    def test_pinned_first_outputs(self):
        # frozen expected values: any change to the generator identity,
        # seeding, or rejection procedure must fail loudly
        stream = PortableRng(0, 1)
        assert [stream.next_u64() for _ in range(3)] == [
            5168670072111841749,
            16758236609915973157,
            6693327907803890602,
        ]
        stream = PortableRng(42, 7)
        assert stream.randbelow(10) == PortableRng(42, 7).randbelow(10)

    def test_permutation_is_permutation(self):
        stream = PortableRng(3, 4)
        perm = stream.permutation(30)
        assert sorted(perm) == list(range(30))

    def test_randbelow_range(self):
        stream = PortableRng(9, 9)
        draws = [stream.randbelow(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7


def _seed_dataset(tmp_path, n_seed=2, dims=(4, 4, 2), n_trs=12, seed=5):
    grid = cuboid_grid(*dims)
    rng = np.random.default_rng(seed)
    matrices = [rng.standard_normal((grid.n_voxels, n_trs)) for _ in range(n_seed)]
    return write_dataset(tmp_path / "seed", matrices, grid), matrices, grid


class TestGenerateSynthetic:
    def test_single_seed_whole_volume_is_tr_permutation(self, tmp_path):
        path, matrices, grid = _seed_dataset(tmp_path, n_seed=1)
        spec = SynthSpec(path, 1, partition_dims=grid.axis_counts, base_seed=3)
        out = generate_synthetic(spec, tmp_path / "out")
        X = load_matrix(out.subjects[0].data_path)
        source = matrices[0]
        # per-voxel value multisets preserved under a pure TR permutation
        assert np.array_equal(np.sort(X, axis=1), np.sort(source, axis=1))
        # and it is one shared permutation across voxels
        order = np.argsort(X[0])
        ref = np.argsort(source[0])
        assert np.array_equal(X[:, order], source[:, ref])

    def test_deterministic_bytes(self, tmp_path):
        path, _, _ = _seed_dataset(tmp_path)
        spec = SynthSpec(path, 3, partition_dims=(2, 2, 2), base_seed=11)
        a = generate_synthetic(spec, tmp_path / "a")
        b = generate_synthetic(spec, tmp_path / "b")
        for ea, eb in zip(a.subjects, b.subjects):
            assert ea.data_path.read_bytes() == eb.data_path.read_bytes()

    def test_subject_content_independent_of_count(self, tmp_path):
        path, _, _ = _seed_dataset(tmp_path)
        small = generate_synthetic(
            SynthSpec(path, 2, (2, 2, 2), base_seed=4), tmp_path / "s"
        )
        large = generate_synthetic(
            SynthSpec(path, 5, (2, 2, 2), base_seed=4), tmp_path / "l"
        )
        for i in range(2):
            assert (
                small.subjects[i].data_path.read_bytes()
                == large.subjects[i].data_path.read_bytes()
            )

    def test_partition_multisets_preserved(self, tmp_path):
        path, matrices, grid = _seed_dataset(tmp_path, n_seed=2, dims=(4, 4, 4))
        spec = SynthSpec(path, 2, partition_dims=(2, 2, 2), base_seed=9)
        out = generate_synthetic(spec, tmp_path / "out")
        block_ids = grid.voxel_axis_index // 2
        keys = [tuple(b) for b in block_ids]
        for entry in out.subjects:
            X = load_matrix(entry.data_path)
            for key in sorted(set(keys)):
                members = np.array([i for i, k in enumerate(keys) if k == key])
                got = np.sort(X[members], axis=1)
                candidates = [
                    np.sort(m[members], axis=1) for m in matrices
                ]
                assert any(np.array_equal(got, c) for c in candidates)

    def test_edge_partitions_processed(self, tmp_path):
        # 4x4x2 grid with 3x3x3 partitions leaves ragged edge blocks
        path, _, grid = _seed_dataset(tmp_path)
        spec = SynthSpec(path, 1, partition_dims=(3, 3, 3), base_seed=2)
        out = generate_synthetic(spec, tmp_path / "out")
        X = load_matrix(out.subjects[0].data_path)
        assert X.shape == (grid.n_voxels, 12)

    def test_partition_matches_per_voxel_grouping(self):
        """Blocks in lexicographic block order, each voxel list ascending, as
        grouping the voxels one at a time gives them."""
        rng = np.random.default_rng(8)
        positions = cuboid_grid(9, 7, 5).positions
        keep = rng.permutation(len(positions))[: len(positions) * 2 // 3]
        grid = VoxelGrid.from_positions(positions[keep])
        for dims in [(4, 4, 2), (1, 1, 1), (3, 2, 5), (16, 16, 8)]:
            groups = {}
            for v, index in enumerate(grid.voxel_axis_index):
                groups.setdefault(tuple(index // np.asarray(dims)), []).append(v)
            blocks = data_io._partition_voxels(grid, dims)
            assert [b.tolist() for b in blocks] == [groups[key] for key in sorted(groups)]
            assert all(b.dtype == np.intp for b in blocks)

    def test_grid_mismatch_rejected(self, tmp_path):
        grid_a = cuboid_grid(3, 3, 2)
        grid_b = cuboid_grid(3, 2, 2)
        rng = np.random.default_rng(0)
        out = tmp_path / "seed"
        out.mkdir()
        from factorfit.data_io import Manifest, ManifestEntry

        entries = []
        for i, grid in enumerate((grid_a, grid_b)):
            coords = out / f"c{i}.sfab"
            data = out / f"d{i}.sfab"
            save_matrix(coords, grid.positions)
            save_matrix(data, rng.standard_normal((grid.n_voxels, 6)))
            entries.append(ManifestEntry(f"s{i}", data, coords))
        manifest_path = write_manifest(out / "manifest.json", Manifest("bad", entries))
        with pytest.raises(DatasetConsistencyError):
            generate_synthetic(SynthSpec(manifest_path, 1, (2, 2, 2), 0), tmp_path / "x")

    def test_output_loads_as_dataset(self, tmp_path):
        path, _, _ = _seed_dataset(tmp_path)
        out = generate_synthetic(SynthSpec(path, 2, (2, 2, 2), 1), tmp_path / "out")
        manifest = load_manifest(out.path, model="htfa")
        subject = load_subject(
            manifest.subjects[0].data_path,
            manifest.subjects[0].coords_path,
        )
        assert subject.grid is not None
