import numpy as np
import pytest

from lungsound import artifact
from lungsound.errors import FormatError
from oracles import array_entries, write_container

MAGIC = b"TEST"
VERSION = 3


def mixed_arrays():
    rng = np.random.default_rng(0)
    return {"a": rng.standard_normal((2, 3)).astype("<f4"),
            "b": rng.standard_normal(4).astype("<f8"),
            "empty": np.zeros((0, 5), dtype="<f4"),
            "scalar": np.array(2.5, dtype="<f8")}


def load(path):
    return artifact.load(path, MAGIC, VERSION, "thing")


def write(path, header, pairs):
    """A container whose "arrays" list and payload come from `pairs`."""
    write_container(path, MAGIC, VERSION,
                    {**header, "arrays": array_entries(pairs)},
                    b"".join(a.tobytes() for _, a in pairs))


class TestRoundTrip:
    def test_mixed_dtypes_come_back_bit_for_bit(self, tmp_path):
        path = tmp_path / "x.bin"
        arrays = mixed_arrays()
        artifact.save(path, MAGIC, VERSION, {"k": 1, "s": "t"}, arrays)
        header, loaded = load(path)
        assert header == {"k": 1, "s": "t"}
        assert list(loaded) == list(arrays)
        for name, a in arrays.items():
            assert loaded[name].dtype.str == a.dtype.str, name
            assert loaded[name].shape == a.shape, name
            assert loaded[name].tobytes() == a.tobytes(), name
            assert not loaded[name].flags.writeable, name
        assert not (tmp_path / "x.bin.tmp").exists()

    def test_layout_is_the_documented_one(self, tmp_path):
        arrays = mixed_arrays()
        artifact.save(tmp_path / "x.bin", MAGIC, VERSION, {"k": 1}, arrays)
        write(tmp_path / "y.bin", {"k": 1}, list(arrays.items()))
        assert ((tmp_path / "x.bin").read_bytes()
                == (tmp_path / "y.bin").read_bytes())

    def test_save_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"old")
        artifact.save(path, MAGIC, VERSION, {}, {"a": np.ones(2, "<f4")})
        assert np.array_equal(load(path)[1]["a"], np.ones(2))


class TestRejected:
    def test_other_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        artifact.save(path, b"ELSE", VERSION, {}, {})
        with pytest.raises(FormatError, match=f"{path}: not a thing file"):
            load(path)

    @pytest.mark.parametrize("version", [VERSION - 1, VERSION + 1])
    def test_other_version(self, tmp_path, version):
        path = tmp_path / "x.bin"
        artifact.save(path, MAGIC, version, {}, {})
        with pytest.raises(FormatError, match=f"{path}: unsupported thing "
                                              f"version {version}"):
            load(path)

    def test_shorter_than_the_prefix(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(MAGIC + b"\x03\x00")
        with pytest.raises(FormatError, match="not a thing file"):
            load(path)

    @pytest.mark.parametrize("header, named", [
        ([], "corrupt thing header"),
        ("arrays", "corrupt thing header"),
        ({"k": 1}, "corrupt thing header"),
        ({"arrays": {"a": 1}}, "corrupt thing header"),
        ({"arrays": [{"name": "a", "dtype": "<f4"}]}, "corrupt thing header"),
        ({"arrays": [["a", "<f4", [1]]]}, "corrupt thing header"),
        ({"arrays": [{"name": "a", "dtype": "<i8", "shape": [1]}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": "a", "dtype": ">f4", "shape": [1]}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": "a", "dtype": "<f4", "shape": [2, -1]}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": "a", "dtype": "<f4", "shape": [2.0]}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": "a", "dtype": "<f4", "shape": [True]}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": "a", "dtype": "<f4", "shape": "1"}]},
         "malformed thing array entry 'a'"),
        ({"arrays": [{"name": 7, "dtype": "<f4", "shape": [1]}]},
         "malformed thing array entry 7"),
    ], ids=["list", "string", "no-arrays", "arrays-object", "no-shape",
            "entry-list", "dtype-i8", "dtype-big-endian", "dim-negative",
            "dim-float", "dim-bool", "shape-str", "name-int"])
    def test_malformed_header(self, tmp_path, header, named):
        path = tmp_path / "x.bin"
        write_container(path, MAGIC, VERSION, header, bytes(4))
        with pytest.raises(FormatError, match=f"{path}: {named}"):
            load(path)

    def test_header_that_is_not_json(self, tmp_path):
        path = tmp_path / "x.bin"
        artifact.save(path, MAGIC, VERSION, {}, {})
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # the header's opening brace
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="corrupt thing header"):
            load(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "x.bin"
        a = np.ones(2, "<f4")
        write(path, {}, [("a", a), ("b", a), ("a", a)])
        with pytest.raises(FormatError,
                           match=f"{path}: thing lists array 'a' twice"):
            load(path)

    @pytest.mark.parametrize("resize", [lambda b: b[:-1], lambda b: b[:-8],
                                        lambda b: b + b"\x00"],
                             ids=["short-1", "short-8", "trailing"])
    def test_other_length_before_any_array_is_built(self, tmp_path,
                                                   monkeypatch, resize):
        path = tmp_path / "x.bin"
        artifact.save(path, MAGIC, VERSION, {}, mixed_arrays())
        size = path.stat().st_size
        path.write_bytes(resize(path.read_bytes()))

        def unbuilt(*args, **kwargs):
            raise AssertionError("array built before the length check")

        monkeypatch.setattr(np, "frombuffer", unbuilt)
        with pytest.raises(FormatError, match=f"{path}: thing is "
                                              f"{path.stat().st_size} bytes; "
                                              f"its arrays list implies "
                                              f"{size}"):
            load(path)
