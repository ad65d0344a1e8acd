"""Tests for the state-tree archive and its atomic writes."""
import json
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Dense, Sequential
from repro.nn.serialization import (
    atomic_savez,
    flatten_state_tree,
    load_state_tree,
    save_state_tree,
)
from repro.utils import as_generator, capture_generator_state


def small_model(seed=0):
    return Sequential([Dense(4, 3, seed=seed, name="d0"), Dense(3, 1, seed=seed + 1, name="d1")])


def assert_same_parameters(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        assert np.array_equal(value, state_b[key]), key


# -- state trees ---------------------------------------------------------------------


def test_state_tree_roundtrip(tmp_path):
    rng_state = capture_generator_state(as_generator(7))
    tree = {
        "arrays": {"x": np.arange(6.0).reshape(2, 3), "y": np.zeros(0)},
        "meta": {"count": 3, "label": "run", "ratio": 0.5, "flag": True, "none": None},
        "records": [{"epoch": 1, "loss": float("nan")}, {"epoch": 2, "loss": 0.25}],
        "rng": rng_state,
        "empty": {},
    }
    path = save_state_tree(tmp_path / "tree", tree)
    assert path.endswith(".npz")
    back = load_state_tree(path)
    assert np.array_equal(back["arrays"]["x"], tree["arrays"]["x"])
    assert back["arrays"]["y"].size == 0
    assert back["meta"] == tree["meta"]
    assert back["records"][0]["loss"] != back["records"][0]["loss"]  # NaN survives
    assert back["records"][1] == {"epoch": 2, "loss": 0.25}
    assert back["rng"] == rng_state  # big ints exact through JSON
    assert back["empty"] == {}


def test_flatten_rejects_reserved_keys():
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"a//b": np.zeros(1)})
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"a:json": np.zeros(1)})
    with pytest.raises(TypeError):
        flatten_state_tree({1: np.zeros(1)})


def test_flatten_names_the_key_path_of_an_array_inside_a_list():
    with pytest.raises(TypeError, match=r"'run//records'.*ndarray inside a list"):
        flatten_state_tree(
            {"run": {"weights": np.ones(2), "records": [1, np.zeros(3)]}}
        )
    with pytest.raises(TypeError, match=r"'pairs'.*ndarray inside a list"):
        flatten_state_tree({"pairs": (np.zeros(1), np.ones(1))})
    with pytest.raises(TypeError, match=r"'meta'.*int64, which is not JSON"):
        flatten_state_tree({"meta": {"count": np.int64(3)}})


def test_flatten_checks_keys_of_array_holding_mappings_only(tmp_path):
    # A plain-data mapping is one JSON leaf, so JSON's own key rules apply.
    path = save_state_tree(tmp_path / "meta", {"meta": {1: "one"}, "x": np.zeros(1)})
    assert load_state_tree(path)["meta"] == {"1": "one"}
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"outer": {"a//b": np.zeros(1)}})
    with pytest.raises(TypeError, match="non-empty str"):
        flatten_state_tree({"": 1})


def test_load_state_tree_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_state_tree(tmp_path / "nope.npz")


# -- packed archive layout -----------------------------------------------------------

KEYS = st.text(alphabet="abcxyz_019", min_size=1, max_size=5)
DTYPES = (np.float64, np.float32, np.int64, np.bool_, np.uint8)

PLAIN = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=6,
)


@st.composite
def array_leaf(draw):
    dtype = draw(st.sampled_from(DTYPES))
    base = draw(
        arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    )
    layout = draw(st.sampled_from(("c", "fortran", "strided", "reversed")))
    if layout == "fortran":
        return np.asfortranarray(base)
    if layout == "strided" and base.ndim:
        return base[..., ::2]
    if layout == "reversed" and base.ndim:
        return base[::-1]
    return base


TREES = st.dictionaries(
    KEYS,
    st.recursive(
        array_leaf() | PLAIN | st.just({}),
        lambda children: st.dictionaries(KEYS, children, max_size=4),
        max_leaves=10,
    ),
    max_size=4,
)


def bits(array):
    """``array``'s bytes as an unsigned-int array of its itemsize, C order."""
    contiguous = np.ascontiguousarray(array)
    return contiguous.view(np.dtype(f"u{array.dtype.itemsize}"))


def assert_tree_bitwise_equal(actual, expected):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert np.array_equal(bits(actual), bits(expected))
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected)
        for key in expected:
            assert_tree_bitwise_equal(actual[key], expected[key])
    else:  # plain data; NaN compares equal through its JSON text
        assert json.dumps(actual) == json.dumps(expected)


def array_leaves(tree):
    for value in tree.values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            yield from array_leaves(value)


@settings(max_examples=60, deadline=None)
@given(tree=TREES)
def test_packed_archive_roundtrips_bitwise(tmp_path_factory, tree):
    path = save_state_tree(tmp_path_factory.mktemp("tree") / "tree", tree)
    back = load_state_tree(path)
    assert_tree_bitwise_equal(back, tree)

    leaves = list(array_leaves(back))
    for leaf in leaves:
        assert leaf.flags.writeable and leaf.flags.c_contiguous
    for index, leaf in enumerate(leaves):
        if leaf.size == 0:
            continue
        before = [other.tobytes() for other in leaves]
        leaf.reshape(-1).view(np.uint8)[0] ^= 0xFF
        assert leaf.tobytes() != before[index]
        for other_index, other in enumerate(leaves):
            if other_index != index:
                assert other.tobytes() == before[other_index]
                assert not np.shares_memory(leaf, other)


def test_packed_archive_has_a_manifest_and_one_blob_per_dtype(tmp_path):
    tree = {
        "a": np.arange(3.0),
        "b": {"c": np.ones((2, 2)), "d": np.arange(4, dtype=np.int64)},
        "meta": {"n": 3},
    }
    path = save_state_tree(tmp_path / "tree", tree)
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == ["<f8", "<i8", "manifest"]
        assert archive["<f8"].shape == (7,) and archive["<i8"].shape == (4,)
        manifest = json.loads(archive["manifest"].tobytes().decode("utf-8"))
    assert manifest["arrays"] == [
        ["a", "<f8", [3], 0],
        ["b//c", "<f8", [2, 2], 3],
        ["b//d", "<i8", [4], 0],
    ]
    assert manifest["plain"] == {"meta:json": {"n": 3}}


def test_object_dtype_leaf_is_refused_at_save(tmp_path):
    with pytest.raises(TypeError, match=r"'run//objects' has dtype object"):
        save_state_tree(
            tmp_path / "tree", {"run": {"objects": np.array([None, 1], dtype=object)}}
        )


@pytest.mark.parametrize("num_ues", [2, 64])
def test_fleet_checkpoint_member_count_does_not_grow_with_the_fleet(
    num_ues, smoke_scale, smoke_split, tmp_path
):
    from repro.fleet import FleetConfig, FleetTrainer
    from repro.split import ExperimentConfig

    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    trainer = FleetTrainer(config, FleetConfig(num_ues=num_ues, mode="parallel_average"))
    path = tmp_path / "fleet.npz"
    trainer.fit(smoke_split.train, smoke_split.validation, max_rounds=1,
                checkpoint_path=path)
    dtypes = {
        leaf.dtype.str
        for leaf in array_leaves(load_state_tree(path))
    }
    with zipfile.ZipFile(path) as archive:
        members = archive.namelist()
    # One manifest plus one blob per dtype, the same for N=2 and N=64.
    assert len(members) == 1 + len(dtypes) == 3


# -- unreadable archives -------------------------------------------------------------

SAMPLE = {
    "weights": {"w": np.arange(12.0).reshape(3, 4), "b": np.zeros(4)},
    "steps": np.arange(5, dtype=np.int64),
    "meta": {"label": "run"},
}


def sample_archive(tmp_path):
    return save_state_tree(tmp_path / "tree", SAMPLE)


def rewrite(path, edit):
    """Re-save ``path``'s members after ``edit(members, manifest)``."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    manifest = json.loads(members["manifest"].tobytes().decode("utf-8"))
    edit(members, manifest)
    members["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
    atomic_savez(path, members)


def member_data_offset(path, name):
    """File offset of the last byte of member ``name``'s stored data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = np.frombuffer(handle.read(4), "<u2")
    start = info.header_offset + 30 + int(name_length) + int(extra_length)
    return start + info.compress_size - 1


def assert_unreadable(path, match):
    with pytest.raises(ValueError, match=match) as error:
        load_state_tree(path)
    assert os.fspath(path) in str(error.value)


def test_truncated_archive_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    assert_unreadable(path, "unreadable state-tree archive")


@pytest.mark.parametrize("member", ["<f8.npy", "manifest.npy"])
def test_flipped_byte_fails_the_zip_crc(tmp_path, member):
    path = sample_archive(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[member_data_offset(path, member)] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert_unreadable(path, "CRC")


def test_missing_manifest_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)
    with np.load(path, allow_pickle=False) as archive:
        blobs = {name: archive[name] for name in archive.files if name != "manifest"}
    atomic_savez(path, blobs)
    assert_unreadable(path, "no manifest member")


def test_missing_blob_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)
    rewrite(path, lambda members, manifest: members.pop("<i8"))
    assert_unreadable(path, r"'steps': no blob of dtype '<i8'")


def test_manifest_offset_past_its_blob_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)

    def edit(members, manifest):
        manifest["arrays"][-1][3] = 1  # 'steps': 5 elements from 1 in a 5-blob

    rewrite(path, edit)
    assert_unreadable(path, r"'steps' \(shape \[5\] at offset 1\) runs past")


def test_manifest_shape_past_its_blob_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)

    def edit(members, manifest):
        manifest["arrays"][0][2] = [4, 5]  # 20 elements in a 16-blob

    rewrite(path, edit)
    assert_unreadable(path, r"runs past its '<f8' blob of 16 elements")


def test_unknown_dtype_raises_one_error(tmp_path):
    path = sample_archive(tmp_path)

    def edit(members, manifest):
        manifest["arrays"][0][1] = "<f16"

    rewrite(path, edit)
    assert_unreadable(path, r"no blob of dtype '<f16'")


def test_per_leaf_version_1_archive_raises_one_error(tmp_path):
    # The layout before checkpoint version 2: one member per flat leaf.
    path = atomic_savez(tmp_path / "old.npz", flatten_state_tree(SAMPLE))
    assert_unreadable(path, "checkpoint version 1 stored one member per leaf")


# -- atomic archive files ------------------------------------------------------------


def test_save_state_tree_is_atomic_and_leaves_no_tmp_files(tmp_path):
    model = small_model()
    target = tmp_path / "weights.npz"
    save_state_tree(target, model.state_dict())
    # Overwrite with different values: the final file is always complete.
    for parameter in model.parameters():
        parameter.value += 1.0
    save_state_tree(target, model.state_dict())
    leftovers = [name for name in os.listdir(tmp_path) if "tmp" in name]
    assert leftovers == []
    fresh = small_model(seed=5)
    fresh.load_state_dict(load_state_tree(target))
    assert_same_parameters(model, fresh)


def test_save_state_tree_appends_npz_suffix(tmp_path):
    model = small_model()
    save_state_tree(tmp_path / "weights", model.state_dict())
    assert (tmp_path / "weights.npz").exists()
    fresh = small_model(seed=5)
    fresh.load_state_dict(load_state_tree(tmp_path / "weights"))
    assert_same_parameters(model, fresh)
