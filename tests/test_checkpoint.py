"""Checkpoint round-trip and format tests."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from nliexpl import autodiff as ad
from nliexpl.checkpoint import (CheckpointError, load_checkpoint,
                                save_checkpoint)
from nliexpl.models import load_model
from model_utils import toy_setup


@pytest.fixture
def arrays():
    rng = np.random.default_rng(5)
    return {
        "enc.wi": rng.normal(size=(8, 3)).astype(np.float32),
        "enc.b": rng.normal(size=8).astype(np.float32),
        "emb.frozen": rng.normal(size=(10, 4)).astype(np.float32),
    }


def test_round_trip_bit_exact(tmp_path, arrays):
    save_checkpoint(tmp_path / "ckpt", arrays, trainable={"enc.wi", "enc.b"},
                    meta={"variant": "demo"})
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].tobytes() == arrays[name].tobytes()
    assert manifest["meta"]["variant"] == "demo"


def test_manifest_records_offsets_and_trainability(tmp_path, arrays):
    save_checkpoint(tmp_path / "ckpt", arrays, trainable={"enc.wi", "enc.b"},
                    meta={})
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    entries = {e["name"]: e for e in manifest["tensors"]}
    assert entries["enc.wi"]["offset"] == 0
    assert entries["enc.b"]["offset"] == 8 * 3 * 4
    assert entries["enc.b"]["shape"] == [8]
    assert entries["enc.wi"]["trainable"] is True
    assert entries["emb.frozen"]["trainable"] is False
    assert manifest["blob_bytes"] == (24 + 8 + 40) * 4


def test_blob_is_little_endian_float32(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.array([1.0, 2.5], dtype=np.float32)},
                    {"w"}, {})
    blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
    assert np.frombuffer(blob, dtype="<f4").tolist() == [1.0, 2.5]


def test_missing_directory_is_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope")


def test_truncated_blob_is_error(tmp_path, arrays):
    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {})
    blob_path = tmp_path / "ckpt" / "params.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt")


def _edit_manifest(path, edit):
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["tensors"][1].update(offset=-4), "bad offset"),
    (lambda m: m["tensors"][1].update(offset=1.5), "bad offset"),
    (lambda m: m["tensors"][0].update(shape=[8, -3]), "bad shape"),
    (lambda m: m["tensors"][0].update(shape=[8, "3"]), "bad shape"),
    (lambda m: m["tensors"][2].update(shape=[10, 5]), "past the"),
    (lambda m: m["tensors"][2].update(shape=[1 << 40, 1 << 40]), "past the"),
    (lambda m: m["tensors"][1].update(offset=0), "must be contiguous"),
    (lambda m: m["tensors"][2].update(offset=8 * 3 * 4), "must be contiguous"),
    (lambda m: m["tensors"][2].update(shape=[9, 4]), "cover"),
    (lambda m: m["tensors"][1].update(name="enc.wi"), "listed twice"),
    (lambda m: m.pop("blob_bytes"), "blob size"),
    (lambda m: m["tensors"].append("junk"), "bad tensor entry"),
])
def test_inconsistent_manifest_is_error(tmp_path, arrays, edit, message):
    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {})
    _edit_manifest(tmp_path / "ckpt", edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "ckpt")


def test_unparsable_manifest_is_error(tmp_path, arrays):
    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {})
    (tmp_path / "ckpt" / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="unreadable manifest"):
        load_checkpoint(tmp_path / "ckpt")


def _perturbed(arrays):
    return {name: arr + 1.0 for name, arr in arrays.items()}


def test_resave_replaces_and_leaves_no_siblings(tmp_path, arrays):
    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {})
    newer = _perturbed(arrays)
    save_checkpoint(tmp_path / "ckpt", newer, set(newer), {})
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    for name in arrays:
        assert loaded[name].tobytes() == newer[name].tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, arrays,
                                                    monkeypatch):
    """A failure after the blob is written and before the manifest is
    must not pair the new blob with the old manifest."""
    from types import SimpleNamespace

    from nliexpl import checkpoint

    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {"save": 1})

    def killed(*args, **kwargs):
        raise OSError("killed between the two writes")

    monkeypatch.setattr(checkpoint, "json",
                        SimpleNamespace(dumps=killed, loads=json.loads))
    with pytest.raises(OSError, match="killed"):
        save_checkpoint(tmp_path / "ckpt", _perturbed(arrays), set(arrays),
                        {"save": 2})
    monkeypatch.undo()
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["meta"] == {"save": 1}
    for name in arrays:
        assert loaded[name].tobytes() == arrays[name].tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_directory_with_other_files_is_not_replaced(tmp_path, arrays):
    target = tmp_path / "mixed"
    target.mkdir()
    (target / "notes.txt").write_text("keep me")
    with pytest.raises(CheckpointError, match="more than a checkpoint"):
        save_checkpoint(target, arrays, set(arrays), {})
    assert (target / "notes.txt").read_text() == "keep me"


# Loading maps params.bin copy-on-write: the arrays are private to the
# process and copy nothing when loaded.

def _param_bytes(model):
    return {name: p.data.tobytes() for name, p in model.params().items()}


def test_loaded_model_keeps_its_values_when_the_checkpoint_is_replaced(
        tmp_path):
    model, _, _ = toy_setup("pred-expl", n=3)
    model.save(tmp_path / "ckpt")
    loaded = load_model(tmp_path / "ckpt")
    before = _param_bytes(loaded)
    frozen = loaded.embedding.frozen.tobytes()
    for p in model.params().values():
        p.data += 1.0
    model.embedding.frozen += 1.0
    model.save(tmp_path / "ckpt")
    assert _param_bytes(load_model(tmp_path / "ckpt")) != before
    assert _param_bytes(loaded) == before
    assert loaded.embedding.frozen.tobytes() == frozen


def test_in_place_step_stays_out_of_the_file(tmp_path):
    model, _, _ = toy_setup("pred-expl", n=3)
    model.save(tmp_path / "ckpt")
    blob_path = tmp_path / "ckpt" / "params.bin"
    on_disk = blob_path.read_bytes()
    loaded = load_model(tmp_path / "ckpt")
    params = loaded.params()
    before = _param_bytes(loaded)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    ad.sgd_step(params, 0.5, None)
    assert all(_param_bytes(loaded)[name] != before[name] for name in params)
    assert blob_path.read_bytes() == on_disk
    assert _param_bytes(load_model(tmp_path / "ckpt")) == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_dropped_loads_leave_no_descriptor_open(tmp_path, arrays):
    """Each mapping holds a duplicate of the blob's descriptor until the
    arrays viewing it are gone."""
    save_checkpoint(tmp_path / "ckpt", arrays, set(arrays), {})
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(200):
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        del loaded
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_all_zero_size_tensors_load_writable(tmp_path):
    empty = {"a": np.zeros((0, 3), np.float32), "b": np.zeros(0, np.float32)}
    save_checkpoint(tmp_path / "ckpt", empty, set(), {})
    assert (tmp_path / "ckpt" / "params.bin").stat().st_size == 0
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    for name, arr in empty.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].dtype == np.float32
        assert loaded[name].flags.writeable


def test_load_copies_no_tensor_bytes(tmp_path):
    """numpy reports its data buffers to tracemalloc, so a load that read
    the 16 MB blob into memory would show here."""
    big = {"w": np.arange(4 << 20, dtype=np.float32).reshape(1024, -1)}
    save_checkpoint(tmp_path / "ckpt", big, set(big), {})
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert loaded["w"].flags.writeable
    assert loaded["w"].tobytes() == big["w"].tobytes()
