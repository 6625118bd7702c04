import json
from math import inf

import numpy as np
import pytest

from spreadverify import (
    Dataset,
    DecisionTree,
    Ensemble,
    Leaf,
    Split,
    TrainConfig,
    robust_ensemble,
    train_large_spread,
)
from spreadverify.cli import (
    accuracy,
    bundled_dataset_path,
    canonical_model_json,
    ensemble_from_dict,
    ensemble_to_dict,
    load_csv,
    load_model,
    main,
    save_model,
    stratified_split,
)
from spreadverify.synth import two_blob_dataset


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    ds = load_csv(_write(tmp_path, "d.csv", "1.0,2.0,1\n3.0,4.0,0\n"))
    assert len(ds) == 2 and ds.dimensionality == 2
    assert list(ds.labels) == [1, -1]
    assert ds.features[1, 1] == 4.0


def test_load_csv_accepts_signed_labels(tmp_path):
    ds = load_csv(_write(tmp_path, "d.csv", "1,2,-1\n3,4,+1\n"))
    assert list(ds.labels) == [-1, 1]


def test_load_csv_header_is_skipped(tmp_path):
    plain = load_csv(_write(tmp_path, "a.csv", "1.0,2.0,1\n3.0,4.0,0\n"))
    headed = load_csv(_write(tmp_path, "b.csv", "f0,f1,label\n1.0,2.0,1\n3.0,4.0,0\n"))
    assert np.array_equal(plain.features, headed.features)
    assert np.array_equal(plain.labels, headed.labels)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ValueError):
        load_csv(_write(tmp_path, "e.csv", ""))
    with pytest.raises(ValueError):
        load_csv(_write(tmp_path, "h.csv", "f0,f1,label\n"))


def test_load_csv_malformed_cell_reports_position(tmp_path):
    with pytest.raises(ValueError, match=r"row 1, column 1"):
        load_csv(_write(tmp_path, "m.csv", "1.0,2.0,1\n3.0,oops,0\n"))
    with pytest.raises(ValueError, match=r"row 1, column 0: cannot parse 'x'$"):
        load_csv(_write(tmp_path, "n.csv", "1.0,2.0,1\n x ,oops,0\n"))


def test_load_csv_bad_label_value(tmp_path):
    with pytest.raises(ValueError, match="label"):
        load_csv(_write(tmp_path, "l.csv", "1.0,2.0,0.5\n"))


def test_load_csv_inconsistent_column_count(tmp_path):
    with pytest.raises(ValueError, match="columns"):
        load_csv(_write(tmp_path, "c.csv", "1.0,2.0,1\n3.0,0\n"))


def test_bundled_dataset_loads():
    ds = load_csv(bundled_dataset_path())
    assert len(ds) == 569 and ds.dimensionality == 30
    assert set(np.unique(ds.labels)) == {-1, 1}
    assert float(ds.features.min()) == 0.0 and float(ds.features.max()) == 1.0


def test_load_csv_needs_a_feature_column(tmp_path):
    with pytest.raises(ValueError, match="at least one feature and a label"):
        load_csv(_write(tmp_path, "one.csv", "1\n0\n"))


def test_rows_match_a_cell_by_cell_conversion():
    ds = load_csv(bundled_dataset_path())
    cell_by_cell = [
        (tuple(float(v) for v in ds.features[i]), int(ds.labels[i]))
        for i in range(len(ds))
    ]
    # repr tells -0.0 from 0.0 and an int from a NumPy scalar.
    assert repr(list(ds.rows())) == repr(cell_by_cell)


# ---------------------------------------------------------------------------
# stratified split / accuracy
# ---------------------------------------------------------------------------


def test_stratified_split_counts():
    ds = Dataset(np.arange(20).reshape(10, 2).astype(float), np.array([1] * 5 + [-1] * 5))
    train, test = stratified_split(ds, 0.7, seed=0)
    assert len(train) == 7 and len(test) == 3
    for part in (train, test):
        pos = int((part.labels == 1).sum())
        neg = len(part) - pos
        assert abs(pos - neg) <= 1


def test_stratified_split_half_of_four():
    ds = Dataset(np.zeros((4, 1)), np.array([1, 1, -1, -1]))
    train, test = stratified_split(ds, 0.5, seed=3)
    assert len(train) == len(test) == 2
    assert int((train.labels == 1).sum()) == 1
    assert int((test.labels == 1).sum()) == 1


def test_stratified_split_deterministic_and_exhaustive():
    ds = two_blob_dataset(1, 31, 3)
    a_train, a_test = stratified_split(ds, 0.7, seed=42)
    b_train, b_test = stratified_split(ds, 0.7, seed=42)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    assert len(a_train) + len(a_test) == len(ds)
    merged = np.vstack([a_train.features, a_test.features])
    assert {tuple(r) for r in merged} == {tuple(r) for r in ds.features}


def test_stratified_split_needs_both_classes():
    ds = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        stratified_split(ds, 0.5, seed=0)


def test_accuracy_examples(stump_trio_ensemble):
    all_right = Ensemble((DecisionTree(Leaf(1)),), 1)
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 1]))
    assert accuracy(all_right, ds) == 1.0
    balanced = Dataset(np.array([[0.0], [1.0]]), np.array([1, -1]))
    assert accuracy(all_right, balanced) == 0.5
    pair = Dataset(np.array([[11.0], [18.0]]), np.array([1, -1]))
    assert accuracy(stump_trio_ensemble, pair) == 1.0
    with pytest.raises(ValueError):
        accuracy(all_right, Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int)))


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------


def test_model_round_trip_is_byte_identical(tmp_path):
    data = two_blob_dataset(2, 150, 5)
    model = train_large_spread(
        data, TrainConfig(num_trees=3, max_depth=3, p=inf, k=0.05, seed=8)
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert canonical_model_json(loaded) == canonical_model_json(model)
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_round_trip_preserves_verdicts(tmp_path):
    data = two_blob_dataset(19, 150, 5)
    model = train_large_spread(
        data, TrainConfig(num_trees=5, max_depth=3, p=inf, k=0.05, seed=2)
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for x, y in list(data.rows())[:25]:
        assert robust_ensemble(loaded, inf, 0.05, x, y) == robust_ensemble(
            model, inf, 0.05, x, y
        )


def test_model_schema_shape():
    model = Ensemble((DecisionTree(Split(0, 1.5, Leaf(1), Leaf(-1))),), 2)
    obj = ensemble_to_dict(model)
    assert obj == {
        "version": 1,
        "d": 2,
        "trees": [
            {"feature": 0, "threshold": 1.5, "left": {"leaf": 1}, "right": {"leaf": -1}}
        ],
    }
    assert ensemble_from_dict(json.loads(json.dumps(obj))) == model


def test_model_rejects_unknown_version():
    with pytest.raises(ValueError):
        ensemble_from_dict({"version": 2, "d": 1, "trees": [{"leaf": 1}]})


def test_random_model_round_trips_bit_for_bit():
    import random

    from spreadverify.synth import random_tree

    rng = random.Random(271828)
    for _ in range(100):
        d = rng.randint(1, 6)
        m = rng.choice((1, 3, 5))
        trees = tuple(
            random_tree(rng, d, rng.randint(0, 5), lo=-1e3, hi=1e3) for _ in range(m)
        )
        model = Ensemble(trees, d)
        text = canonical_model_json(model)
        restored = ensemble_from_dict(json.loads(text))
        assert restored == model
        assert canonical_model_json(restored) == text


# ---------------------------------------------------------------------------
# command surface
# ---------------------------------------------------------------------------


def _dump_csv(dataset, path):
    with open(path, "w") as handle:
        for i in range(len(dataset)):
            row = ",".join(repr(float(v)) for v in dataset.features[i])
            handle.write(f"{row},{int(dataset.labels[i])}\n")


def test_train_then_verify_round_trip(tmp_path, capsys):
    data = two_blob_dataset(29, 160, 5)
    csv_path = tmp_path / "data.csv"
    _dump_csv(data, csv_path)
    model_path = tmp_path / "model.json"
    code = main(
        [
            "train", "--data", str(csv_path), "--trees", "3", "--depth", "3",
            "--k", "0.05", "--max-iter", "50", "--seed", "3",
            "--out", str(model_path),
        ]
    )
    assert code == 0
    assert model_path.exists()
    capsys.readouterr()
    code = main(
        [
            "verify", "--model", str(model_path), "--data", str(csv_path),
            "--p", "inf", "--k", "0.05", "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    instances = payload["instances"]
    assert len(instances) == len(data)
    assert [r["index"] for r in instances] == list(range(len(data)))
    # The aggregates are the shares recomputed from the per-instance rows.
    hits = sum(1 for r in instances if r["predicted"] == r["label"])
    assert payload["accuracy"] == hits / len(data)
    assert payload["robustness"] == sum(1 for r in instances if r["robust"]) / len(data)


def test_verify_rejects_non_large_spread_model(tmp_path, capsys):
    trees = (
        DecisionTree(Split(0, 10.0, Leaf(-1), Leaf(1))),
        DecisionTree(Split(0, 12.0, Leaf(1), Leaf(-1))),
        DecisionTree(Split(0, 17.0, Leaf(1), Leaf(-1))),
    )
    model_path = tmp_path / "close.json"
    save_model(Ensemble(trees, 1), model_path)
    data_path = _write(tmp_path, "d.csv", "11.0,1\n")
    code = main(
        ["verify", "--model", str(model_path), "--data", str(data_path),
         "--p", "1", "--k", "2"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "2.0" in err and "4.0" in err  # spread and required gap


def test_verify_rejects_data_of_the_wrong_width(tmp_path, capsys):
    model_path = tmp_path / "wide.json"
    save_model(Ensemble((DecisionTree(Split(29, 0.5, Leaf(-1), Leaf(1))),), 30), model_path)
    data_path = _write(tmp_path, "narrow.csv", ",".join(["0.0"] * 29 + ["1"]) + "\n")
    code = main(
        ["verify", "--model", str(model_path), "--data", str(data_path),
         "--p", "inf", "--k", "0.1"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "29" in err and "30" in err


def test_train_failure_exit_code(tmp_path, capsys):
    rows = ["0.0,1.0,-1"] * 20 + ["1.0,1.0,1"] * 20
    csv_path = _write(tmp_path, "hard.csv", "\n".join(rows) + "\n")
    code = main(
        ["train", "--data", str(csv_path), "--trees", "5", "--depth", "2",
         "--k", "100.0", "--max-iter", "1", "--seed", "0",
         "--out", str(tmp_path / "never.json")]
    )
    assert code == 2
    assert "failed" in capsys.readouterr().err


def test_spread_command(tmp_path, capsys):
    trees = (
        DecisionTree(Split(0, 10.0, Leaf(-1), Leaf(1))),
        DecisionTree(Split(0, 12.0, Leaf(1), Leaf(-1))),
        DecisionTree(Split(0, 17.0, Leaf(1), Leaf(-1))),
    )
    model_path = tmp_path / "m.json"
    save_model(Ensemble(trees, 1), model_path)
    assert main(["spread", "--model", str(model_path), "--p", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spread"] == 2.0


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--cases", "25", "--seed", "11"]) == 0
    assert "agreement 25/25" in capsys.readouterr().out


def test_oracle_check_refuses_a_negative_case_count(capsys):
    assert main(["oracle-check", "--cases", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cases must be >= 0, got -1\n"


def test_oracle_check_compares_attack_norms(monkeypatch, capsys):
    from dataclasses import replace

    from spreadverify import cli

    def off_by_a_millionth(*args):
        verdict = robust_ensemble(*args)
        if verdict.min_attack_norm is None:
            return verdict
        return replace(verdict, min_attack_norm=verdict.min_attack_norm * (1 + 1e-6))

    monkeypatch.setattr(cli, "robust_ensemble", off_by_a_millionth)
    assert main(["oracle-check", "--cases", "100", "--seed", "11", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    mismatches = payload["mismatches"]
    assert mismatches and payload["agreement"] == 100 - len(mismatches)
    for entry in mismatches:
        assert entry["fast"] is False and entry["exact"] is False
        assert entry["fast_norm"] == pytest.approx(entry["exact_norm"] * (1 + 1e-6))


def test_gadget_command(tmp_path, capsys):
    graph_path = _write(tmp_path, "g.txt", "3 2\n0 1\n1 2\n")
    assert main(["gadget", "--graph", str(graph_path), "--s", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clique_exists"] and payload["large_spread_subset_exists"]


def test_gadget_capacity_exit_code(tmp_path, capsys):
    # 1100 vertices: capacity is reported before any 1,099-split chain is built.
    for body, s in (("13 0\n", "2"), ("1100 0\n", "3")):
        graph_path = _write(tmp_path, "big.txt", body)
        assert main(["gadget", "--graph", str(graph_path), "--s", s]) == 4


def test_train_partitions_from_cli(tmp_path, capsys):
    data = two_blob_dataset(41, 160, 6)
    csv_path = tmp_path / "data.csv"
    _dump_csv(data, csv_path)
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(csv_path), "--trees", "5", "--depth", "2",
         "--k", "0.05", "--partitions", "2", "--seed", "3",
         "--out", str(model_path), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trees"] == 5
    model = load_model(model_path)
    # round-robin partitions never mix feature residues across sub-ensembles
    from spreadverify import is_large_spread

    assert is_large_spread(model, inf, 0.05)


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--model", "x"]) == 1  # missing required args
    assert main(["no-such-command"]) == 1
    assert main(["bench"]) == 1  # timing lives in perfbench, not the CLI
    assert main(["verify", "--model", "m.json", "--data", "d.csv", "--p", "inf",
                 "--k", "0.1", "--jobs", "2"]) == 1  # verify runs on one thread
    assert main(["verify", "--model", "m.json", "--data", "d.csv", "--p", "inf",
                 "--k", "inf"]) == 1  # the attacker budget must be finite
    assert main(["oracle-check", "--max-d", "5"]) == 1  # case shapes are fixed
    assert main(["train", "--data", "d.csv", "--trees", "3", "--depth", "2",
                 "--p", "bogus", "--k", "1", "--out", "m.json"]) == 1
    assert main(["--help"]) == 0  # help is not a usage error


@pytest.mark.parametrize("option", [["--p", "inf"], ["--p", "2"], ["--part", "2"]])
def test_train_refuses_a_norm_and_abbreviated_options(capsys, option):
    # The trained model depends on --k alone, and only exact option names parse.
    assert main(["train", "--data", "d.csv", "--trees", "3", "--depth", "2",
                 "--k", "1", *option, "--out", "m.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: spreadverify")
    assert f"spreadverify: error: unrecognized arguments: {' '.join(option)}" in err


def test_missing_file_is_reported(capsys, tmp_path):
    assert main(["spread", "--model", str(tmp_path / "nope.json"), "--p", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "[]",
        '{"version": 1, "d": 1, "trees": 5}',
        '{"version": 1, "d": 1, "trees": [{"feature": [0], "threshold": 0.5,'
        ' "left": {"leaf": -1}, "right": {"leaf": 1}}]}',
        '{"version": 1, "d": 1, "trees": [{"leaf": null}]}',
        '{"version": 1, "d": 1}',
        # Values of the wrong JSON type are refused, not coerced: feature 2.7,
        # a string threshold, leaf labels -1.9 and true, and d = 3.9.
        '{"version": 1, "d": 3, "trees": [{"feature": 2.7, "threshold": 0.5,'
        ' "left": {"leaf": -1}, "right": {"leaf": 1}}]}',
        '{"version": 1, "d": 3, "trees": [{"feature": 2, "threshold": "0.5",'
        ' "left": {"leaf": -1}, "right": {"leaf": 1}}]}',
        '{"version": 1, "d": 1, "trees": [{"leaf": -1.9}]}',
        '{"version": 1, "d": 1, "trees": [{"leaf": true}]}',
        '{"version": 1, "d": 3.9, "trees": [{"leaf": 1}]}',
        pytest.param(
            '{"version": 1, "d": 1, "trees": ['
            + '{"feature": 0, "threshold": 0.5, "left": {"leaf": -1}, "right": ' * 1500
            + '{"leaf": 1}' + "}" * 1500 + "]}",
            id="1500-level-chain",
        ),
    ],
)
def test_malformed_model_file_is_reported(capsys, tmp_path, body):
    model_path = _write(tmp_path, "model.json", body)
    assert main(["spread", "--model", str(model_path), "--p", "1"]) == 1
    assert "error: malformed model" in capsys.readouterr().err


def test_node_that_is_not_an_object_is_reported(capsys, tmp_path):
    body = '{"version": 1, "d": 1, "trees": [[0, 0.5]]}'
    model_path = _write(tmp_path, "model.json", body)
    assert main(["spread", "--model", str(model_path), "--p", "1"]) == 1
    assert "error: malformed node: [0, 0.5]" in capsys.readouterr().err


def test_saving_a_tree_too_deep_for_the_format_raises(tmp_path):
    chain = Leaf(1)
    for level in reversed(range(1500)):
        chain = Split(0, float(level), Leaf(-1), chain)
    ensemble = Ensemble((DecisionTree(chain),), 1)
    with pytest.raises(ValueError, match="too deeply"):
        ensemble_to_dict(ensemble)
    with pytest.raises(ValueError, match="too deeply"):
        canonical_model_json(ensemble)
    with pytest.raises(ValueError, match="too deeply"):
        save_model(ensemble, tmp_path / "deep.json")
    assert not (tmp_path / "deep.json").exists()
