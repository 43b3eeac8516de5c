"""Golden bytes of every command's output files.

The `group` grid digests were taken from the grid search as it stood before
it shared its similarity matrices and reused the winner's grouping. The
`graph`, `annotate`, `train`, `evaluate` and `bench --suite toyfig` digests
were taken from the per-instance-object data model, before `Dataset` and the
training set became columnar. The `table1` and `table2synth` digests were
taken before the bench suites were rewritten as case tables. Any later change
to these files, however small, is a change of behaviour.
"""

import hashlib

import numpy as np
import pytest

from spectralweak import bench, cli

from helpers import write_fake_banknotes

OUTPUTS = ("grid.json", "grid.csv", "grouping.json", "indices.json")
W_SCALES = (0.5, 1.0, 2.0)
SIGMA_SCALES = (0.25, 1.0)
GRIDS = {
    "prob_threshold": ["--model", "prob_threshold", "--symmetrize", "min", "--eps-weight", "1e-3"],
    "prob_criterion": ["--model", "prob_criterion", "--symmetrize", "max"],
}


def write_seeded_bags(path, seed=7):
    """Three planted classes, 53 instances: a trusted class at the origin and
    two disordered classes whose bags mix in trusted members."""
    rng = np.random.default_rng(seed)
    lines = ["instance,bag,group,x0,x1"]
    counter = 0
    for cls, label in enumerate(("normal", "myopathic", "neurogenic")):
        centre = np.zeros(2)
        if cls:
            centre[cls - 1] = 4.0
        for b in range(3):
            size = int(rng.integers(3, 5)) if cls == 0 else int(rng.integers(6, 9))
            for _ in range(size):
                source = centre if cls == 0 or rng.random() < 0.7 else np.zeros(2)
                x0, x1 = rng.normal(source, 1.0)
                lines.append(f"i{counter:03d},{label}-{b},{label},{float(x0)!r},{float(x1)!r}")
                counter += 1
    path.write_text("\n".join(lines) + "\n")
    return counter


def scaled(scales, n):
    return ",".join(repr(c / (n - 1)) for c in scales)


def group_digests(tmp_path, data_name, model):
    """Run one `group` grid and return the sha256 of each output file."""
    if data_name == "builtin:dataset_a":
        data, n, groups = data_name, 26, "2"
    else:
        data = tmp_path / "bags.csv"
        n, groups = write_seeded_bags(data), "3"
    out = tmp_path / "out"
    code = cli.main(
        ["group", "--data", str(data), "--out", str(out), "--groups", groups,
         "--w", scaled(W_SCALES, n), "--sigma", scaled(SIGMA_SCALES, n), *GRIDS[model]]
    )
    assert code == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


GOLDEN = {
    ("builtin:dataset_a", "prob_criterion"): {
        "grid.json": "f89d3eb16fefa74a4d71eee3716d7980a790b0872f1c2f6ad55998197b48f75a",
        "grid.csv": "9d9bceb574bb170e00b77a6f1d9602a9c317c9cf43cd01c600f4bad5ca113922",
        "grouping.json": "08454578f13e73f0cde476fddd3e2b7fb7a858554db2b9fd21b989bc284cec18",
        "indices.json": "847e22ceb3bf328d5a5ab3ebab698fab2460dacb2a6196d10998785cb35be832",
    },
    ("bags", "prob_criterion"): {
        "grid.json": "3f4c57c56c3190090429f755c347b0999141cd3eae56e3fc87a089dcd4ea1ee3",
        "grid.csv": "7bddb86e1828ca084c6d2895c82c7bedbe874fc6f933844d49b1d71dd7b72f21",
        "grouping.json": "3b56cefdbd6081d9e4413d321c2cfbff4d052e7926b179ebc0bd91d775b11c2c",
        "indices.json": "f71b6135063192a9409f74248143924d05de5ca1a351001d3ea0a6dd2c9735c8",
    },
    ("builtin:dataset_a", "prob_threshold"): {
        "grid.json": "c6cbead71a7e3e376c9dabc461924e1e3fd8f38dd145f21033aee26320047d4a",
        "grid.csv": "7f3410ec372f1a47bef6a053ceb78531ca404fd04bd3790805ff3c022c10313c",
        "grouping.json": "9b0fb02a82b3a2cc2faa2447c3dbeaa3fc3ff237e6ed7b7f1a83fa810b12c14e",
        "indices.json": "18a9acec974f8182b97d0dccb612e6b9fdd412138f558c1a2b58786fa9b8f4b1",
    },
    ("bags", "prob_threshold"): {
        "grid.json": "1926562ea01d6b06c6767b659a205240a0ded511dabc5ff8d0e950fcadd596f7",
        "grid.csv": "e6e1be7afffa83db2a8382fb99b6f80f67ad979b1506c876d3f2f1eb8a1e1783",
        "grouping.json": "a227ee5275d1f08d2081b30b23175164f9eaa73457b4660e5790ee709108b3aa",
        "indices.json": "cc4c0aa20fe522baf0b9382d0bcca6446a56b080688518bcf06403f725ea232c",
    },
}


@pytest.mark.parametrize("data_name", ["builtin:dataset_a", "bags"])
@pytest.mark.parametrize("model", sorted(GRIDS))
def test_group_grid_outputs_match_golden_bytes(tmp_path, capsys, data_name, model):
    assert group_digests(tmp_path, data_name, model) == GOLDEN[(data_name, model)]


# data name -> --strong-label value
PIPELINE_DATA = {"builtin:dataset_a": "dense", "bags": "normal"}
CLASSIFIER_FLAGS = {
    "logistic": ["--classifier", "logistic"],
    "qda": ["--classifier", "qda"],
    "knn": ["--classifier", "knn", "--knn-k", "3"],
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_digests(tmp_path, data_name):
    """Run graph, annotate, then train and evaluate on the annotated labels
    with each classifier; return the sha256 of every output file, keyed by
    'command dir/file name'."""
    if data_name == "builtin:dataset_a":
        data = data_name
    else:
        data = tmp_path / "bags.csv"
        write_seeded_bags(data)
    base = ["--data", str(data), "--strong-label", PIPELINE_DATA[data_name]]
    knn3 = ["--model", "knn_symmetric", "--k", "3"]
    runs = {
        "graph": (["graph", *base, *knn3], ("graph.json", "components.json")),
        "annotate": (["annotate", *base, *knn3], ("annotated.csv", "audit.json")),
    }
    training = ["--training", str(tmp_path / "annotate" / "annotated.csv")]
    for name, flags in CLASSIFIER_FLAGS.items():
        runs[f"train-{name}"] = (["train", *base, *training, *flags], ("model.json",))
        runs[f"evaluate-{name}"] = (["evaluate", *base, *training, *flags], ("cv.json", "cv.csv"))
    digests = {}
    for key, (argv, files) in runs.items():
        assert cli.main([*argv, "--out", str(tmp_path / key)]) == 0
        digests.update({f"{key}/{f}": sha256(tmp_path / key / f) for f in files})
    return digests


PIPELINE_GOLDEN = {
    "bags": {
        "graph/graph.json": "fdeaf0232f1d25ea7674367c6a492bf6dcfd2674fb35f0ec188b1436d0369229",
        "graph/components.json": "b34e4fd4a2bd60ce8b44b55c49163cd99b6d9c5d6e2bb80b0c35948814ae2eb0",
        "annotate/annotated.csv": "31075bc520b577f014e7000b080bd84fa328b385262dc5e1162833ebcf0e6d58",
        "annotate/audit.json": "85072da61681897b265853f039bb8ab2a5a8e7ce835dbb34b2252e71c3ab9523",
        "train-logistic/model.json": "32078ac741d28959d6ff351cb2eb53bb06da1155e3676ec8e975736cd1b611e6",
        "evaluate-logistic/cv.json": "b4b2d470c7412cc927705e92b07844c9027a9e1280c8640ecd31fd29f1d93f82",
        "evaluate-logistic/cv.csv": "e200fac6a0b4c0b56c0fa85a37fa7e72378cff506494d35748e87b24b4a9d69c",
        "train-qda/model.json": "dd86079f582ca419478c1ab16af3674618df5dcb93b845f9a06535d711843c24",
        "evaluate-qda/cv.json": "3100b402517d07c907eada2b244b3d19e8d0e147b73c40c6e973debde179e43d",
        "evaluate-qda/cv.csv": "d1526d1b0e827ff944cd8ab9adc733504a04f0357bed1f7ebfabf874dc116e23",
        "train-knn/model.json": "ae45cc7c2d3863052c7482d6b9b043ea1ec386151d9022b8e4d2dc3987d34e04",
        "evaluate-knn/cv.json": "92783bef1f2a8b9c8a304afee86192113c6d849a140c553f0c9c2b9ea33394fd",
        "evaluate-knn/cv.csv": "0d8c7485f1e1f8a022a6996cb0713376f52a7f776762e12598e17909ff7b0d0e",
    },
    "builtin:dataset_a": {
        "graph/graph.json": "5d3e016ccb6e37754e7163beb5e5f8cb1f7052f25518d46beaa799ac56a22deb",
        "graph/components.json": "5233577caa72b0e6ccf8e50423cc4d5851c3ca1074828b1a22e7acc459aefb39",
        "annotate/annotated.csv": "f416f4b0cf87ef90b81d838a4e0e65daf79861e7b52bb58d5396862a7615732f",
        "annotate/audit.json": "ac58d3744e45c30a048a6f64c1e0b89151743938bb3ebccfc5463f0d099ca3ae",
        "train-logistic/model.json": "456af7b5bc22b0cdc47b00f31755a7432666f88da142c59f0d4cc92790bae23a",
        "evaluate-logistic/cv.json": "099408e324b40276c2f37cd35d9c2d934c899575829f0092dc15415fb30708ff",
        "evaluate-logistic/cv.csv": "fa16b2eaf7868e84d2ed65b6a20f977fb32ff4be51960eb47be0d56e88bf22d7",
        "train-qda/model.json": "ac8939bb1b704e5a074dc2ccdd0d3b8e8397cc28352154c684a49581dff4635b",
        "evaluate-qda/cv.json": "099408e324b40276c2f37cd35d9c2d934c899575829f0092dc15415fb30708ff",
        "evaluate-qda/cv.csv": "fa16b2eaf7868e84d2ed65b6a20f977fb32ff4be51960eb47be0d56e88bf22d7",
        "train-knn/model.json": "121ab42165889a4590114d5fc1784149db38d361e1ca04f202f848a18a63332b",
        "evaluate-knn/cv.json": "099408e324b40276c2f37cd35d9c2d934c899575829f0092dc15415fb30708ff",
        "evaluate-knn/cv.csv": "fa16b2eaf7868e84d2ed65b6a20f977fb32ff4be51960eb47be0d56e88bf22d7",
    },
}


@pytest.mark.parametrize("data_name", sorted(PIPELINE_DATA))
def test_pipeline_outputs_match_golden_bytes(tmp_path, capsys, data_name):
    assert pipeline_digests(tmp_path, data_name) == PIPELINE_GOLDEN[data_name]


def dense_graph_flags(model, n):
    """`graph` flags for a dense model. The probabilistic settings, w = 2/(n-1)
    and sigma = 0.25/(n-1), leave directions above the threshold, revived at
    w, revived below w, and dropped."""
    w, sigma = scaled((2.0,), n), scaled((0.25,), n)
    return {
        "epsilon": ["--epsilon", "1.0"],
        "fully_connected": ["--sigma", "1.0"],
        "prob_threshold": ["--w", w, "--sigma", sigma, "--eps-weight", "1e-3", "--symmetrize", "min"],
        "prob_criterion": ["--w", w, "--sigma", sigma, "--symmetrize", "max", "--seed", "3"],
    }[model]


# Digests taken before the two probabilistic models shared one sparsifier and
# graph.json had one CSR path.
DENSE_GRAPH_GOLDEN = {
    ("builtin:dataset_a", "epsilon"): {
        "graph.json": "d29cfe259bb701999d4c59f25c8b8dab0044e715c8a8b2dfa152b0b9db8d82d9",
        "components.json": "e701e3d3eb31e23cbc790bb5932f837ce42d567bda431365e856f35f3eb6959f",
    },
    ("builtin:dataset_a", "fully_connected"): {
        "graph.json": "286d4cdce9597a6744f314706144e9f55d41fbe55efb3706ca294fd382e72235",
        "components.json": "e701e3d3eb31e23cbc790bb5932f837ce42d567bda431365e856f35f3eb6959f",
    },
    ("builtin:dataset_a", "prob_criterion"): {
        "graph.json": "e18575f5c84da8ca6e63415ebb618ccf5097e8811edea2b77f9e912333eeb23b",
        "components.json": "e701e3d3eb31e23cbc790bb5932f837ce42d567bda431365e856f35f3eb6959f",
    },
    ("builtin:dataset_a", "prob_threshold"): {
        "graph.json": "30f995ea51f336481a3cd1a748e49c73d6a23dd1e3540fbca840d22ee5fd0ea6",
        "components.json": "e701e3d3eb31e23cbc790bb5932f837ce42d567bda431365e856f35f3eb6959f",
    },
    ("bags", "epsilon"): {
        "graph.json": "c8531e1e91d5962dc112d5b685bcced0d1a9af2fc6f3609bd60743fdf32f859a",
        "components.json": "b34e4fd4a2bd60ce8b44b55c49163cd99b6d9c5d6e2bb80b0c35948814ae2eb0",
    },
    ("bags", "fully_connected"): {
        "graph.json": "8ecd690b4006217b73a3ca5142b49f6e80a6f3832d5620046c386528575aee81",
        "components.json": "b34e4fd4a2bd60ce8b44b55c49163cd99b6d9c5d6e2bb80b0c35948814ae2eb0",
    },
    ("bags", "prob_criterion"): {
        "graph.json": "a1775c51a94ce30870140fdc2658e4dc27cc9e8b84192cf2289cd8283a38de5c",
        "components.json": "b34e4fd4a2bd60ce8b44b55c49163cd99b6d9c5d6e2bb80b0c35948814ae2eb0",
    },
    ("bags", "prob_threshold"): {
        "graph.json": "f4a0d0fb84ae75eb53b39c3debd4ccc3f69c547b528dc923ec72e853f79716f3",
        "components.json": "b34e4fd4a2bd60ce8b44b55c49163cd99b6d9c5d6e2bb80b0c35948814ae2eb0",
    },
}


@pytest.mark.parametrize("data_name", sorted(PIPELINE_DATA))
@pytest.mark.parametrize("model", ["epsilon", "fully_connected", "prob_criterion", "prob_threshold"])
def test_dense_graph_outputs_match_golden_bytes(tmp_path, capsys, data_name, model):
    if data_name == "builtin:dataset_a":
        data, n = data_name, 26
    else:
        data = tmp_path / "bags.csv"
        n = write_seeded_bags(data)
    out = tmp_path / "graph"
    argv = ["graph", "--data", str(data), "--model", model, *dense_graph_flags(model, n), "--out", str(out)]
    assert cli.main(argv) == 0
    digests = {f: sha256(out / f) for f in ("graph.json", "components.json")}
    assert digests == DENSE_GRAPH_GOLDEN[(data_name, model)]


TOYFIG_GOLDEN = {
    "bench_toyfig.json": "22c710db9033442c7405d684e984046c21978eeedc8e94551e62173138e0cb7f",
    "bench_toyfig_rows.csv": "a27d75cb016456d8e54a609a9b368133a700efbaf73d1bcbf22807658d1ffb91",
}


def test_bench_toyfig_outputs_match_golden_bytes(tmp_path, capsys):
    assert cli.main(["bench", "--suite", "toyfig", "--out", str(tmp_path)]) == 0
    assert {f: sha256(tmp_path / f) for f in TOYFIG_GOLDEN} == TOYFIG_GOLDEN


# `table1` on stand-in banknotes (the public files are not in the repo): the
# report and rows as `bench --suite table1` writes them.
TABLE1_BANKNOTES_GOLDEN = {
    "bench_table1.json": "5026e30c2c2b49037ec7a56e87cd15f88ea195dd5c57a1441eaba4d18fee6e32",
    "bench_table1_rows.csv": "4388d4a8febbfb62741c26ee384f9fdbd70133887496f9a554fa173c546c57a6",
}


def test_table1_banknotes_standin_matches_golden_bytes(tmp_path, capsys):
    write_fake_banknotes(tmp_path / "banknote.csv")
    report = bench.table1(tmp_path, datasets=("banknotes",))
    cli._write_json(report.to_json_dict(), tmp_path / "bench_table1.json")
    cli._write_csv(list(report.rows), tmp_path / "bench_table1_rows.csv")
    assert {f: sha256(tmp_path / f) for f in TABLE1_BANKNOTES_GOLDEN} == TABLE1_BANKNOTES_GOLDEN


TABLE2SYNTH_GOLDEN = {
    "bench_table2synth.json": "3e873bb7ea5a9ec61668b809e1c650267bf16b8297dd9a3497b0d84e6bb246df",
    "bench_table2synth_rows.csv": "9ecf484b456130b51566aa1854f5253cec29f4cf6ec606216b57b04bb01e6631",
}


def test_bench_table2synth_outputs_match_golden_bytes(tmp_path, capsys):
    argv = ["bench", "--suite", "table2synth", "--synth-seeds", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert {f: sha256(tmp_path / f) for f in TABLE2SYNTH_GOLDEN} == TABLE2SYNTH_GOLDEN


# Ids i0..i10 without padding, so file order is not sorted-id order (i10 sorts
# before i4..i9). Integer columns with zero sums z-score to exactly mirrored
# values: the pooled point i8 at the origin is equally far from i9 (-2, 0) and
# i10 (2, 0), its nearest neighbours. With k = 1 the kNN tie goes to the
# vertex that comes first, so the 4-vs-3 split of the pool, and the bytes,
# follow the pool's vertex order.
TIE_ROWS = (
    ("normal-0", "normal", 1, -1),
    ("normal-0", "normal", -1, -1),
    ("normal-1", "normal", 1, 1),
    ("normal-1", "normal", -1, 1),
    ("myopathic-0", "myopathic", -3, 0),
    ("myopathic-0", "myopathic", -2, -1),
    ("myopathic-0", "myopathic", 3, 0),
    ("myopathic-1", "myopathic", 2, 1),
    ("myopathic-1", "myopathic", 0, 0),
    ("myopathic-1", "myopathic", -2, 0),
    ("myopathic-2", "myopathic", 2, 0),
)
UNSORTED_IDS_GOLDEN = {
    "annotated.csv": "b349637cd81a0da8f2e49de12f97c36cbab96b9dd0961c214713b4d3093d18eb",
    "audit.json": "59281933a1deae091e1f8ce9000b61a7db035d5a544ab0586fba21aa7dc55097",
}


def test_annotate_pools_in_sorted_id_order(tmp_path, capsys):
    data = tmp_path / "bags.csv"
    data.write_text(
        "instance,bag,group,x0,x1\n"
        + "".join(f"i{i},{bag},{label},{x},{y}\n" for i, (bag, label, x, y) in enumerate(TIE_ROWS))
    )
    argv = ["annotate", "--data", str(data), "--strong-label", "normal",
            "--model", "knn_symmetric", "--k", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    # i10 is the first pooled vertex, so i8 joins i10's side, the larger one
    rows = (tmp_path / "annotated.csv").read_text().splitlines()
    assert rows[9:] == ["i8,myopathic,weak", "i9,normal,weak", "i10,myopathic,weak"]
    assert {f: sha256(tmp_path / f) for f in UNSORTED_IDS_GOLDEN} == UNSORTED_IDS_GOLDEN


# `evaluate --classifier knn` with no --knn-k: the neighbour count comes from
# the inner leave-one-bag-out sweep over the default grid, and cv.json records
# the chosen count. Digests taken before the kNN vote was vectorized.
KNN_SWEEP_GOLDEN = {
    "bags": {
        "cv.json": "18f3dcc43f026afc59e82fdbce475f076b78d287d328f1182bb336eb74d49a1f",
        "cv.csv": "0d8c7485f1e1f8a022a6996cb0713376f52a7f776762e12598e17909ff7b0d0e",
    },
    "builtin:dataset_a": {
        "cv.json": "8c2fd27a0170331a6c063bb831cc2eb73c89d03e4bc363ad1cce6d405f5583db",
        "cv.csv": "cba354a1b640578a1ffdf88c90c81b6be86fcef7d555bf44d830b14546815f7f",
    },
}


@pytest.mark.parametrize("data_name", sorted(PIPELINE_DATA))
def test_evaluate_knn_inner_sweep_matches_golden_bytes(tmp_path, capsys, data_name):
    if data_name == "builtin:dataset_a":
        data = data_name
    else:
        data = tmp_path / "bags.csv"
        write_seeded_bags(data)
    base = ["--data", str(data), "--strong-label", PIPELINE_DATA[data_name]]
    annotate, out = tmp_path / "annotate", tmp_path / "evaluate"
    assert cli.main(["annotate", *base, "--model", "knn_symmetric", "--k", "3", "--out", str(annotate)]) == 0
    argv = ["evaluate", *base, "--training", str(annotate / "annotated.csv"), "--classifier", "knn"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert {f: sha256(out / f) for f in ("cv.json", "cv.csv")} == KNN_SWEEP_GOLDEN[data_name]
