"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

The heavyweight fixtures (the Table-1-style dataset with all four trained
variants and the primacy-dominant dataset with a trained attention model) are
session scoped, so the directional-replication criteria share them.
"""

import collections
import math

import numpy as np
import pytest

from mirank import (
    BehaviorConfig,
    ModelConfig,
    TrainConfig,
    attention_diagnostic,
    auc,
    compare_policies,
    generate_catalog,
    generate_logs,
    init_model,
    latency_bench,
    load_model,
    metric_report,
    rig,
    save_model,
    train,
)
from mirank.core import make_rng
from mirank.features import DEGENERATE_FILL, extend_feature_matrix, extend_features
from mirank.metrics import _fit_slope, logged_predictions, model_policy
from mirank.models import sequence_probabilities
from mirank.nn.common import cross_entropy_batch
from gradcheck import gradient_check
from mirank.persistence import ModelFileError
from mirank.ranker import beam_search, exhaustive_oracle, greedy_reference, rank
from conftest import chain_entry, random_candidates


def _report(num: int, ok: bool, detail: str, capsys) -> None:
    line = f"ACCEPTANCE CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _test_predictions(params, records):
    predictions, _ = logged_predictions(params, [extend_features(r.candidate_set) for r in records])
    return predictions, np.concatenate([np.array(record.labels) for record in records])


# ---------------------------------------------------------------------------
# Session fixtures


TINY = ModelConfig(d=6, hidden_sizes=(10, 6), lstm_hidden=8, attn_size=4, pos_size=2, max_positions=30)

TABLE1_BEHAVIOR = BehaviorConfig(
    price_sensitivity=2.5,
    position_bias_strength=1.0,
    order_effect_strength=3.0,
    primacy_strength=3.0,
    base_rate=0.15,
    seed=202,
)


@pytest.fixture(scope="session")
def tiny_trained():
    """Small trained recurrent models for the oracle-equivalence checks."""
    catalog = generate_catalog(60, 6, seed=21)
    behavior = BehaviorConfig(price_sensitivity=1.5, order_effect_strength=2.0, base_rate=0.25, seed=22)
    data = generate_logs(behavior, catalog, n_queries=300, items_per_query=6, seed=23)
    return {
        variant: train(variant, data.train_records, TINY, TrainConfig(epochs=2), seed=5)[0]
        for variant in ("mirnn", "mirnn_attention")
    }


@pytest.fixture(scope="session")
def table1():
    """20k train / 5k test records with every influence effect enabled, and
    all four model variants trained on the training split."""
    catalog = generate_catalog(500, 23, seed=77)
    data = generate_logs(TABLE1_BEHAVIOR, catalog, n_queries=25000, items_per_query=20, seed=303)
    config = ModelConfig(d=23)
    models = {
        variant: train(variant, data.train_records, config, TrainConfig(epochs=3), seed=11)[0]
        for variant in ("baseline", "midnn", "mirnn", "mirnn_attention")
    }
    return {"catalog": catalog, "data": data, "models": models}


@pytest.fixture(scope="session")
def primacy_trained():
    """Attention model trained on primacy-dominant data for the attention
    diagnostic; no recency-style order effect, so early positions matter."""
    behavior = BehaviorConfig(
        price_sensitivity=2.0,
        position_bias_strength=1.0,
        order_effect_strength=0.0,
        primacy_strength=8.0,
        base_rate=0.15,
        seed=404,
    )
    catalog = generate_catalog(500, 23, seed=77)
    data = generate_logs(behavior, catalog, n_queries=4000, items_per_query=20, seed=505)
    params, _ = train("mirnn_attention", data.train_records, ModelConfig(d=23), TrainConfig(epochs=5), seed=11)
    return {"data": data, "params": params}


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_oracle_equivalence(tiny_trained, capsys):
    instances = 0
    worst_gap = 0.0
    for variant, params in tiny_trained.items():
        for trial in range(120):
            rng = make_rng(10_000 + trial)
            n = int(rng.integers(2, 7))
            cs = random_candidates(rng, n, 6)
            oracle = exhaustive_oracle(params, cs)
            wide = beam_search(params, cs, k=math.factorial(n))
            gap = abs(wide.expected_gmv - oracle.expected_gmv)
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-9
            narrow = beam_search(params, cs, k=1)
            greedy = greedy_reference(params, cs)
            assert narrow.ranking.order == greedy.ranking.order
            assert abs(narrow.expected_gmv - greedy.expected_gmv) < 1e-9
            for k in (2, 3):
                assert beam_search(params, cs, k).expected_gmv <= oracle.expected_gmv + 1e-9
            instances += 1
    _report(1, instances >= 200, f"{instances} instances, worst wide-beam gap {worst_gap:.2e}", capsys)


def test_criterion_02_sort_optimality(capsys):
    perms_by_n = {}
    instances = 0
    for trial in range(200):
        rng = make_rng(20_000 + trial)
        n = int(rng.integers(2, 8))
        cs = random_candidates(rng, n, 6)
        params = init_model("midnn", TINY, seed=trial)
        result = rank(params, cs)
        sorted_scores = cs.prices[list(result.ranking.order)] * result.per_position_probabilities
        item_scores = np.empty(n)
        item_scores[list(result.ranking.order)] = sorted_scores
        if n not in perms_by_n:
            import itertools

            perms_by_n[n] = np.array(list(itertools.permutations(range(n))), dtype=int)
        perms = perms_by_n[n]
        biases = np.sort(rng.uniform(0.05, 1.0, size=(3, n)), axis=1)[:, ::-1]
        best = (item_scores[perms] @ biases.T).max(axis=0)
        sort_values = sorted_scores @ biases.T
        assert np.all(sort_values >= best - 1e-9)
        instances += 1
    _report(2, instances >= 200, f"{instances} instances x 3 decreasing bias functions each", capsys)


def test_criterion_03_gradient_correctness(capsys):
    worst = 0.0
    checks = 0
    for seed in range(5):
        rng = make_rng(30_000 + seed)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, size=5)
        report = gradient_check("midnn", ModelConfig(d=2, hidden_sizes=(4, 3)), x, labels, seed=seed)
        assert report.passes(1e-4), report.block_errors
        worst = max(worst, report.max_error)
        xs = rng.standard_normal((2, 6, 4))
        ls = rng.integers(0, 2, size=(2, 6))
        report = gradient_check("mirnn", ModelConfig(d=2, lstm_hidden=5), xs, ls, seed=seed)
        assert report.passes(1e-4), report.block_errors
        worst = max(worst, report.max_error)
        xa = rng.standard_normal((2, 5, 4))
        la = rng.integers(0, 2, size=(2, 5))
        report = gradient_check(
            "mirnn_attention",
            ModelConfig(d=2, lstm_hidden=4, attn_size=3, pos_size=2, max_positions=8),
            xa,
            la,
            seed=seed,
        )
        assert report.passes(1e-4), report.block_errors
        worst = max(worst, report.max_error)
        checks += 3
    _report(3, checks == 15, f"{checks} checks across 5 seeds, worst relative error {worst:.2e}", capsys)


def test_criterion_04_incremental_naive_equivalence(tiny_trained, capsys):
    sequences = 0
    worst = 0.0
    for variant, params in tiny_trained.items():
        for trial in range(60):
            rng = make_rng(40_000 + trial)
            length = int(rng.integers(2, 21))
            cs = random_candidates(rng, length, 6)
            feats = extend_features(cs)
            order = rng.permutation(length)
            full = sequence_probabilities(params, feats, [order])[0]
            chained, _ = chain_entry(params, feats, order)
            worst = max(worst, float(np.max(np.abs(chained - full))))
            assert worst < 1e-9
            sequences += 1
    _report(4, sequences >= 100, f"{sequences} sequences (length <= 20), worst deviation {worst:.2e}", capsys)


def test_criterion_05_global_feature_properties(capsys):
    cases = 0
    for trial in range(1000):
        rng = make_rng(50_000 + trial)
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 6))
        local = rng.uniform(-1e3, 1e3, size=(n, d))
        if trial % 4 == 0:
            local[:, int(rng.integers(0, d))] = rng.uniform(-1e3, 1e3)
        extended = extend_feature_matrix(local)
        rel = extended[:, d:]
        assert np.array_equal(extended[:, :d], local)
        assert np.all((rel >= 0.0) & (rel <= 1.0))
        perm = rng.permutation(n)
        assert np.array_equal(extend_feature_matrix(local[perm])[:, d:], rel[perm])
        for j in range(d):
            order = np.argsort(local[:, j], kind="stable")
            assert np.all(np.diff(rel[order, j]) >= 0.0)
        scale = float(rng.uniform(0.5, 2.0))
        shift = float(rng.uniform(-10.0, 10.0))
        assert np.allclose(extend_feature_matrix(local * scale + shift)[:, d:], rel, atol=1e-6)
        for j in range(d):
            if local[:, j].min() == local[:, j].max():
                assert np.all(rel[:, j] == DEGENERATE_FILL)
        cases += 1
    _report(5, cases >= 1000, f"{cases} randomized sets, all five properties held", capsys)


def test_criterion_06_directional_table1(table1, capsys):
    data = table1["data"]
    assert len(data.train_records) >= 20000
    assert len(data.test_records) >= 5000
    scores = {}
    for variant, params in table1["models"].items():
        predictions, labels = _test_predictions(params, data.test_records)
        report = metric_report(predictions, labels)
        scores[variant] = report
    auc_order = (
        scores["mirnn_attention"].auc >= scores["mirnn"].auc >= scores["midnn"].auc > scores["baseline"].auc
    )
    auc_gap = scores["midnn"].auc - scores["baseline"].auc
    rig_order = (
        scores["mirnn_attention"].rig >= scores["mirnn"].rig >= scores["midnn"].rig > scores["baseline"].rig
    )
    detail = (
        "AUC "
        + " / ".join(f"{v}={scores[v].auc:.4f}" for v in ("baseline", "midnn", "mirnn", "mirnn_attention"))
        + f", midnn-baseline gap {auc_gap:.4f}; RIG "
        + " / ".join(f"{v}={scores[v].rig:.4f}" for v in ("baseline", "midnn", "mirnn", "mirnn_attention"))
    )
    _report(6, auc_order and auc_gap >= 0.01 and rig_order, detail, capsys)


def test_criterion_07_directional_gmv(table1, capsys):
    catalog = table1["catalog"]
    models = table1["models"]
    # Set-awareness comparison: price sensitivity and position bias only, so
    # the simulator rewards exactly the relative-price signal midnn can see.
    ps_only = BehaviorConfig(price_sensitivity=2.5, position_bias_strength=1.0, base_rate=0.15, seed=202)
    set_aware = compare_policies(
        {"baseline": model_policy(models["baseline"]), "midnn": model_policy(models["midnn"])},
        ps_only,
        catalog,
        n_queries=200,
        items_per_query=10,
        seed=99,
    )
    midnn_lift, midnn_err = set_aware.paired_difference("midnn", "baseline")
    # Order-effect comparison under the full generating behavior.
    sequential = compare_policies(
        {"midnn": model_policy(models["midnn"]), "mirnn": model_policy(models["mirnn"], beam_size=5)},
        TABLE1_BEHAVIOR,
        catalog,
        n_queries=200,
        items_per_query=10,
        seed=99,
    )
    mirnn_lift, mirnn_err = sequential.paired_difference("mirnn", "midnn")
    # Negative control: with every influence strength zero the ground-truth
    # probabilities ignore order entirely, so the paired difference vanishes.
    null = BehaviorConfig(base_rate=0.15, seed=202)
    control = compare_policies(
        {"midnn": model_policy(models["midnn"]), "mirnn": model_policy(models["mirnn"], beam_size=5)},
        null,
        catalog,
        n_queries=200,
        items_per_query=10,
        seed=99,
    )
    control_diff, control_err = control.paired_difference("mirnn", "midnn")
    ok = (
        midnn_lift > 0.0
        and midnn_lift > 2.0 * midnn_err
        and mirnn_lift > 0.0
        and mirnn_lift > 2.0 * mirnn_err
        and abs(control_diff) <= max(2.0 * control_err, 1e-9)
    )
    detail = (
        f"midnn-baseline {midnn_lift:+.3f}+-{midnn_err:.3f}, "
        f"mirnn-midnn {mirnn_lift:+.3f}+-{mirnn_err:.3f}, "
        f"control {control_diff:+.2e}+-{control_err:.2e}"
    )
    _report(7, ok, detail, capsys)


def test_criterion_08_complexity_slopes(capsys):
    sizes = [10, 20, 40, 80]
    midnn = latency_bench(
        {"midnn": init_model("midnn", ModelConfig(d=800, hidden_sizes=(48, 48)), seed=0)},
        rerank_sizes=sizes,
        beam_sizes=[1],
        repetitions=9,
        seed=1,
    )
    mirnn = latency_bench(
        {"mirnn": init_model("mirnn", ModelConfig(d=23, lstm_hidden=128), seed=0)},
        rerank_sizes=sizes,
        beam_sizes=[12, 24],
        repetitions=7,
        seed=1,
    )
    attention = latency_bench(
        {
            "mirnn_attention": init_model(
                "mirnn_attention",
                ModelConfig(d=4, lstm_hidden=4, attn_size=384, pos_size=1),
                seed=0,
            )
        },
        rerank_sizes=sizes,
        beam_sizes=[4, 8],
        repetitions=7,
        seed=1,
    )
    slopes = {
        "midnn_n": midnn.slope_vs_n["midnn"],
        "mirnn_n": mirnn.slope_vs_n["mirnn"],
        "attention_n": attention.slope_vs_n["mirnn_attention"],
        "mirnn_k": mirnn.slope_vs_k["mirnn"],
        "attention_k": attention.slope_vs_k["mirnn_attention"],
    }
    ok = (
        abs(slopes["midnn_n"] - 1.0) <= 0.4
        and abs(slopes["mirnn_n"] - 2.0) <= 0.4
        and abs(slopes["attention_n"] - 3.0) <= 0.4
        and abs(slopes["mirnn_k"] - 1.0) <= 0.3
        and abs(slopes["attention_k"] - 1.0) <= 0.3
    )
    detail = ", ".join(f"{name}={value:.2f}" for name, value in slopes.items())
    _report(8, ok, detail, capsys)


# The wall-clock half's cases: variant -> (config, beam sizes, counted work).
CRITERION_08_CASES = {
    "midnn": (ModelConfig(d=800, hidden_sizes=(48, 48)), [1], "mlp_rows"),
    "mirnn": (ModelConfig(d=23, lstm_hidden=128), [12, 24], "cell_updates"),
    "mirnn_attention": (ModelConfig(d=4, lstm_hidden=4, attn_size=384, pos_size=1), [4, 8], "pair_scores"),
}


def test_criterion_08_counted_work_slopes(monkeypatch, capsys):
    """Criterion 8 on counted work in place of wall time, with the wall-clock
    half's sizes, beam sizes, configs, targets and bounds. Counts come from
    the kernels' call arguments: MLP rows for midnn, LSTM cell updates
    (E times the width of ``items``) for mirnn, and attention pair scores
    (E*N*(p-1) at position p) for mirnn_attention. A count repeats exactly,
    so load on the machine cannot move these slopes."""
    import mirank.nn
    import mirank.ranker

    counts = collections.Counter()
    advance, mlp = mirank.ranker.advance_entries, mirank.nn.mlp_forward_batch

    def counted_advance(params, hiddens, cells, histories, rep_caches, position, projected, **kwargs):
        items = kwargs.get("items")
        counts["cell_updates"] += len(hiddens) * len(projected) if items is None else items.size
        if rep_caches is not None and position > 1:
            counts["pair_scores"] += len(hiddens) * len(projected) * (position - 1)
        return advance(params, hiddens, cells, histories, rep_caches, position, projected, **kwargs)

    def counted_mlp(blocks, x):
        counts["mlp_rows"] += len(x)
        return mlp(blocks, x)

    monkeypatch.setattr(mirank.ranker, "advance_entries", counted_advance)
    monkeypatch.setattr(mirank.nn, "mlp_forward_batch", counted_mlp)
    sizes = [10, 20, 40, 80]
    slopes = {}
    for variant, (config, beam_sizes, counter) in CRITERION_08_CASES.items():
        params = init_model(variant, config, seed=0)
        catalogs = {n: generate_catalog(n, config.d, 1 + n) for n in sizes}
        work = {}
        for k in beam_sizes:
            for n in sizes:
                counts.clear()
                model_policy(params, beam_size=k)(catalogs[n])
                work[k, n] = counts[counter]
        name = "attention" if variant == "mirnn_attention" else variant
        slopes[f"{name}_n"] = _fit_slope(sizes, [work[min(beam_sizes), n] for n in sizes])
        if params.traits.recurrent:
            slopes[f"{name}_k"] = _fit_slope(beam_sizes, [work[k, max(sizes)] for k in beam_sizes])
    ok = (
        abs(slopes["midnn_n"] - 1.0) <= 0.4
        and abs(slopes["mirnn_n"] - 2.0) <= 0.4
        and abs(slopes["attention_n"] - 3.0) <= 0.4
        and abs(slopes["mirnn_k"] - 1.0) <= 0.3
        and abs(slopes["attention_k"] - 1.0) <= 0.3
    )
    detail = "counted " + ", ".join(f"{name}={value:.2f}" for name, value in slopes.items())
    _report(8, ok, detail, capsys)


def test_criterion_09_attention_diagnostic(primacy_trained, capsys):
    matrix = attention_diagnostic(
        primacy_trained["params"], primacy_trained["data"].test_records, size=20
    )
    for i in range(2, 21):
        assert abs(matrix.values[i - 1, : i - 1].sum() - 1.0) <= 1e-6
    leading = float(matrix.values[19, :2].sum())
    _report(
        9,
        leading > 2.0 / 19.0,
        f"row-20 weight on first two positions {leading:.3f} vs uniform {2.0 / 19.0:.3f}, "
        f"{matrix.n_records} records",
        capsys,
    )


def test_criterion_10_metric_unit_values(capsys):
    auc_value = auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
    labels = [1, 0, 0, 1, 0]
    rig_value = rig([np.mean(labels)] * 5, labels)
    ce_value = cross_entropy_batch([0.5], [1])
    ok = auc_value == 0.75 and abs(rig_value) < 1e-12 and abs(ce_value - math.log(2.0)) < 1e-12
    _report(10, ok, f"auc={auc_value}, constant-rate rig={rig_value:.2e}, ce(0.5,1)-ln2={ce_value - math.log(2.0):.2e}", capsys)


def test_criterion_11_persistence(tmp_path, capsys):
    config = ModelConfig(d=4, hidden_sizes=(6, 4), lstm_hidden=5, attn_size=3, pos_size=2, max_positions=16)
    for variant in ("baseline", "midnn", "mirnn", "mirnn_attention"):
        params = init_model(variant, config, seed=8)
        path = tmp_path / f"{variant}.model"
        save_model(params, path)
        loaded = load_model(path)
        for name in params.blocks:
            assert np.array_equal(loaded.blocks[name], params.blocks[name])
        # a second save of the loaded model is byte-identical
        save_model(loaded, tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    from mirank import read_logs, write_logs

    catalog = generate_catalog(30, 4, seed=12)
    logs = generate_logs(BehaviorConfig(base_rate=0.3, price_sensitivity=1.0), catalog, n_queries=8, items_per_query=5, seed=13)
    log_path = tmp_path / "logs.jsonl"
    write_logs(logs.records, log_path)
    reread = read_logs(log_path)
    write_logs(reread.records, tmp_path / "logs2.jsonl")
    assert (tmp_path / "logs2.jsonl").read_bytes() == log_path.read_bytes()

    reference = tmp_path / "mirnn.model"
    original = reference.read_bytes()
    target = tmp_path / "fuzz.model"
    rng = make_rng(90)
    fuzzed = 0
    for trial in range(500):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8).tobytes()
        if rng.random() < 0.3:
            blob = b"MIRK" + blob
        target.write_bytes(blob)
        with pytest.raises(ModelFileError):
            load_model(target)
        fuzzed += 1
    for trial in range(500):
        data = bytearray(original)
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        target.write_bytes(bytes(data))
        try:
            load_model(target)
        except ModelFileError:
            pass
        fuzzed += 1
    _report(11, fuzzed >= 1000, f"round trips bit-exact; {fuzzed} fuzzed files, all typed errors", capsys)
