import numpy as np
import pytest

from glimpse.backends import RetrievalScript
from glimpse.backends.scripted import Q_BASE
from glimpse.corruption import (
    check_grid,
    corrupt,
    make_scripted_tasks,
    run_overlap_experiment,
    task_config,
)
from glimpse.errors import ConfigError, ContractError

PAD = 0


def test_corrupt_identity_and_floor():
    rationale = list(range(10, 20))
    assert corrupt(rationale, 1.0, seed=3, pad_id=PAD) == rationale
    assert corrupt(rationale, 0.0, seed=3, pad_id=PAD) == [PAD] * 10


def test_corrupt_counts_and_determinism():
    rationale = list(range(10, 20))
    out = corrupt(rationale, 0.5, seed=7, pad_id=PAD)
    assert len(out) == 10
    assert out.count(PAD) == 5
    assert out == corrupt(rationale, 0.5, seed=7, pad_id=PAD)
    assert out != corrupt(rationale, 0.5, seed=8, pad_id=PAD)


def test_corrupt_preserves_positions():
    rationale = list(range(10, 20))
    out = corrupt(rationale, 0.6, seed=1, pad_id=PAD)
    for i, tok in enumerate(out):
        assert tok in (PAD, rationale[i])


def test_corrupt_rejects_bad_ratio():
    with pytest.raises(ContractError):
        corrupt([1, 2], 1.5, seed=0, pad_id=PAD)


def test_check_grid():
    # no ratios, a ratio outside [0, 1] (NaN too), no seeds
    for ratios, n_seeds in ([], 1), ([0.5, 1.5], 1), ([-0.1], 1), ([float("nan")], 1), ([0.5], 0):
        with pytest.raises(ConfigError):
            check_grid(ratios, n_seeds)
    cases, backend = make_scripted_tasks(3, seed=1)
    with pytest.raises(ConfigError):
        run_overlap_experiment(cases, [0.5], 0, backend)
    # unsorted ratios are accepted and reported in ascending order
    check_grid([1.0, 0.0, 0.5], 1)
    rows = run_overlap_experiment(cases, [1.0, 0.0, 0.5], 4, backend)
    assert [row.ratio for row in rows] == [0.0, 0.5, 1.0]
    assert rows == run_overlap_experiment(cases, [0.0, 0.5, 1.0], 4, backend)


def test_make_scripted_tasks_validates():
    for n in 0, 65:  # 64 distinct questions
        with pytest.raises(ConfigError):
            make_scripted_tasks(n, seed=1)
    cases, backend = make_scripted_tasks(4, seed=1)
    assert len(cases) == 4
    for case in cases:
        assert len(case.rationale) == RetrievalScript().rationale_len
        assert backend.spec.eos_id not in case.rationale


def test_a_rationale_longer_than_64_tokens_is_whole():
    script = RetrievalScript(rationale_len=70)
    assert task_config(script).max_new_tokens == 71
    cases, _ = make_scripted_tasks(8, 0, script)
    assert [case.rationale for case in cases] == [
        script.rationale(case.prompt[1] - Q_BASE) for case in cases
    ]
    assert all(len(case.rationale) == 70 for case in cases)


def test_endpoints_anchor_exactly():
    cases, backend = make_scripted_tasks(5, seed=2)
    rows = run_overlap_experiment(cases, [0.0, 1.0], 6, backend)
    floor, ceiling = rows[0], rows[1]
    assert floor.ratio == 0.0 and floor.mean == 0.0 and floor.stddev == 0.0
    assert ceiling.ratio == 1.0 and ceiling.mean == 1.0 and ceiling.stddev == 0.0


def test_single_key_hypergeometric_bound():
    from oracles import hypergeometric_survival

    script = RetrievalScript(num_keys=1, rationale_len=20)
    cases, backend = make_scripted_tasks(6, seed=3, script=script)
    n_seeds = 30
    ratio = 0.4
    rows = run_overlap_experiment(cases, [ratio], n_seeds, backend)
    kept = round(ratio * script.rationale_len)
    expected = hypergeometric_survival(script.rationale_len, kept, 1)
    assert expected == pytest.approx(kept / script.rationale_len)
    n = n_seeds * len(cases)
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(rows[0].mean - expected) <= 3 * sigma
    assert 0.0 < rows[0].mean < 1.0  # strictly between floor and ceiling


def test_all_keys_task_needs_full_rationale():
    length = 8
    script = RetrievalScript(num_keys=length, rationale_len=length)
    cases, backend = make_scripted_tasks(4, seed=4, script=script)
    rows = run_overlap_experiment(cases, [0.5, 0.9, 1.0], 10, backend)
    # keeping 4 of 8 or 7 of 8 positions never keeps all keys
    assert rows[0].mean == 0.0
    assert rows[1].mean == 0.0
    assert rows[2].mean == 1.0


def test_mean_accuracy_monotone_in_ratio():
    script = RetrievalScript(num_keys=1, rationale_len=16)
    cases, backend = make_scripted_tasks(6, seed=5, script=script)
    ratios = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = run_overlap_experiment(cases, ratios, 20, backend)
    means = [r.mean for r in rows]
    n = 20 * len(cases)
    slack = 3 * np.sqrt(0.25 / n)  # worst-case binomial noise
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - slack
