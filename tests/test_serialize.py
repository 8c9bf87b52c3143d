import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalwalk import (
    DensityMatrix,
    FiniteGraph,
    ProductKind,
    TimeAveragedDistribution,
    build_named,
    build_torus,
    closed_form_density,
    floquet_condition_fraction,
    infinite_time_averaged,
    limiting_density,
    product_spec,
    stationary_distribution,
    time_averaged,
    walk_report,
    zd_product_spec,
)
from crystalwalk import serialize
from crystalwalk.serialize import (
    JSON_DIGITS,
    TABLE_DIGITS,
    comparison_csv,
    density_csv,
    density_json,
    distribution_csv,
    format_float,
    scan_report_json,
    walk_report_json,
)


def test_format_float_digits():
    assert format_float(0.5) == "0.5"
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(1 / 3, TABLE_DIGITS) == "0.333333333333"
    assert format_float(2.0) == "2"
    assert JSON_DIGITS == 17 and TABLE_DIGITS == 12


def test_density_json_round_trips_exactly():
    density = limiting_density(build_named("petersen", []))
    text = density_json(density)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["nu"] == 10
    assert obj["source"] == "numeric"
    # 17 significant digits reproduce every float64 bit for bit
    assert np.array_equal(np.array(obj["d"]), density.values)


def test_density_json_exact_bytes():
    third = 1 / 3
    values = np.array(
        [
            [third, 2 * third, 0.0, 0.0, 1e-300],
            [2 * third, third, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.9, 0.0],
            [0.0, 0.0, 0.9, 0.1, 0.0],
            [1e-300, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert density_json(DensityMatrix(values, "numeric")) == (
        '{"nu":5,"source":"numeric","d":['
        "[0.33333333333333331,0.66666666666666663,0,0,1e-300],"
        "[0.66666666666666663,0.33333333333333331,0,0,0],"
        "[0,0,0.10000000000000001,0.90000000000000002,0],"
        "[0,0,0.90000000000000002,0.10000000000000001,0],"
        "[1e-300,0,0,0,1]]}\n"
    )


def _json_row_by_row(density):
    """density_json with every entry formatted on its own."""
    rows = ",".join("[" + ",".join(map(format_float, row)) + "]" for row in density.values)
    return f'{{"nu":{density.nu},"source":"{density.source}","d":[{rows}]}}\n'


# Values the density check admits that differ in bits but barely in print:
# both zeros, the most negative admitted entry, the smallest subnormals (one
# ulp from the zeros) and the largest subnormal beside the smallest normal.
_NEAR_ZERO = (0.0, -0.0, -1e-12, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308)


@st.composite
def _degenerate_densities(draw):
    """Symmetric densities with few distinct values.

    Uniform diagonal blocks under a random relabelling; symmetric pairs of
    block entries move one ulp, and pairs outside the blocks take near-zero
    values.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(sizes)
    values = np.zeros((n, n))
    block = np.zeros((n, n), dtype=bool)
    for start, size in zip(itertools.accumulate([0] + sizes), sizes):
        values[start:start + size, start:start + size] = 1.0 / size
        block[start:start + size, start:start + size] = True
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if block[i, j]:
            new = np.nextafter(values[i, j], draw(st.sampled_from((0.0, 1.0))))
        else:
            new = draw(st.sampled_from(_NEAR_ZERO))
        values[i, j] = values[j, i] = new
    perm = draw(st.permutations(range(n)))
    return DensityMatrix(values[np.ix_(perm, perm)], "numeric")


@settings(deadline=None)
@given(_degenerate_densities())
def test_density_json_matches_row_by_row_formatting(density):
    assert density_json(density) == _json_row_by_row(density)


def _eighth_with_moved_pairs(moved):
    """1/8 everywhere, then `moved` symmetric pairs each one more ulp above it."""
    values = np.full((8, 8), 0.125)
    for k, (i, j) in enumerate(itertools.islice(itertools.combinations(range(8), 2), moved), 1):
        values[i, j] = values[j, i] = 0.125 + k * np.spacing(0.125)
    return values


def _record_distinct_strings(monkeypatch, found):
    """Append what ``_distinct_strings`` returns to ``found``: the number of strings it formats, or None."""
    real = serialize._distinct_strings

    def record(bits, digits):
        result = real(bits, digits)
        found.append(None if result is None else len(result[1]))
        return result

    monkeypatch.setattr(serialize, "_distinct_strings", record)


def _record_rows(monkeypatch, name, rows):
    """Extend ``rows`` by the matrix rows that ``serialize.<name>`` is called on."""
    real = getattr(serialize, name)
    monkeypatch.setattr(serialize, name, lambda v: rows.extend(v) or real(v))


@pytest.mark.parametrize("moved, formatted_rows", [(15, 1), (16, 8)])
def test_density_json_formats_each_distinct_value_once_up_to_a_quarter(monkeypatch, moved, formatted_rows):
    # 16 distinct values of 64 is a quarter, formatted once as one row; 17 take the symmetric path
    density = DensityMatrix(_eighth_with_moved_pairs(moved), "numeric")
    want = _json_row_by_row(density)
    found, symmetric, rows = [], [], []
    _record_distinct_strings(monkeypatch, found)
    _record_rows(monkeypatch, "_symmetric_rows", symmetric)
    _record_rows(monkeypatch, "_float_rows", rows)
    assert density_json(density) == want
    # the distinct path formats its 16 values as one row, in the shared helper
    want = ([16], 0) if formatted_rows == 1 else ([None], formatted_rows)
    assert (found, len(symmetric), len(rows)) == (*want, 0)


def _random_density(n, rng):
    """A bitwise-symmetric density with n(n+1)/2 distinct values, as the random graphs give."""
    upper = np.triu(rng.random((n, n)) / n, 1)
    values = upper + upper.T
    values[np.diag_indices(n)] = 1.0 - values.sum(axis=1)
    return values


_SIZES = (1, 2, 3, 5, 17, 64, 101)


@pytest.mark.parametrize(
    "n, change",
    [(n, "none") for n in _SIZES] + [(n, change) for n in _SIZES[1:] for change in ("one ulp", "signed zero")],
)
def test_density_json_formats_a_symmetric_density_from_its_upper_triangle(monkeypatch, n, change):
    values = _random_density(n, np.random.default_rng(n))
    if change != "none":
        i, j = n // 3, n - 1
        if change == "one ulp":
            values[i, j] = np.nextafter(values[i, j], 1.0)
        else:
            values[i, j], values[j, i] = 0.0, -0.0
            values[np.diag_indices(n)] = 0.0
            values[np.diag_indices(n)] = 1.0 - values.sum(axis=1)
    density = DensityMatrix(values, "numeric")
    symmetric, rows = [], []
    _record_rows(monkeypatch, "_symmetric_rows", symmetric)
    _record_rows(monkeypatch, "_float_rows", rows)
    assert density_json(density) == _json_row_by_row(density)
    # symmetry is bitwise: one ulp, or 0.0 against -0.0, keeps every row formatted in full
    assert (len(symmetric), len(rows)) == ((n, 0) if change == "none" else (0, n))


def test_density_json_peak_stays_at_twice_the_payload():
    # Measured at n = 200: a peak of 1.78 MB against a 0.88 MB payload and a
    # 0.32 MB matrix; holding every triangle string until the end reached 2.49 MB.
    density = DensityMatrix(_random_density(200, np.random.default_rng(200)), "numeric")
    tracemalloc.start()
    try:
        text = density_json(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + density.values.nbytes


def test_distribution_csv_peak_stays_at_twice_the_payload():
    # Measured on cycle3 d=2 N=72 (15552 lines, 400 distinct masses): a peak of 0.74 MB against a
    # 0.40 MB payload and a 0.12 MB mass array; line keys joined in chunks of lines reached 0.85 MB.
    dist = infinite_time_averaged(build_torus(build_named("cycle", [3]), d=2, N=72), ((0, 0), 0))
    tracemalloc.start()
    try:
        text = distribution_csv(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") >= 10**4
    assert peak <= 2 * len(text) + dist.values.nbytes


def _table_line_by_line(header, keys, *columns):
    """A CSV table with every entry formatted on its own."""
    lines = [",".join([key, *(format_float(c[i], TABLE_DIGITS) for c in columns)]) for i, key in enumerate(keys)]
    return "\n".join([header, *lines]) + "\n"


def _distribution(values, N, d, nu):
    return TimeAveragedDistribution(values=values, N=N, d=d, nu=nu)


def _distribution_keys(N, d, nu):
    return [",".join(map(str, (*cell, q))) for cell in itertools.product(range(N), repeat=d) for q in range(nu)]


@pytest.mark.parametrize("moved, distinct", [(15, 16), (16, None)])
@pytest.mark.parametrize("table", ["density_csv", "distribution_csv"])
def test_tables_format_each_distinct_value_once_up_to_a_quarter(monkeypatch, table, moved, distinct):
    # the JSON cutoff: 16 distinct values of 64 are formatted once, 17 fill the table template
    values = _eighth_with_moved_pairs(moved)
    labels = [str(q) for q in range(8)]
    found = []
    _record_distinct_strings(monkeypatch, found)
    if table == "density_csv":
        keys = [f"{p},{q}" for p in labels for q in labels]
        assert density_csv(values, labels) == _table_line_by_line("p,q,d", keys, values.reshape(-1))
    else:
        flat = values.reshape(-1) / 8  # 64 masses summing to 1, no new distinct values
        text = distribution_csv(_distribution(flat, 8, 1, 8))
        assert text == _table_line_by_line("cell_0,q,mass", _distribution_keys(8, 1, 8), flat)
    assert found == [distinct]


_LABEL_CHARS = st.sampled_from("%sd0ab,\n")  # st.text draws the empty label too


@st.composite
def _table_values(draw, size, nonnegative=False):
    """`size` floats with few (at most an eighth of `size`, from 8 on) or many distinct values.

    The values come from a pool that starts with both zeros and the other
    near-zero values of the density check, then holds pairs one ulp apart;
    nonnegative pools hold masses of at most 1e-7. Both zeros are always
    drawn when two entries fit.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random(size) * 10.0 ** rng.integers(-12, 1, size)
    pool[1::2] = np.nextafter(pool[:-1:2], 1.0)
    pool = np.concatenate([_NEAR_ZERO, pool])
    if nonnegative:
        pool = np.abs(pool) * 1e-7
        pool[1] = -0.0
    pool = pool[:max(2, size // 8) if draw(st.booleans()) else size]
    values = pool[rng.integers(0, len(pool), size)]
    values[rng.permutation(size)[:2]] = pool[:min(size, 2)]
    return values


_LINES = (1, 2, 5, 2047, 2049, 4096, 4100)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_tables_match_line_by_line_formatting(data):
    lines = data.draw(st.sampled_from(_LINES))
    table = data.draw(st.sampled_from(["density_csv", "distribution_csv", "comparison_csv", "_table"]))
    if table == "density_csv":
        n = data.draw(st.sampled_from([1, 2, 3, 46, 64, 65]))
        labels = data.draw(st.lists(st.text(_LABEL_CHARS, max_size=3), min_size=n, max_size=n))
        values = data.draw(_table_values(n * n))
        keys = [f"{p},{q}" for p in labels for q in labels]
        assert density_csv(values.reshape(n, n), labels) == _table_line_by_line("p,q,d", keys, values)
    elif table == "distribution_csv":
        nu = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(1, 3))
        N = max(1, round((lines / nu) ** (1 / d)))
        masses = data.draw(_table_values(nu * N**d, nonnegative=True))
        masses[-1] = 1.0 - masses[:-1].sum()
        header = ",".join(f"cell_{i}" for i in range(d)) + ",q,mass"
        want = _table_line_by_line(header, _distribution_keys(N, d, nu), masses)
        assert distribution_csv(_distribution(masses, N, d, nu)) == want
    elif table == "comparison_csv":
        labels = data.draw(st.lists(st.text(_LABEL_CHARS, max_size=3), min_size=lines, max_size=lines))
        quantum, stationary = data.draw(_table_values(2 * lines)).reshape(2, lines)
        header = "q,quantum_density,classical_stationary,uniform"
        want = _table_line_by_line(header, labels, quantum, stationary, np.full(lines, 1.0 / lines))
        assert comparison_csv(labels, quantum, stationary) == want
    else:
        rank = data.draw(st.integers(1, 3))
        sizes = [max(1, round(lines ** (1 / rank)))] * (rank - 1)
        sizes.append(-(-lines // int(np.prod(sizes))))
        axes = [data.draw(st.lists(st.text(_LABEL_CHARS, max_size=3), min_size=n, max_size=n)) for n in sizes]
        keys = [",".join(key) for key in itertools.product(*axes)]
        width = data.draw(st.integers(1, 3))
        columns = data.draw(_table_values(width * len(keys))).reshape(width, len(keys))
        assert serialize._table("h%d", axes, *columns) == _table_line_by_line("h%d", keys, *columns)


def test_density_json_keeps_negative_zero_apart():
    values = np.array(
        [
            [0.5, 0.5, 0.0, -0.0],
            [0.5, 0.5, -0.0, 0.0],
            [0.0, -0.0, 0.5, 0.5],
            [-0.0, 0.0, 0.5, 0.5],
        ]
    )
    # three distinct values of sixteen entries: each is formatted once
    assert density_json(DensityMatrix(values, "numeric")) == (
        '{"nu":4,"source":"numeric","d":['
        "[0.5,0.5,0,-0],[0.5,0.5,-0,0],[0,-0,0.5,0.5],[-0,0,0.5,0.5]]}\n"
    )


def test_density_csv_table():
    density = closed_form_density("cycle", [5])
    text = density_csv(density.values, tuple(str(i) for i in range(5)))
    lines = text.strip().split("\n")
    assert lines[0] == "p,q,d"
    assert len(lines) == 1 + 25
    assert "0,0,0.36" in lines
    assert "0,2,0.16" in lines


def test_tables_keep_percent_signs_in_labels():
    labels = ("a%sb", "100%")
    values = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert density_csv(values, labels) == (
        "p,q,d\na%sb,a%sb,0.75\na%sb,100%,0.25\n100%,a%sb,0.25\n100%,100%,0.75\n"
    )
    text = comparison_csv(labels, np.array([1 / 3, 2 / 3]), np.array([0.5, 0.5]))
    assert text == (
        "q,quantum_density,classical_stationary,uniform\n"
        "a%sb,0.333333333333,0.5,0.5\n100%,0.666666666667,0.5,0.5\n"
    )


def test_scan_report_json():
    bands = product_spec(zd_product_spec(FiniteGraph(1)), build_named("cycle", [3]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 16)
    obj = json.loads(scan_report_json(report))
    assert obj == {
        "N": 16,
        "max_fraction": 0.125,
        "worst_shift": [2],
        "worst_pair": [0, 0],
        "flat_bands": [],
    }


def test_distribution_csv():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    dist = time_averaged(op, ((0,), 0), 10.0)
    lines = distribution_csv(dist).strip().split("\n")
    assert lines[0] == "cell_0,q,mass"
    assert len(lines) == 1 + 8
    masses = [float(line.split(",")[-1]) for line in lines[1:]]
    assert abs(sum(masses) - 1.0) < 1e-9


def test_distribution_csv_two_axes():
    op = build_torus(build_named("path", [2]), d=2, N=3)
    dist = time_averaged(op, ((0, 0), 0), 5.0)
    lines = distribution_csv(dist).strip().split("\n")
    assert lines[0] == "cell_0,cell_1,q,mass"
    assert len(lines) == 1 + 18
    assert lines[1].startswith("0,0,0,")
    assert lines[-1].startswith("2,2,1,")
    pinned = TimeAveragedDistribution(values=np.arange(18) / 153, N=3, d=2, nu=2)
    assert distribution_csv(pinned) == (
        "cell_0,cell_1,q,mass\n"
        "0,0,0,0\n0,0,1,0.00653594771242\n"
        "0,1,0,0.0130718954248\n0,1,1,0.0196078431373\n"
        "0,2,0,0.0261437908497\n0,2,1,0.0326797385621\n"
        "1,0,0,0.0392156862745\n1,0,1,0.0457516339869\n"
        "1,1,0,0.0522875816993\n1,1,1,0.0588235294118\n"
        "1,2,0,0.0653594771242\n1,2,1,0.0718954248366\n"
        "2,0,0,0.078431372549\n2,0,1,0.0849673202614\n"
        "2,1,0,0.0915032679739\n2,1,1,0.0980392156863\n"
        "2,2,0,0.104575163399\n2,2,1,0.111111111111\n"
    )


def test_walk_report_json():
    g = build_named("cycle", [6])
    obj = json.loads(walk_report_json(walk_report(g)))
    assert obj["bipartite"] is True
    assert "iterates" not in obj
    np.testing.assert_allclose(obj["stationary"], 1 / 6)
    obj = json.loads(walk_report_json(walk_report(g, start=0, steps=3)))
    assert len(obj["iterates"]) == 1
    assert len(obj["iterates"][0]) == 6


def test_comparison_csv():
    g = build_named("complete", [4])
    text = comparison_csv(
        g.vertex_labels(), limiting_density(g).values[0], stationary_distribution(g)
    )
    lines = text.strip().split("\n")
    assert lines[0] == "q,quantum_density,classical_stationary,uniform"
    assert lines[1] == "1,0.625,0.25,0.25"
    assert lines[2] == "2,0.125,0.25,0.25"


def test_every_emitter_returns_one_str():
    # the benchmark's emit meter encodes each result, so none may be a list or an iterator of chunks
    g = build_named("cycle", [3])
    op = build_torus(g, d=2, N=32)
    bands = product_spec(zd_product_spec(FiniteGraph(1)), g, ProductKind.CARTESIAN)
    density = limiting_density(g)
    texts = [
        density_json(density),
        density_csv(density.values, g.vertex_labels()),
        scan_report_json(floquet_condition_fraction(bands, 8)),
        distribution_csv(time_averaged(op, ((0, 0), 0), 10.0)),
        distribution_csv(infinite_time_averaged(op, ((0, 0), 0))),  # 3072 lines, few distinct
        walk_report_json(walk_report(g, start=0, steps=2)),
        comparison_csv(g.vertex_labels(), density.values[0], stationary_distribution(g)),
    ]
    assert [type(text) for text in texts] == [str] * len(texts)


def test_outputs_are_deterministic():
    a = density_json(limiting_density(build_named("petersen", [])))
    b = density_json(limiting_density(build_named("petersen", [])))
    assert a == b
