"""Tests for the synthetic web/social graph generators (dataset stand-ins)."""
import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.stats import powerlaw_alpha

ALL_DATASETS = sorted(G.DATASETS)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_dataset_deterministic(name):
    a = G.dataset(name, sf=0.002)
    b = G.dataset(name, sf=0.002)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_dataset_seed_offset_changes_graph(name):
    a = G.dataset(name, sf=0.002)
    b = G.dataset(name, sf=0.002, seed_offset=1)
    assert not np.array_equal(a.dst, b.dst)


@pytest.mark.parametrize("name", ALL_DATASETS)
@pytest.mark.parametrize("sf", [0.002, 0.01])
def test_dataset_scales_with_sf(name, sf):
    s = G.dataset(name, sf=sf)
    cfg = G.DATASETS[name]
    expected_e = int(3_000_000 * sf * cfg["e_scale"])
    assert s.n_edges == max(32, expected_e)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_no_self_loops(name):
    s = G.dataset(name, sf=0.002)
    assert not np.any(s.src == s.dst)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_vertex_ids_in_range(name):
    s = G.dataset(name, sf=0.002)
    cfg = G.DATASETS[name]
    n_v = int(200_000 * 0.002 * cfg["v_scale"])
    assert s.src.min() >= 0 and s.dst.min() >= 0
    assert max(s.src.max(), s.dst.max()) < n_v


@pytest.mark.parametrize("name", ["uk", "arabic", "webbase", "it"])
def test_web_graphs_power_law_regime(name):
    """Web presets must be in the power-law regime the theorems assume."""
    alpha = powerlaw_alpha(G.dataset(name, sf=0.01))
    assert 1.2 < alpha < 3.5


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_max_degree_capped(name):
    """d_max/|E| stays near real-crawl ratios so V_max=|E|/k > d_max (k≤256).

    The Twitter stand-in is deliberately hub-heavier (its d_max/|E| ≈ 4e-3
    is ~4× the web crawls', mirroring the real graphs), so its bound is
    looser."""
    s = G.dataset(name, sf=0.01)
    cap = s.n_edges / 64 if name == "twitter" else s.n_edges / 256 * 3
    assert s.degrees().max() < cap


def test_web_graph_bfs_order():
    """Sources must be (approximately) nondecreasing — crawl order."""
    s = G.web_graph(sf=0.01, seed=0)
    drift = np.diff(s.src.astype(np.int64))
    assert np.quantile(drift, 0.05) >= -16  # small jitter window only
    assert s.src[: len(s.src) // 10].mean() < s.src[-len(s.src) // 10 :].mean()


def test_web_graph_locality_knob():
    near = G.web_graph(sf=0.005, locality=0.95, seed=1)
    far = G.web_graph(sf=0.005, locality=0.05, seed=1)

    def near_frac(s):
        return float((np.abs(s.dst - s.src) <= 64).mean())

    assert near_frac(near) > near_frac(far) + 0.3


def test_social_graph_two_sided_skew():
    s = G.social_graph(sf=0.01, seed=0)
    n = int(max(s.src.max(), s.dst.max())) + 1
    out_deg = np.bincount(s.src, minlength=n)
    in_deg = np.bincount(s.dst, minlength=n)
    # Both sides are skewed: top-1% vertices hold a large share.
    for deg in (out_deg, in_deg):
        top = np.sort(deg)[-max(1, n // 100):].sum()
        assert top / deg.sum() > 0.05


def test_sample_preserves_order_and_size(small_web):
    sub = small_web.sample(1000, seed=0)
    assert sub.n_edges == 1000
    # Stream order preserved: positions strictly increasing in the original.
    pairs = set(zip(small_web.src.tolist(), small_web.dst.tolist()))
    assert all((u, v) in pairs for u, v in zip(sub.src.tolist(), sub.dst.tolist()))


def test_sample_full_returns_self(small_web):
    assert small_web.sample(10**9) is small_web


def test_shuffled_is_permutation(small_web):
    sh = small_web.shuffled(seed=5)
    assert sh.n_edges == small_web.n_edges
    assert sorted(zip(sh.src.tolist(), sh.dst.tolist())) == sorted(
        zip(small_web.src.tolist(), small_web.dst.tolist())
    )
    assert not np.array_equal(sh.src, small_web.src)


def test_degrees_sum(small_web):
    assert small_web.degrees().sum() == 2 * small_web.n_edges


def test_n_vertices_counts_incident_only():
    s = G.EdgeStream(np.array([0, 5]), np.array([5, 9]))
    assert s.n_vertices == 3


def test_to_pandas_schema(tiny_web):
    pdf = tiny_web.to_pandas()
    assert list(pdf.columns) == ["pos", "src", "dst"]
    assert (pdf.pos.values == np.arange(tiny_web.n_edges)).all()


def test_to_spark_roundtrip(spark, tiny_web):
    df = tiny_web.to_spark(spark)
    assert df.count() == tiny_web.n_edges
    assert set(df.columns) == {"pos", "src", "dst"}


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        G.dataset("nope")
