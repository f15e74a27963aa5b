"""Synthetic web/social graph generators (the paper's dataset substitutes).

The paper evaluates on real crawls (uk-2002, arabic-2005, webbase-2001,
it-2004) and the Twitter social graph (Table III), none of which are
available offline.  Per DESIGN.md §4 we substitute deterministic synthetic
graphs that preserve the two properties CLUGP's claims rest on:

* **power-law degree distribution** (Section II-C): in-degrees are drawn
  from a Zipf-like copying model, so ``f(x) ∝ x^-α`` with α ≈ 2.1 for the
  web graphs and a heavier two-sided skew for the social graph;
* **BFS/crawl stream order** (footnote 1): edges are emitted in discovery
  order of their source vertex, so consecutive stream edges share locality
  — the property both Holl/CLUGP clustering and the batch parallelism
  exploit.  ``EdgeStream.shuffled`` gives the random order of the
  one-pass baselines (HDRF/Greedy/Hash/DBH per §VI-A); the experiment
  harness picks each algorithm's order with ``ordered_stream``.

Edges are produced as numpy arrays (the kernels are sequential streaming
loops) and wrapped into Spark DataFrames with ``to_spark`` for the
distributed pipeline, metrics, and the GAS engine.

SF=1.0 ≈ 3M edges / 200k vertices; tests use SF≈0.002, benches SF≈0.03–0.1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import pandas as pd
    from pyspark.sql import DataFrame, SparkSession

_V_PER_SF = 200_000
_E_PER_SF = 3_000_000

#: ``_zipf_capped``'s hub caps: the web crawls' ``d_max/|E|`` and twitter's.
WEB_MAX_DEGREE_FRAC = 1e-3
SOCIAL_MAX_DEGREE_FRAC = 4e-3

#: Schema of the edge relation ``(pos, src, dst)``, and of the assignment
#: relation, which adds each edge's partition.
EDGE_SCHEMA = "pos long, src long, dst long"
ASSIGNMENT_SCHEMA = EDGE_SCHEMA + ", partition long"

#: Named presets mirroring Table III's five datasets (relative |E|/|V|
#: densities roughly follow the real graphs: webbase is sparse-and-wide,
#: it/arabic dense, twitter hub-heavy with no crawl locality).
DATASETS = {
    "uk": dict(kind="web", v_scale=1.0, e_scale=1.0, alpha=2.1, seed=11),
    "arabic": dict(kind="web", v_scale=1.1, e_scale=1.9, alpha=2.05, seed=12),
    "webbase": dict(kind="web", v_scale=3.0, e_scale=2.4, alpha=2.2, seed=13),
    "it": dict(kind="web", v_scale=1.6, e_scale=3.2, alpha=2.0, seed=14),
    "twitter": dict(kind="social", v_scale=1.6, e_scale=3.0, alpha=1.8, seed=15),
}


@dataclass(frozen=True)
class EdgeStream:
    """An edge stream ``G_S``: ``src[i] → dst[i]`` arriving at position i.

    Vertex ids may be any int64, sparse or negative: a kernel that keeps
    per-vertex state calls ``densify`` once and indexes by the result.
    """

    src: np.ndarray  # int64 vertex ids
    dst: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def n_vertices(self) -> int:
        """Number of distinct vertices incident to at least one edge."""
        return len(np.union1d(self.src, self.dst))

    def sample(self, n_edges: int, *, seed: int = 0) -> "EdgeStream":
        """Uniform edge sample preserving stream order (Fig 5's setup)."""
        if n_edges >= self.n_edges:
            return self
        idx = np.sort(
            np.random.default_rng(seed).choice(self.n_edges, n_edges, replace=False)
        )
        return EdgeStream(self.src[idx], self.dst[idx])

    def shuffled(self, *, seed: int = 0) -> "EdgeStream":
        """Random stream order (the best order for the one-pass baselines)."""
        idx = np.random.default_rng(seed).permutation(self.n_edges)
        return EdgeStream(self.src[idx], self.dst[idx])

    def densify(self) -> tuple[np.ndarray, "EdgeStream"]:
        """``(ids, dense)``: the distinct vertex ids, sorted, and this stream
        with every id replaced by its index in ``ids``, in ``[0, |V|)``."""
        ids, index = np.unique(np.concatenate([self.src, self.dst]), return_inverse=True)
        src, dst = np.split(index.astype(np.int64, copy=False), 2)
        return ids, EdgeStream(src, dst)

    @property
    def id_bound(self) -> int:
        """``max id + 1``, the length of an array indexed by vertex id (0 if empty)."""
        return int(max(self.src.max(initial=-1), self.dst.max(initial=-1))) + 1

    def degrees(self) -> np.ndarray:
        """Total (in+out) degree per distinct vertex, in the order of
        ``densify()``'s ids: on ids ``0..|V|-1`` the degree of id ``i`` is
        at index ``i``."""
        ids, dense = self.densify()
        n = len(ids)
        return np.bincount(dense.src, minlength=n) + np.bincount(dense.dst, minlength=n)

    def to_pandas(self) -> pd.DataFrame:
        import pandas as pd  # the kernels never build a frame; keep the import off their path

        return pd.DataFrame(
            {
                "pos": np.arange(self.n_edges, dtype=np.int64),
                "src": self.src.astype(np.int64),
                "dst": self.dst.astype(np.int64),
            }
        )

    def to_spark(self, spark: SparkSession) -> DataFrame:
        """Edge stream as a DataFrame ``(pos, src, dst)`` ordered by pos."""
        return spark.createDataFrame(self.to_pandas(), schema=EDGE_SCHEMA)


def _zipf_capped(n_v: int, alpha: float, max_degree_frac: float) -> np.ndarray:
    """Zipf(α−1) popularity over vertex ranks with hub mass capped.

    Real web crawls have ``d_max/|E| ≈ 1e-3`` (uk-2002: 195k/300M), which
    keeps the paper's regime ``V_max = |E|/k > d_max`` true up to k=256.
    An uncapped Zipf at laptop scale concentrates ~15% of edges on one
    hub, a regime the real graphs are never in, so the per-vertex
    probability is clipped at ``max_degree_frac`` and renormalised.
    """
    ranks = np.arange(1, n_v + 1, dtype=np.float64)
    p = ranks ** (-(alpha - 1.0))
    p /= p.sum()
    p = np.minimum(p, max_degree_frac)
    return p / p.sum()


def web_graph(*, sf: float = 0.01, alpha: float = 2.1, locality: float = 0.75,
              v_scale: float = 1.0, e_scale: float = 1.0, seed: int = 0) -> EdgeStream:
    """Power-law web crawl with BFS-like stream order.

    A vectorised copying model: vertex ids are assigned in crawl-discovery
    order; edge i's source is the "currently crawled" page (ids increase
    along the stream), and its destination is either a nearby recent page
    (probability ``locality`` — intra-site links) or a Zipf-popular page
    (global hubs), yielding power-law in-degree with exponent ≈ ``alpha``.
    """
    n_v = max(16, int(_V_PER_SF * sf * v_scale))
    n_e = max(32, int(_E_PER_SF * sf * e_scale))
    g = np.random.default_rng(seed)

    # Crawl frontier: source of edge i is a page discovered shortly before
    # position i (monotone-ish ids ⇒ BFS-like stream order).
    frontier = np.linspace(0, n_v - 1, n_e)
    src = (frontier - g.integers(0, 8, n_e)).clip(0).astype(np.int64)

    # Destinations: Zipf ranks over discovery order → early pages are hubs.
    zipf_p = _zipf_capped(n_v, alpha, WEB_MAX_DEGREE_FRAC)
    hub_dst = g.choice(n_v, size=n_e, p=zipf_p)
    local_dst = (src + g.integers(1, 64, n_e)) % n_v
    use_local = g.random(n_e) < locality
    dst = np.where(use_local, local_dst, hub_dst).astype(np.int64)

    # Drop self loops deterministically by nudging dst.
    dst = np.where(dst == src, (dst + 1) % n_v, dst)
    return EdgeStream(src, dst)


def social_graph(*, sf: float = 0.01, alpha: float = 1.8, v_scale: float = 1.0,
                 e_scale: float = 1.0, seed: int = 0) -> EdgeStream:
    """Twitter-like follower graph: two-sided skew, no crawl locality.

    Both endpoints are Zipf-distributed (celebrity hubs on the in-side,
    heavy followers on the out-side) and the stream has no BFS locality —
    the regime where Fig 4 shows CLUGP's RF edge narrowing vs HDRF.
    Hubs are heavier than the web presets (twitter's d_max/|E| is ~4e-3).
    """
    n_v = max(16, int(_V_PER_SF * sf * v_scale))
    n_e = max(32, int(_E_PER_SF * sf * e_scale))
    g = np.random.default_rng(seed)
    p_in = _zipf_capped(n_v, alpha, SOCIAL_MAX_DEGREE_FRAC)
    p_out = _zipf_capped(n_v, alpha + 0.4, SOCIAL_MAX_DEGREE_FRAC)
    src = g.choice(n_v, size=n_e, p=p_out).astype(np.int64)
    # Permute hub identities on the out side so in- and out-hubs differ.
    perm = g.permutation(n_v)
    src = perm[src]
    dst = g.choice(n_v, size=n_e, p=p_in).astype(np.int64)
    dst = np.where(dst == src, (dst + 1) % n_v, dst)
    return EdgeStream(src, dst)


def dataset(name: str, *, sf: float = 0.01, seed_offset: int = 0) -> EdgeStream:
    """One of the five Table-III stand-ins by alias (see ``DATASETS``)."""
    cfg = dict(DATASETS[name])
    kind, seed = cfg.pop("kind"), cfg.pop("seed") + seed_offset
    if kind == "web":
        return web_graph(sf=sf, seed=seed, **cfg)
    return social_graph(sf=sf, seed=seed, **cfg)
