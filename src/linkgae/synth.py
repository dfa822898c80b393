"""Synthetic graphs for desk-scale experiments.

The structure-dominant generator plants dense communities (so shared
neighbors strongly predict links) and attaches random Gaussian features
that carry no link signal.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def structure_dominant_graph(n: int = 2000, community_size: int = 20,
                             p_in: float = 0.5, cross_degree: float = 2.0,
                             feature_dim: int = 32, seed: int = 7) -> Graph:
    """Disjoint communities with Bernoulli(p_in) internal edges plus random
    cross-community noise edges (about ``cross_degree`` per node)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if community_size < 1:
        raise ValueError(f"community_size must be >= 1, got {community_size}")
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must be in [0, 1], got {p_in}")
    if not 0.0 <= cross_degree < np.inf:
        raise ValueError(f"cross_degree must be finite and >= 0, got {cross_degree}")
    if feature_dim < 0:
        raise ValueError(f"feature_dim must be >= 0, got {feature_dim}")
    if n % community_size != 0:
        raise ValueError("n must be a multiple of community_size")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(community_size, k=1)
    # one row of draws per community, read in the same order as one draw each
    community, pair = np.nonzero(rng.random((n // community_size, len(iu))) < p_in)
    start = community * community_size
    inside = np.stack([iu[pair] + start, ju[pair] + start], axis=1)
    n_cross = int(n * cross_degree / 2)
    u = rng.integers(0, n, 3 * n_cross)
    v = rng.integers(0, n, 3 * n_cross)
    different = (u // community_size) != (v // community_size)
    cross = np.stack([u[different], v[different]], axis=1)[:n_cross]
    features = rng.standard_normal((n, feature_dim))
    return Graph.from_edges(n, np.concatenate([inside, cross], axis=0), features)


def is_synth_spec(dataset: str) -> bool:
    """Whether a dataset name is a synth spec: "synth" or "synth:..."."""
    return dataset == "synth" or dataset.startswith("synth:")


def parse_synth_spec(spec: str) -> Graph:
    """Build a graph from "synth" or "synth:n=2000,cs=20,p_in=0.5,...".

    Keys: n, cs (community size), p_in, xdeg (cross degree), fdim, seed.
    A malformed item raises ValueError naming it.
    """
    kw = {}
    if spec != "synth":
        names = {"n": ("n", int), "cs": ("community_size", int),
                 "p_in": ("p_in", float), "xdeg": ("cross_degree", float),
                 "fdim": ("feature_dim", int), "seed": ("seed", int)}
        for item in spec[len("synth:"):].split(","):
            key, _, raw = item.partition("=")
            if key not in names:
                raise ValueError(f"unknown synth key {key!r} in {item!r}; "
                                 f"choose from {sorted(names)}")
            name, cast = names[key]
            try:
                kw[name] = cast(raw)
            except ValueError:
                raise ValueError(f"synth item {item!r} is not {key}=<{cast.__name__}>") from None
    return structure_dominant_graph(**kw)
