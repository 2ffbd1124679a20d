"""The package's public names: exactly these, and every one importable."""

import pytest

import postclust
import postclust.metrics

MODULES = ["ball", "dpm", "metrics", "partition", "posterior", "search"]

PUBLIC = [
    "BallBounds", "CredibleBall", "Dataset", "DrawMatrix", "Metric",
    "Neighbors", "Partition", "SamplerConfig", "SearchConfig", "SearchResult",
    "__version__", "ball_bounds", "best_sampled", "binder", "canonicalize",
    "closest_neighbors", "credible_ball", "draw_distances",
    "expected_binder", "expected_loss", "expected_vi", "expected_vi_lower",
    "gibbs_run", "greedy_search", "load_draws", "load_galaxy", "merge_delta",
    "one_cluster",
    "similarity_matrix", "simulate_example", "singletons", "vi",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(postclust.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(postclust, name), name
    for name in postclust.metrics.__all__:
        assert hasattr(postclust.metrics, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve(module):
    mod = getattr(postclust, module)
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_names_are_the_modules_names():
    # each public name is declared by exactly one module
    names = ["__version__"] + [
        name for module in MODULES for name in getattr(postclust, module).__all__
    ]
    assert len(names) == len(set(names))
    assert len(postclust.__all__) == len(set(postclust.__all__))
    assert sorted(postclust.__all__) == sorted(names)
