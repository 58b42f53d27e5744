"""Helpers that the tests share and the package does not need."""

from dquiver.quiver import Quiver, mutation_class_representatives
from dquiver.trees import star_tree_classes


def mutation_class(seed: Quiver, *, max_classes: int = 10_000_000) -> set[bytes]:
    """Canonical keys of every quiver mutation-equivalent to ``seed``."""
    return set(mutation_class_representatives(seed, max_classes=max_classes))


def enumerate_star_trees(n: int) -> set[bytes]:
    """Keys of all rotation classes of star trees with n leaves."""
    return set(star_tree_classes(n))
