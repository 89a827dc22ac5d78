"""Tree collective algorithms (NCCL-style double binary trees).

The paper's prototype "focuses on ports of NCCL's ring AllReduce and
AllGather kernels; however, it is straightforward to implement ... other
algorithms (e.g., tree algorithms)" (§5).  We implement that extension:
the tree schedules of the double-binary-tree AllReduce NCCL uses at
scale, so the MCCS proxy engine can switch algorithm families at
reconfiguration time.  The schedule is
:func:`repro.collectives.generators.double_tree_program`; bytes, flows
and step count are all views of its compiled plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from .types import validate_world


@dataclass(frozen=True)
class TreeSchedule:
    """A rooted tree over ranks: ``parent[r]`` is rank r's parent (root: -1)."""

    parent: Tuple[int, ...]

    def __post_init__(self) -> None:
        world = len(self.parent)
        validate_world(world)
        roots = [r for r, p in enumerate(self.parent) if p == -1]
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        # reject cycles / out-of-range parents
        for r, p in enumerate(self.parent):
            if p == r or (p != -1 and not 0 <= p < world):
                raise ValueError(f"invalid parent {p} for rank {r}")
        for r in range(world):
            seen = set()
            node = r
            while node != -1:
                if node in seen:
                    raise ValueError("parent pointers contain a cycle")
                seen.add(node)
                node = self.parent[node]

    @property
    def world(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self, rank: int) -> List[int]:
        return [r for r, p in enumerate(self.parent) if p == rank]

    def edges(self) -> List[Tuple[int, int]]:
        """Directed (child, parent) pairs."""
        return [(r, p) for r, p in enumerate(self.parent) if p != -1]

    def depth(self) -> int:
        def d(rank: int) -> int:
            p = self.parent[rank]
            return 0 if p == -1 else 1 + d(p)

        return max(d(r) for r in range(self.world))


def binary_tree(order: Sequence[int]) -> TreeSchedule:
    """Complete binary tree over ``order`` (order[0] is the root).

    Position p's parent is position (p-1)//2, the classic array layout.
    """
    order = list(order)
    world = len(order)
    validate_world(world)
    parent = [0] * world
    for pos, rank in enumerate(order):
        parent[rank] = -1 if pos == 0 else order[(pos - 1) // 2]
    return TreeSchedule(tuple(parent))


@lru_cache(maxsize=512)
def _double_binary_trees(order: Tuple[int, ...]) -> Tuple[TreeSchedule, TreeSchedule]:
    shifted = order[1:] + order[:1]
    return binary_tree(order), binary_tree(shifted)


def double_binary_trees(order: Sequence[int]) -> Tuple[TreeSchedule, TreeSchedule]:
    """Two complementary trees in the spirit of NCCL's double binary tree.

    The second tree is built over the rotated order, so interior nodes of
    one tree tend to be leaves of the other, balancing per-rank load when
    each tree carries half the data.  Results are cached per ring order —
    tree validation walks every root-to-leaf path, which is too costly to
    repeat on every collective launch.
    """
    return _double_binary_trees(tuple(order))
