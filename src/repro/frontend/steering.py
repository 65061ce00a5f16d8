"""Dependence- and workload-based steering (Canal, Parcerisa & González [12]).

All of the paper's schemes sit on top of this steering substrate
(Section 5.1: instructions are steered "to the cluster where most of their
source operands reside in order to minimize communications" while the
mechanism "also controls workload balance").

The algorithm, per renamed uop:

1. count how many of its source operands are currently resident in each
   cluster (replicas count for both, static values for neither);
2. prefer the cluster with more resident operands;
3. on a tie (including no register sources), prefer the less-loaded cluster
   (issue-queue occupancy);
4. *balance override*: if the preferred cluster's occupancy exceeds the
   other's by more than ``imbalance_threshold``, steer to the lighter one.

The resource assignment scheme may later veto the choice (e.g. CSSP's
per-cluster partitions); vetoed redirections are what Figure 4 counts as
issue-queue stalls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.backend.regfile import READY_EVERYWHERE
from repro.frontend.rename import NO_REG, RenameTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.cluster import Cluster
    from repro.isa import Uop


class Steering:
    """Stateless chooser over two clusters (kept as a class for ablations)."""

    __slots__ = ("imbalance_threshold",)

    def __init__(self, imbalance_threshold: int = 4) -> None:
        self.imbalance_threshold = imbalance_threshold

    def preferred_cluster(
        self,
        uop: "Uop",
        table: RenameTable,
        clusters: Sequence["Cluster"],
    ) -> int:
        """Cluster the steering logic would send ``uop`` to.

        Specialized for the two-cluster machine (the processor model
        enforces exactly two clusters); runs once per renamed uop, so it is
        written allocation-free.
        """
        c0 = c1 = 0
        s1 = uop.src1
        if s1 >= 0:
            # inlined RenameTable.present_in: static values and replicated
            # values count for both clusters, a homed value for its home —
            # this runs twice per renamed uop on the hottest pipeline path
            phys = table._phys
            home = table._cluster
            replica = table._replica
            if phys[s1] == READY_EVERYWHERE or replica[s1] != NO_REG:
                c0 += 1
                c1 += 1
            elif home[s1] == 0:
                c0 += 1
            else:
                c1 += 1
            s2 = uop.src2
            if s2 >= 0:
                if phys[s2] == READY_EVERYWHERE or replica[s2] != NO_REG:
                    c0 += 1
                    c1 += 1
                elif home[s2] == 0:
                    c0 += 1
                else:
                    c1 += 1
        occ0 = clusters[0].iq.occupancy
        occ1 = clusters[1].iq.occupancy

        if c0 != c1:
            pref = 0 if c0 > c1 else 1
        else:
            pref = 0 if occ0 <= occ1 else 1

        threshold = self.imbalance_threshold
        if pref == 0:
            if occ0 - occ1 > threshold:
                pref = 1
        elif occ1 - occ0 > threshold:
            pref = 0
        return pref


class RoundRobinSteering(Steering):
    """Ablation baseline: alternate clusters per renamed uop (Raasch-style)."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        super().__init__(imbalance_threshold=0)
        self._next = 0

    def preferred_cluster(self, uop, table, clusters):  # noqa: D102
        pref = self._next
        self._next = 1 - self._next
        return pref


class LoadBalanceSteering(Steering):
    """Ablation baseline: always pick the emptier issue queue."""

    __slots__ = ()

    def preferred_cluster(self, uop, table, clusters):  # noqa: D102
        return 0 if clusters[0].iq.occupancy <= clusters[1].iq.occupancy else 1
