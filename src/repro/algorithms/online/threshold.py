"""Threshold / restricted-large-configuration variants of PD-OMFLP.

Two uses, both grounded in the paper:

* **Section 3.3 (Theorem 18).**  For cost functions ``g_x`` in the class
  ``C`` the analysis threshold between "small" and "large" configurations
  moves from ``sqrt(|S|)`` to ``a = sqrt(|S|)^x``.  The algorithm itself is
  unchanged — it still opens singleton and full-``S`` facilities — so
  :func:`tuned_pd_for_power_cost` simply returns a plain PD-OMFLP instance
  (with the tuned threshold recorded for reporting); the experiment uses the
  threshold to annotate the predicted exponent.

* **Closing remarks (Section 5).**  When a few *heavy* commodities violate
  Condition 1, the paper suggests running the algorithms "in which the heavy
  commodities are excluded such that a large facility becomes one including
  all non-heavy commodities".  :class:`ThresholdPDAlgorithm` realizes exactly
  that: it is PD-OMFLP whose large configuration is ``S`` minus an explicit
  set of excluded (heavy) commodities, which are then always served by small
  facilities.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.costs.count_based import PowerCost
from repro.exceptions import AlgorithmError

__all__ = ["ThresholdPDAlgorithm", "tuned_pd_for_power_cost"]


class ThresholdPDAlgorithm(PDOMFLPAlgorithm):
    """PD-OMFLP with a restricted large configuration (heavy commodities excluded).

    Parameters
    ----------
    num_commodities:
        Size of the commodity universe ``|S|``.
    excluded:
        Commodities that are never offered by large facilities (the "heavy"
        commodities of the closing remarks); they are always served by small
        facilities.

    The snapshot hooks (``state_dict`` / ``load_state_dict``) are inherited
    unchanged from :class:`PDOMFLPAlgorithm` — the excluded set is constructor
    configuration, not per-run state, so a restored session only needs the
    algorithm to be rebuilt with the same arguments.
    """

    def __init__(self, num_commodities: int, excluded: Iterable[int] = ()) -> None:
        excluded_set = frozenset(int(e) for e in excluded)
        if any(not 0 <= e < num_commodities for e in excluded_set):
            raise AlgorithmError(
                f"excluded commodities {sorted(excluded_set)} out of range [0, {num_commodities})"
            )
        large = frozenset(range(num_commodities)) - excluded_set
        if not large:
            raise AlgorithmError("at least one commodity must remain in the large configuration")
        super().__init__(large_configuration=large)
        self.excluded = excluded_set
        self.name = "pd-omflp-heavy-excluded" if excluded_set else "pd-omflp"


def tuned_pd_for_power_cost(cost: PowerCost) -> PDOMFLPAlgorithm:
    """PD-OMFLP for a cost function of the class ``C`` with its tuned threshold.

    Theorem 18: for ``g_x`` the optimal analysis threshold is
    ``a = g_x(|S|) = sqrt(|S|)^x`` and the resulting competitive ratio is
    ``O(sqrt(|S|)^{(2x - x^2)/2} log n)``.  The algorithm does not change; the
    returned instance carries the tuned threshold and the predicted exponent
    as attributes so that the Theorem-18 experiment can annotate its tables.
    """
    algorithm = PDOMFLPAlgorithm()
    algorithm.name = f"pd-omflp(x={cost.exponent_x:g})"
    algorithm.tuned_threshold = cost.tuned_threshold()
    algorithm.predicted_upper_exponent = cost.predicted_upper_exponent()
    algorithm.predicted_lower_exponent = cost.predicted_lower_exponent()
    return algorithm
